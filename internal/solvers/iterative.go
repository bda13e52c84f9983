// Package solvers contains the higher-level linear algebra the paper
// ports from SciPy and CuPy onto Legate Sparse and cuNumeric (§5.2):
// the iterative Krylov solvers (CG, CGS, BiCG, BiCGSTAB, GMRES), the
// weighted-Jacobi smoother and two-level geometric multigrid of the GMG
// benchmark (§6.1), a power-iteration eigensolver, and explicit
// Runge-Kutta integrators including the 8th-order method the quantum
// simulation uses (§6.1).
//
// Every solver is written purely against the public APIs of core and
// cunumeric — no direct region or partition manipulation — which is the
// point the paper makes about bootstrapping the library with itself:
// porting a SciPy solver is mechanical once the array and sparse layers
// compose.
//
// Every Krylov method goes one step further: each is written once, as a
// generic loop over the Space vector backend (krylov.go) — PCGOn for CG
// and its preconditioned variants (Jacobi, two-level and multi-level
// V-cycle), CGSOn, BiCGOn, BiCGSTABOn, GMRESOn, and PowerOn for power
// iteration — and the exported entry points are that loop on
// runtime-backed arrays. internal/petsc runs PCGOn on its rank-local
// vectors. Lookup is the one table of the solvers callable by name.
package solvers

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cunumeric"
)

// Outcome reports the result of an iterative solve over vectors of
// type V (see Space).
type Outcome[V any] struct {
	X          V
	Iterations int
	Residuals  []float64 // per-iteration residual norms
	Converged  bool

	// Err is non-nil when the solve stopped for a reason other than
	// convergence or iteration exhaustion: a numerical breakdown (a
	// zero denominator in the recurrence, a NaN or Inf residual), a
	// sticky runtime error (modeled OOM, unrecoverable fault), or a
	// cooperative cancellation.
	Err error
}

// Result is the outcome of a solve on runtime-backed arrays, what every
// exported solver in this package returns.
type Result = Outcome[*cunumeric.Array]

// BreakdownError reports a numerical breakdown of an iterative solver:
// a denominator in the Krylov recurrence hit exactly zero, or the
// residual norm left the finite floats. SciPy signals these with
// info < 0; here the failing quantity and iteration are named.
type BreakdownError struct {
	Solver    string
	Iteration int
	Reason    string
}

func (e *BreakdownError) Error() string {
	return fmt.Sprintf("solvers: %s breakdown at iteration %d: %s", e.Solver, e.Iteration, e.Reason)
}

// breakdown records a breakdown on res unless the solve already
// converged (a zero denominator *after* convergence is the normal exit
// of an exactly-solved system, not an error).
func (res *Outcome[V]) breakdown(solver, reason string) {
	if !res.Converged && res.Err == nil {
		res.Err = &BreakdownError{Solver: solver, Iteration: res.Iterations, Reason: reason}
	}
}

// residualOK records a breakdown and returns false when a residual
// norm is NaN or Inf — the iteration has diverged and no further step
// can recover it.
func (res *Outcome[V]) residualOK(solver string, nrm float64) bool {
	if math.IsNaN(nrm) || math.IsInf(nrm, 0) {
		res.breakdown(solver, fmt.Sprintf("residual norm is %v", nrm))
		return false
	}
	return true
}

// fail records why the vector backend stopped, if it did. A backend
// error outranks whatever numeric state the solve limped to: kernels
// were skipped from the failure or cancellation point on, so even an
// apparent zero residual is meaningless.
func (res *Outcome[V]) fail(err error) *Outcome[V] {
	if err != nil {
		res.Err = err
		res.Converged = false
	}
	return res
}

// CG solves the SPD system A x = b with the conjugate-gradient method,
// the solver of the paper's Figure 9 benchmark: PCGOn with no
// preconditioner on the runtime-backed space.
func CG(a core.SparseMatrix, b *cunumeric.Array, maxIter int, tol float64) *Result {
	return PCGOn(regionSpace{a}, "cg", b, nil, maxIter, tol)
}

// CGS solves A x = b with the conjugate-gradient-squared method: CGSOn
// on the runtime-backed space.
func CGS(a core.SparseMatrix, b *cunumeric.Array, maxIter int, tol float64) *Result {
	return CGSOn(regionSpace{a}, b, maxIter, tol)
}

// BiCG solves A x = b with the biconjugate-gradient method: BiCGOn on
// the runtime-backed space, with Aᵀ computed once.
func BiCG(a core.SparseMatrix, b *cunumeric.Array, maxIter int, tol float64) *Result {
	at := core.TransposeCSR(a)
	defer at.Destroy()
	return BiCGOn(regionSpace{a}, regionSpace{at}, b, maxIter, tol)
}

// BiCGSTAB solves A x = b with the stabilized biconjugate-gradient
// method: BiCGSTABOn on the runtime-backed space.
func BiCGSTAB(a core.SparseMatrix, b *cunumeric.Array, maxIter int, tol float64) *Result {
	return BiCGSTABOn(regionSpace{a}, b, maxIter, tol)
}

// GMRES solves A x = b with restarted GMRES(restart): GMRESOn on the
// runtime-backed space, so the Krylov basis vectors are distributed
// arrays.
func GMRES(a core.SparseMatrix, b *cunumeric.Array, restart, maxIter int, tol float64) *Result {
	return GMRESOn(regionSpace{a}, b, restart, maxIter, tol)
}

// PowerIteration estimates the dominant eigenvalue and eigenvector of A
// via power iteration with the Rayleigh quotient, the computation of the
// paper's Figure 1: PowerOn from a seeded random start vector. A sticky
// runtime error or cancellation is left for the caller to read off the
// runtime.
func PowerIteration(a core.SparseMatrix, iters int, seed uint64) (float64, *cunumeric.Array) {
	x := cunumeric.Random(a.Runtime(), a.Rows(), seed)
	lambda, x, _ := PowerOn(regionSpace{a}, x, iters)
	return lambda, x
}
