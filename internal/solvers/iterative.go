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
// CG, its preconditioned variants (Jacobi, two-level and multi-level
// V-cycle) and power iteration go one step further: each is written
// once, as PCGOn / PowerOn over the Space vector backend (krylov.go),
// and the exported entry points are that loop on runtime-backed arrays.
// internal/shard runs the same two functions on host slices behind its
// scatter/gather operator, which is why a sharded solve repeats a
// single-process one bit for bit. CGS, BiCG, BiCGSTAB and GMRES exist
// once each and are written directly against cunumeric.
package solvers

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/legion"
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

// streamErr is the runtime's reason to stop a solve: the sticky error
// first (kernel values funnel through Future.Get, so by the time a
// solver returns any modeled OOM or unrecovered fault is visible), then
// a cooperative cancellation.
func streamErr(rt *legion.Runtime) error {
	if err := rt.Err(); err != nil {
		return err
	}
	return rt.Cancelled()
}

// finish propagates the runtime's sticky error or cancellation into the
// result.
func (res *Outcome[V]) finish(rt *legion.Runtime) *Outcome[V] { return res.fail(streamErr(rt)) }

// stopped reports whether the launch stream has been cooperatively
// cancelled. Iteration loops poll it so a timed-out or abandoned solve
// stops at the next iteration boundary instead of spinning through
// skipped kernels (whose futures read as zeros and could otherwise fake
// convergence or a breakdown).
func stopped(rt *legion.Runtime) bool { return rt.Cancelled() != nil }

// CG solves the SPD system A x = b with the conjugate-gradient method,
// the solver of the paper's Figure 9 benchmark: PCGOn with no
// preconditioner on the runtime-backed space.
func CG(a core.SparseMatrix, b *cunumeric.Array, maxIter int, tol float64) *Result {
	return PCGOn(regionSpace{a}, "cg", b, nil, maxIter, tol)
}

// CGS solves A x = b with the conjugate-gradient-squared method (ported
// from scipy.sparse.linalg.cgs).
func CGS(a core.SparseMatrix, b *cunumeric.Array, maxIter int, tol float64) *Result {
	rt := a.Runtime()
	n := b.Len()
	x := cunumeric.Zeros(rt, n)
	r := cunumeric.Zeros(rt, n)
	cunumeric.Copy(r, b)
	rTilde := cunumeric.Zeros(rt, n)
	cunumeric.Copy(rTilde, b)
	u := cunumeric.Zeros(rt, n)
	cunumeric.Copy(u, r)
	p := cunumeric.Zeros(rt, n)
	cunumeric.Copy(p, r)
	q := cunumeric.Zeros(rt, n)
	vh := cunumeric.Zeros(rt, n)
	uq := cunumeric.Zeros(rt, n)
	tmp := cunumeric.Zeros(rt, n)

	res := &Result{X: x}
	rho := cunumeric.Dot(rTilde, r).Get()
	for it := 0; it < maxIter && !stopped(rt); it++ {
		if rho == 0 {
			res.breakdown("cgs", "rho = r̃·r = 0")
			break
		}
		a.SpMVInto(vh, p)
		sigma := cunumeric.Dot(rTilde, vh).Get()
		if sigma == 0 {
			res.breakdown("cgs", "sigma = r̃·Ap = 0")
			break
		}
		alpha := rho / sigma
		// q = u - alpha*vh
		cunumeric.Copy(q, u)
		cunumeric.AXPY(-alpha, vh, q)
		// uq = u + q
		cunumeric.AddInto(uq, u, q)
		cunumeric.AXPY(alpha, uq, x)
		a.SpMVInto(tmp, uq)
		cunumeric.AXPY(-alpha, tmp, r)
		nrm := math.Sqrt(cunumeric.Dot(r, r).Get())
		res.Iterations = it + 1
		res.Residuals = append(res.Residuals, nrm)
		if !res.residualOK("cgs", nrm) {
			break
		}
		if nrm < tol {
			res.Converged = true
			break
		}
		rhoNew := cunumeric.Dot(rTilde, r).Get()
		beta := rhoNew / rho
		// u = r + beta*q
		cunumeric.Copy(u, r)
		cunumeric.AXPY(beta, q, u)
		// p = u + beta*(q + beta*p)
		cunumeric.AXPBY(1, q, beta, p)
		cunumeric.AXPBY(1, u, beta, p)
		rho = rhoNew
	}
	for _, buf := range []*cunumeric.Array{r, rTilde, u, p, q, vh, uq, tmp} {
		buf.Destroy()
	}
	return res.finish(rt)
}

// BiCG solves A x = b with the biconjugate-gradient method; it uses Aᵀ
// explicitly (computed once), like SciPy's implementation uses rmatvec.
func BiCG(a core.SparseMatrix, b *cunumeric.Array, maxIter int, tol float64) *Result {
	rt := a.Runtime()
	at := core.TransposeCSR(a)
	defer at.Destroy()
	n := b.Len()
	x := cunumeric.Zeros(rt, n)
	r := cunumeric.Zeros(rt, n)
	cunumeric.Copy(r, b)
	rTilde := cunumeric.Zeros(rt, n)
	cunumeric.Copy(rTilde, b)
	p := cunumeric.Zeros(rt, n)
	cunumeric.Copy(p, r)
	pTilde := cunumeric.Zeros(rt, n)
	cunumeric.Copy(pTilde, rTilde)
	ap := cunumeric.Zeros(rt, n)
	atp := cunumeric.Zeros(rt, n)

	res := &Result{X: x}
	rho := cunumeric.Dot(rTilde, r).Get()
	for it := 0; it < maxIter && !stopped(rt); it++ {
		if rho == 0 {
			res.breakdown("bicg", "rho = r̃·r = 0")
			break
		}
		a.SpMVInto(ap, p)
		at.SpMVInto(atp, pTilde)
		den := cunumeric.Dot(pTilde, ap).Get()
		if den == 0 {
			res.breakdown("bicg", "p̃·Ap = 0")
			break
		}
		alpha := rho / den
		cunumeric.AXPY(alpha, p, x)
		cunumeric.AXPY(-alpha, ap, r)
		cunumeric.AXPY(-alpha, atp, rTilde)
		nrm := math.Sqrt(cunumeric.Dot(r, r).Get())
		res.Iterations = it + 1
		res.Residuals = append(res.Residuals, nrm)
		if !res.residualOK("bicg", nrm) {
			break
		}
		if nrm < tol {
			res.Converged = true
			break
		}
		rhoNew := cunumeric.Dot(rTilde, r).Get()
		beta := rhoNew / rho
		cunumeric.AXPBY(1, r, beta, p)
		cunumeric.AXPBY(1, rTilde, beta, pTilde)
		rho = rhoNew
	}
	for _, buf := range []*cunumeric.Array{r, rTilde, p, pTilde, ap, atp} {
		buf.Destroy()
	}
	return res.finish(rt)
}

// BiCGSTAB solves A x = b with the stabilized biconjugate-gradient
// method (scipy.sparse.linalg.bicgstab).
func BiCGSTAB(a core.SparseMatrix, b *cunumeric.Array, maxIter int, tol float64) *Result {
	rt := a.Runtime()
	n := b.Len()
	x := cunumeric.Zeros(rt, n)
	r := cunumeric.Zeros(rt, n)
	cunumeric.Copy(r, b)
	rHat := cunumeric.Zeros(rt, n)
	cunumeric.Copy(rHat, r)
	p := cunumeric.Zeros(rt, n)
	cunumeric.Copy(p, r)
	v := cunumeric.Zeros(rt, n)
	s := cunumeric.Zeros(rt, n)
	t := cunumeric.Zeros(rt, n)

	res := &Result{X: x}
	rho := cunumeric.Dot(rHat, r).Get()
	for it := 0; it < maxIter && !stopped(rt); it++ {
		if rho == 0 {
			res.breakdown("bicgstab", "rho = r̂·r = 0")
			break
		}
		a.SpMVInto(v, p)
		den := cunumeric.Dot(rHat, v).Get()
		if den == 0 {
			res.breakdown("bicgstab", "r̂·Ap = 0")
			break
		}
		alpha := rho / den
		// s = r - alpha*v
		cunumeric.Copy(s, r)
		cunumeric.AXPY(-alpha, v, s)
		a.SpMVInto(t, s)
		tt := cunumeric.Dot(t, t).Get()
		var omega float64
		if tt != 0 {
			omega = cunumeric.Dot(t, s).Get() / tt
		}
		cunumeric.AXPY(alpha, p, x)
		cunumeric.AXPY(omega, s, x)
		// r = s - omega*t
		cunumeric.Copy(r, s)
		cunumeric.AXPY(-omega, t, r)
		nrm := math.Sqrt(cunumeric.Dot(r, r).Get())
		res.Iterations = it + 1
		res.Residuals = append(res.Residuals, nrm)
		if !res.residualOK("bicgstab", nrm) {
			break
		}
		if nrm < tol {
			res.Converged = true
			break
		}
		rhoNew := cunumeric.Dot(rHat, r).Get()
		if omega == 0 {
			res.breakdown("bicgstab", "omega = t·s/t·t = 0")
			break
		}
		beta := (rhoNew / rho) * (alpha / omega)
		// p = r + beta*(p - omega*v)
		cunumeric.AXPY(-omega, v, p)
		cunumeric.AXPBY(1, r, beta, p)
		rho = rhoNew
	}
	for _, buf := range []*cunumeric.Array{r, rHat, p, v, s, t} {
		buf.Destroy()
	}
	return res.finish(rt)
}

// GMRES solves A x = b with restarted GMRES(m). The Krylov basis
// vectors are distributed arrays; the small Hessenberg least-squares
// problem is solved on the host with Givens rotations, exactly like the
// SciPy implementation this is ported from.
func GMRES(a core.SparseMatrix, b *cunumeric.Array, restart, maxIter int, tol float64) *Result {
	rt := a.Runtime()
	n := b.Len()
	x := cunumeric.Zeros(rt, n)
	r := cunumeric.Zeros(rt, n)
	w := cunumeric.Zeros(rt, n)
	res := &Result{X: x}

	basis := make([]*cunumeric.Array, restart+1)
	for i := range basis {
		basis[i] = cunumeric.Zeros(rt, n)
	}
	defer func() {
		for _, v := range basis {
			v.Destroy()
		}
		r.Destroy()
		w.Destroy()
	}()

	h := make([][]float64, restart+1)
	for i := range h {
		h[i] = make([]float64, restart)
	}
	cs := make([]float64, restart)
	sn := make([]float64, restart)
	g := make([]float64, restart+1)

	for res.Iterations < maxIter && !stopped(rt) {
		// r = b - A x
		a.SpMVInto(r, x)
		cunumeric.AXPBY(1, b, -1, r)
		beta := math.Sqrt(cunumeric.Dot(r, r).Get())
		if res.Iterations == 0 {
			res.Residuals = append(res.Residuals, beta)
		}
		if !res.residualOK("gmres", beta) {
			return res.finish(rt)
		}
		if beta < tol {
			res.Converged = true
			return res.finish(rt)
		}
		cunumeric.Copy(basis[0], r)
		basis[0].Scale(1 / beta)
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0
		for ; k < restart && res.Iterations < maxIter; k++ {
			a.SpMVInto(w, basis[k])
			// Modified Gram-Schmidt.
			for i := 0; i <= k; i++ {
				h[i][k] = cunumeric.Dot(w, basis[i]).Get()
				cunumeric.AXPY(-h[i][k], basis[i], w)
			}
			h[k+1][k] = math.Sqrt(cunumeric.Dot(w, w).Get())
			if h[k+1][k] != 0 {
				cunumeric.Copy(basis[k+1], w)
				basis[k+1].Scale(1 / h[k+1][k])
			}
			// Apply accumulated Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
				h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
				h[i][k] = t
			}
			denom := math.Hypot(h[k][k], h[k+1][k])
			if denom == 0 {
				res.breakdown("gmres", "Givens denominator = 0")
				k++
				break
			}
			cs[k] = h[k][k] / denom
			sn[k] = h[k+1][k] / denom
			h[k][k] = denom
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]

			res.Iterations++
			nrm := math.Abs(g[k+1])
			res.Residuals = append(res.Residuals, nrm)
			if !res.residualOK("gmres", nrm) {
				k++
				break
			}
			if nrm < tol {
				k++
				res.Converged = true
				break
			}
		}
		// Back-substitute y from the triangular system and update x.
		y := make([]float64, k)
		for i := k - 1; i >= 0; i-- {
			y[i] = g[i]
			for j := i + 1; j < k; j++ {
				y[i] -= h[i][j] * y[j]
			}
			y[i] /= h[i][i]
		}
		for i := 0; i < k; i++ {
			cunumeric.AXPY(y[i], basis[i], x)
		}
		// A breakdown without an iteration-count advance would otherwise
		// respin the outer loop on the same data forever.
		if res.Converged || res.Err != nil {
			return res.finish(rt)
		}
	}
	return res.finish(rt)
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

// Fence is a convenience re-export so benchmark drivers can synchronize
// without importing legion directly.
func Fence(rt *legion.Runtime) { rt.Fence() }
