package solvers

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/cunumeric"
)

// Space is the vector backend a Krylov loop is written against: the
// operator A applied to vectors of type V, plus the handful of BLAS-1
// kernels the recurrences use. Every Krylov method in this package —
// PCGOn, CGSOn, BiCGOn, BiCGSTABOn, GMRESOn — and PowerOn is written
// once over it and runs wherever a Space exists: on runtime-backed
// arrays here (regionSpace), on host slices with a scatter/gather
// operator in internal/shard, on rank-local vectors in internal/petsc.
//
// Operations do not return errors. A backend that can fail keeps the
// first failure, makes later operations cheap, and reports it from Err;
// the loops poll Err once per iteration and hand it back as the
// solve's outcome.
type Space[V any] interface {
	Zeros() V // a new zero vector of the operator's dimension
	Free(v V)
	Copy(dst, src V)
	MatVec(dst, src V) // dst = A·src
	Dot(a, b V) float64
	AXPY(alpha float64, x, y V)                  // y += alpha·x
	AXPBY(alpha float64, x V, beta float64, y V) // y = alpha·x + beta·y
	Scale(alpha float64, v V)                    // v *= alpha
	Err() error
}

// regionSpace is the Space of cuNumeric arrays on a's runtime: every
// operation is the public core/cunumeric call of the same name, which
// is the paper's §5.2 point — the solvers need nothing below those two
// APIs. Err is the runtime's sticky error — kernel values funnel
// through Future.Get, so by the time a loop reads a dot product any
// modeled OOM or unrecovered fault is visible — then its cancellation.
type regionSpace struct{ a core.SparseMatrix }

func (s regionSpace) Zeros() *cunumeric.Array          { return cunumeric.Zeros(s.a.Runtime(), s.a.Rows()) }
func (s regionSpace) Free(v *cunumeric.Array)          { v.Destroy() }
func (s regionSpace) Copy(dst, src *cunumeric.Array)   { cunumeric.Copy(dst, src) }
func (s regionSpace) MatVec(dst, src *cunumeric.Array) { s.a.SpMVInto(dst, src) }
func (s regionSpace) Dot(a, b *cunumeric.Array) float64 {
	return cunumeric.Dot(a, b).Get()
}
func (s regionSpace) AXPY(alpha float64, x, y *cunumeric.Array) { cunumeric.AXPY(alpha, x, y) }
func (s regionSpace) AXPBY(alpha float64, x *cunumeric.Array, beta float64, y *cunumeric.Array) {
	cunumeric.AXPBY(alpha, x, beta, y)
}
func (s regionSpace) Scale(alpha float64, v *cunumeric.Array) { v.Scale(alpha) }
func (s regionSpace) Err() error {
	if err := s.a.Runtime().Err(); err != nil {
		return err
	}
	return s.a.Runtime().Cancelled()
}

// PCGOn solves the SPD system A x = b by preconditioned conjugate
// gradients on sp, starting from x = 0. prec(z, r) applies the
// preconditioner, z ≈ A⁻¹ r; with a nil prec, z is r itself and the
// residual dot r·r doubles as r·z, which is plain CG with not one
// operation more. solver names the method in a BreakdownError. Work
// vectors are reused across iterations so a runtime-backed program
// reaches the steady state of §4.3 (stable partitions, halo-only
// communication).
func PCGOn[V any](sp Space[V], solver string, b V, prec func(z, r V), maxIter int, tol float64) *Outcome[V] {
	x, r := sp.Zeros(), sp.Zeros()
	z := r
	if prec != nil {
		z = sp.Zeros()
	}
	p, ap := sp.Zeros(), sp.Zeros()
	sp.Copy(r, b) // r = b - A·0 = b
	if prec != nil {
		prec(z, r)
	}
	sp.Copy(p, z)

	res := &Outcome[V]{X: x}
	rz := sp.Dot(r, z)
	for it := 0; it < maxIter && sp.Err() == nil; it++ {
		sp.MatVec(ap, p)
		pap := sp.Dot(p, ap)
		if pap == 0 {
			res.breakdown(solver, "p·Ap = 0")
			break
		}
		alpha := rz / pap
		sp.AXPY(alpha, p, x)
		sp.AXPY(-alpha, ap, r)
		rr := sp.Dot(r, r)
		nrm := math.Sqrt(rr)
		res.Iterations = it + 1
		res.Residuals = append(res.Residuals, nrm)
		if !res.residualOK(solver, nrm) {
			break
		}
		if nrm < tol {
			res.Converged = true
			break
		}
		rzNew := rr
		if prec != nil {
			prec(z, r)
			rzNew = sp.Dot(r, z)
		}
		sp.AXPBY(1, z, rzNew/rz, p) // p = z + beta p
		rz = rzNew
	}
	sp.Free(r)
	if prec != nil {
		sp.Free(z)
	}
	sp.Free(p)
	sp.Free(ap)
	return res.fail(sp.Err())
}

// PowerOn runs iters steps of power iteration on sp from the start
// vector x, which it takes ownership of, and returns the Rayleigh
// quotient, the normalized iterate, and sp's error if it stopped early.
func PowerOn[V any](sp Space[V], x V, iters int) (float64, V, error) {
	y := sp.Zeros()
	for i := 0; i < iters && sp.Err() == nil; i++ {
		sp.MatVec(y, x)
		nrm := math.Sqrt(sp.Dot(y, y))
		if nrm == 0 {
			break
		}
		sp.Scale(1/nrm, y)
		x, y = y, x
	}
	sp.MatVec(y, x)
	lambda := sp.Dot(x, y)
	sp.Free(y)
	return lambda, x, sp.Err()
}

// CGSOn solves A x = b by conjugate gradients squared (ported from
// scipy.sparse.linalg.cgs) on sp, starting from x = 0.
func CGSOn[V any](sp Space[V], b V, maxIter int, tol float64) *Outcome[V] {
	x, r, rTilde, u, p := sp.Zeros(), sp.Zeros(), sp.Zeros(), sp.Zeros(), sp.Zeros()
	sp.Copy(r, b)
	sp.Copy(rTilde, b)
	sp.Copy(u, r)
	sp.Copy(p, r)
	q, vh, tmp := sp.Zeros(), sp.Zeros(), sp.Zeros()

	res := &Outcome[V]{X: x}
	rho := sp.Dot(rTilde, r)
	for it := 0; it < maxIter && sp.Err() == nil; it++ {
		if rho == 0 {
			res.breakdown("cgs", "rho = r̃·r = 0")
			break
		}
		sp.MatVec(vh, p)
		sigma := sp.Dot(rTilde, vh)
		if sigma == 0 {
			res.breakdown("cgs", "sigma = r̃·Ap = 0")
			break
		}
		alpha := rho / sigma
		sp.Copy(q, u) // q = u - alpha vh
		sp.AXPY(-alpha, vh, q)
		// u += q in place (1·q is q exactly); u is rebuilt from r below.
		sp.AXPY(1, q, u)
		sp.AXPY(alpha, u, x)
		sp.MatVec(tmp, u)
		sp.AXPY(-alpha, tmp, r)
		nrm := math.Sqrt(sp.Dot(r, r))
		res.Iterations = it + 1
		res.Residuals = append(res.Residuals, nrm)
		if !res.residualOK("cgs", nrm) {
			break
		}
		if nrm < tol {
			res.Converged = true
			break
		}
		rhoNew := sp.Dot(rTilde, r)
		beta := rhoNew / rho
		sp.Copy(u, r) // u = r + beta q
		sp.AXPY(beta, q, u)
		sp.AXPBY(1, q, beta, p) // p = u + beta (q + beta p)
		sp.AXPBY(1, u, beta, p)
		rho = rhoNew
	}
	for _, v := range []V{r, rTilde, u, p, q, vh, tmp} {
		sp.Free(v)
	}
	return res.fail(sp.Err())
}

// BiCGOn solves A x = b by biconjugate gradients on sp, starting from
// x = 0. tr applies Aᵀ to sp's vectors, the way SciPy's implementation
// uses rmatvec; sp's Err covers both operators.
func BiCGOn[V any](sp, tr Space[V], b V, maxIter int, tol float64) *Outcome[V] {
	x, r, rTilde, p, pTilde := sp.Zeros(), sp.Zeros(), sp.Zeros(), sp.Zeros(), sp.Zeros()
	sp.Copy(r, b)
	sp.Copy(rTilde, b)
	sp.Copy(p, r)
	sp.Copy(pTilde, rTilde)
	ap, atp := sp.Zeros(), sp.Zeros()

	res := &Outcome[V]{X: x}
	rho := sp.Dot(rTilde, r)
	for it := 0; it < maxIter && sp.Err() == nil; it++ {
		if rho == 0 {
			res.breakdown("bicg", "rho = r̃·r = 0")
			break
		}
		sp.MatVec(ap, p)
		tr.MatVec(atp, pTilde)
		den := sp.Dot(pTilde, ap)
		if den == 0 {
			res.breakdown("bicg", "p̃·Ap = 0")
			break
		}
		alpha := rho / den
		sp.AXPY(alpha, p, x)
		sp.AXPY(-alpha, ap, r)
		sp.AXPY(-alpha, atp, rTilde)
		nrm := math.Sqrt(sp.Dot(r, r))
		res.Iterations = it + 1
		res.Residuals = append(res.Residuals, nrm)
		if !res.residualOK("bicg", nrm) {
			break
		}
		if nrm < tol {
			res.Converged = true
			break
		}
		rhoNew := sp.Dot(rTilde, r)
		beta := rhoNew / rho
		sp.AXPBY(1, r, beta, p)
		sp.AXPBY(1, rTilde, beta, pTilde)
		rho = rhoNew
	}
	for _, v := range []V{r, rTilde, p, pTilde, ap, atp} {
		sp.Free(v)
	}
	return res.fail(sp.Err())
}

// BiCGSTABOn solves A x = b by stabilized biconjugate gradients (ported
// from scipy.sparse.linalg.bicgstab) on sp, starting from x = 0.
func BiCGSTABOn[V any](sp Space[V], b V, maxIter int, tol float64) *Outcome[V] {
	x, r, rHat, p := sp.Zeros(), sp.Zeros(), sp.Zeros(), sp.Zeros()
	sp.Copy(r, b)
	sp.Copy(rHat, r)
	sp.Copy(p, r)
	v, s, t := sp.Zeros(), sp.Zeros(), sp.Zeros()

	res := &Outcome[V]{X: x}
	rho := sp.Dot(rHat, r)
	for it := 0; it < maxIter && sp.Err() == nil; it++ {
		if rho == 0 {
			res.breakdown("bicgstab", "rho = r̂·r = 0")
			break
		}
		sp.MatVec(v, p)
		den := sp.Dot(rHat, v)
		if den == 0 {
			res.breakdown("bicgstab", "r̂·Ap = 0")
			break
		}
		alpha := rho / den
		sp.Copy(s, r) // s = r - alpha v
		sp.AXPY(-alpha, v, s)
		sp.MatVec(t, s)
		tt := sp.Dot(t, t)
		var omega float64
		if tt != 0 {
			omega = sp.Dot(t, s) / tt
		}
		sp.AXPY(alpha, p, x)
		sp.AXPY(omega, s, x)
		sp.Copy(r, s) // r = s - omega t
		sp.AXPY(-omega, t, r)
		nrm := math.Sqrt(sp.Dot(r, r))
		res.Iterations = it + 1
		res.Residuals = append(res.Residuals, nrm)
		if !res.residualOK("bicgstab", nrm) {
			break
		}
		if nrm < tol {
			res.Converged = true
			break
		}
		rhoNew := sp.Dot(rHat, r)
		if omega == 0 {
			res.breakdown("bicgstab", "omega = t·s/t·t = 0")
			break
		}
		beta := (rhoNew / rho) * (alpha / omega)
		sp.AXPY(-omega, v, p) // p = r + beta (p - omega v)
		sp.AXPBY(1, r, beta, p)
		rho = rhoNew
	}
	for _, w := range []V{r, rHat, p, v, s, t} {
		sp.Free(w)
	}
	return res.fail(sp.Err())
}

// GMRESOn solves A x = b by restarted GMRES(restart) on sp, starting
// from x = 0. The Krylov basis lives in sp; the small Hessenberg
// least-squares problem is solved on the host with Givens rotations,
// exactly like the SciPy implementation this is ported from.
//
// A cycle runs at most min(restart, maxIter) steps, and at least one:
// the first cycle stops at maxIter anyway. The basis and the Hessenberg
// columns are allocated as Arnoldi reaches them, so memory follows the
// steps actually run whatever restart a caller passes.
func GMRESOn[V any](sp Space[V], b V, restart, maxIter int, tol float64) *Outcome[V] {
	m := max(1, min(restart, maxIter))
	x, r, w := sp.Zeros(), sp.Zeros(), sp.Zeros()
	res := &Outcome[V]{X: x}
	basis := []V{sp.Zeros()}
	var h [][]float64 // h[k] is column k of the Hessenberg matrix, rows 0..k+1
	var cs, sn, g []float64

	for res.Iterations < maxIter && sp.Err() == nil {
		sp.MatVec(r, x) // r = b - A x
		sp.AXPBY(1, b, -1, r)
		beta := math.Sqrt(sp.Dot(r, r))
		if res.Iterations == 0 {
			res.Residuals = append(res.Residuals, beta)
		}
		if !res.residualOK("gmres", beta) {
			break
		}
		if beta < tol {
			res.Converged = true
			break
		}
		sp.Copy(basis[0], r)
		sp.Scale(1/beta, basis[0])
		g = append(g[:0], beta)

		k := 0
		for ; k < m && res.Iterations < maxIter && sp.Err() == nil; k++ {
			if k == len(h) {
				h = append(h, make([]float64, k+2))
				basis = append(basis, sp.Zeros())
			}
			hk := h[k]
			sp.MatVec(w, basis[k])
			for i := 0; i <= k; i++ { // modified Gram-Schmidt
				hk[i] = sp.Dot(w, basis[i])
				sp.AXPY(-hk[i], basis[i], w)
			}
			hk[k+1] = math.Sqrt(sp.Dot(w, w))
			if hk[k+1] != 0 {
				sp.Copy(basis[k+1], w)
				sp.Scale(1/hk[k+1], basis[k+1])
			}
			for i := 0; i < k; i++ { // apply the accumulated Givens rotations
				t := cs[i]*hk[i] + sn[i]*hk[i+1]
				hk[i+1] = -sn[i]*hk[i] + cs[i]*hk[i+1]
				hk[i] = t
			}
			denom := math.Hypot(hk[k], hk[k+1])
			if denom == 0 {
				res.breakdown("gmres", "Givens denominator = 0")
				k++
				break
			}
			cs = append(cs[:k], hk[k]/denom)
			sn = append(sn[:k], hk[k+1]/denom)
			hk[k] = denom
			g = append(g, -sn[k]*g[k])
			g[k] *= cs[k]

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
				y[i] -= h[j][i] * y[j]
			}
			y[i] /= h[i][i]
		}
		for i := 0; i < k; i++ {
			sp.AXPY(y[i], basis[i], x)
		}
		// A breakdown without an iteration-count advance would otherwise
		// respin the outer loop on the same data forever.
		if res.Converged || res.Err != nil {
			break
		}
	}
	for _, v := range basis {
		sp.Free(v)
	}
	sp.Free(r)
	sp.Free(w)
	return res.fail(sp.Err())
}

// solveFunc runs one Krylov method on runtime-backed arrays; restart is
// read by GMRES only.
type solveFunc = func(a core.SparseMatrix, b *cunumeric.Array, restart, maxIter int, tol float64) *Result

// noRestart adapts an entry point that has no restart length.
func noRestart(f func(core.SparseMatrix, *cunumeric.Array, int, float64) *Result) solveFunc {
	return func(a core.SparseMatrix, b *cunumeric.Array, _, maxIter int, tol float64) *Result {
		return f(a, b, maxIter, tol)
	}
}

// methods is the one table of solvers by name, shared by the solve
// service and cmd/solve, in the order MethodNames lists it.
var methods = []struct {
	name  string
	solve solveFunc
}{
	{"cg", noRestart(CG)},
	{"pcg", noRestart(PCGJacobi)},
	{"cgs", noRestart(CGS)},
	{"bicg", noRestart(BiCG)},
	{"bicgstab", noRestart(BiCGSTAB)},
	{"gmres", GMRES},
}

// MethodNames lists the names Lookup accepts, separated by '|'.
func MethodNames() string {
	names := make([]string, len(methods))
	for i, m := range methods {
		names[i] = m.name
	}
	return strings.Join(names, "|")
}

// Lookup returns the solver the table calls name (pcg is
// Jacobi-preconditioned CG), or an error listing MethodNames.
func Lookup(name string) (solveFunc, error) {
	for _, m := range methods {
		if m.name == name {
			return m.solve, nil
		}
	}
	return nil, fmt.Errorf("unknown solver %q (want %s)", name, MethodNames())
}
