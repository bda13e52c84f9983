package solvers

import (
	"math"

	"repro/internal/core"
	"repro/internal/cunumeric"
)

// Space is the vector backend a Krylov loop is written against: the
// operator A applied to vectors of type V, plus the handful of BLAS-1
// kernels the recurrences use. PCGOn and PowerOn are each written once
// over it and run wherever a Space exists — on runtime-backed arrays
// here (regionSpace), on host slices with a scatter/gather operator in
// internal/shard.
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
// APIs. Err is the runtime's sticky error, then its cancellation.
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
func (s regionSpace) Err() error                              { return streamErr(s.a.Runtime()) }

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
