package solvers

import (
	"repro/internal/core"
	"repro/internal/cunumeric"
)

// WeightedJacobi performs iters sweeps of the weighted Jacobi smoother
// x ← x + ω D⁻¹ (b − A x), the smoother of the paper's geometric
// multigrid benchmark (§6.1). dinv must hold the reciprocal diagonal.
func WeightedJacobi(a core.SparseMatrix, x, b, dinv *cunumeric.Array, omega float64, iters int) {
	rt := a.Runtime()
	r := cunumeric.Zeros(rt, b.Len())
	for k := 0; k < iters; k++ {
		a.SpMVInto(r, x)
		cunumeric.AXPBY(1, b, -1, r)  // r = b - Ax
		cunumeric.MulInto(r, r, dinv) // r = D^-1 r
		cunumeric.AXPY(omega, r, x)
	}
	r.Destroy()
}

// Injection builds the injection restriction operator R (n_c x n_f) for
// a 2-D grid of nx x nx fine points coarsened by 2 in each dimension:
// coarse point (I, J) samples fine point (2I, 2J). The prolongation is
// its transpose. This is the restriction operator the paper's GMG
// benchmark names.
func Injection(a core.SparseMatrix, nx int64) *core.CSR {
	cx := nx / 2
	nF := nx * nx
	nC := cx * cx
	indptr := make([]int64, nC+1)
	indices := make([]int64, nC)
	data := make([]float64, nC)
	for I := int64(0); I < cx; I++ {
		for J := int64(0); J < cx; J++ {
			row := I*cx + J
			indptr[row+1] = row + 1
			indices[row] = (2*I)*nx + 2*J
			data[row] = 1
		}
	}
	_ = nF
	return core.NewCSR(a.Runtime(), nC, nF, indptr, indices, data)
}

// Multigrid is a two-level geometric multigrid hierarchy for the 2-D
// Poisson operator: injection restriction, transpose prolongation, a
// Galerkin coarse operator A_c = R A P built with SpGEMM, and weighted
// Jacobi smoothing. It matches the structure of the paper's 300-line
// Python GMG solver.
type Multigrid struct {
	A      core.SparseMatrix
	R      *core.CSR // restriction (n_c x n_f)
	P      *core.CSR // prolongation (n_f x n_c)
	Ac     *core.CSR // coarse operator
	DinvF  *cunumeric.Array
	DinvC  *cunumeric.Array
	Omega  float64
	Sweeps int
	// Work vectors reused across cycles.
	rF, eF, rC, eC *cunumeric.Array
}

// NewMultigrid builds the two-level hierarchy for the Poisson operator a
// on an nx x nx grid. Any SparseMatrix works as the fine operator; the
// Galerkin product and diagonal extraction view it as CSR.
func NewMultigrid(a core.SparseMatrix, nx int64) *Multigrid {
	rt := a.Runtime()
	r := Injection(a, nx)
	p := r.Transpose()
	af, doneAf := core.AsCSR(a)
	// Scale prolongation so R*P = I (injection is already orthonormal
	// row-wise: each row of R has a single 1).
	ap := core.SpGEMM(af, p)
	ac := core.SpGEMM(r, ap)
	ap.Destroy()

	dF := af.Diagonal()
	doneAf()
	dC := ac.Diagonal()
	invert := func(d *cunumeric.Array) {
		one := cunumeric.Full(rt, d.Len(), 1)
		cunumeric.DivInto(d, one, d)
		one.Destroy()
	}
	invert(dF)
	invert(dC)

	return &Multigrid{
		A: a, R: r, P: p, Ac: ac,
		DinvF: dF, DinvC: dC,
		Omega: 2.0 / 3.0, Sweeps: 2,
		rF: cunumeric.Zeros(rt, a.Rows()),
		eF: cunumeric.Zeros(rt, a.Rows()),
		rC: cunumeric.Zeros(rt, ac.Rows()),
		eC: cunumeric.Zeros(rt, ac.Rows()),
	}
}

// Destroy releases the hierarchy's matrices and buffers.
func (mg *Multigrid) Destroy() {
	mg.R.Destroy()
	mg.P.Destroy()
	mg.Ac.Destroy()
	mg.DinvF.Destroy()
	mg.DinvC.Destroy()
	mg.rF.Destroy()
	mg.eF.Destroy()
	mg.rC.Destroy()
	mg.eC.Destroy()
}

// Cycle applies one two-level V-cycle to improve x for A x = b.
func (mg *Multigrid) Cycle(x, b *cunumeric.Array) { vcycle([]*Multigrid{mg}, mg.Omega, x, b) }

// PCG solves A x = b with conjugate gradient preconditioned by one
// multigrid V-cycle per iteration — the "two-level geometric multi-grid
// conjugate gradient solver" of §6.1.
func (mg *Multigrid) PCG(b *cunumeric.Array, maxIter int, tol float64) *Result {
	return cyclePCG(mg.A, mg.Cycle, b, maxIter, tol)
}

// vcycle applies one V-cycle over levels (finest first) to improve x
// for A x = b: pre-smooth, restrict the residual, correct on the next
// level — recursively, or at the coarsest with extra smoothing sweeps
// from zero — prolong the correction, and post-smooth.
func vcycle(levels []*Multigrid, omega float64, x, b *cunumeric.Array) {
	mg := levels[0]
	WeightedJacobi(mg.A, x, b, mg.DinvF, omega, mg.Sweeps)
	// rF = b - A x
	mg.A.SpMVInto(mg.rF, x)
	cunumeric.AXPBY(1, b, -1, mg.rF)
	// rC = R rF
	mg.R.SpMVInto(mg.rC, mg.rF)
	mg.eC.Fill(0)
	if len(levels) > 1 {
		vcycle(levels[1:], omega, mg.eC, mg.rC)
	} else {
		WeightedJacobi(mg.Ac, mg.eC, mg.rC, mg.DinvC, omega, 4*mg.Sweeps)
	}
	// x += P eC
	mg.P.SpMVInto(mg.eF, mg.eC)
	cunumeric.AXPY(1, mg.eF, x)
	WeightedJacobi(mg.A, x, b, mg.DinvF, omega, mg.Sweeps)
}

// cyclePCG is PCGOn preconditioned by one V-cycle from a zero guess.
func cyclePCG(a core.SparseMatrix, cycle func(x, b *cunumeric.Array), b *cunumeric.Array, maxIter int, tol float64) *Result {
	return PCGOn(regionSpace{a}, "pcg", b, func(z, r *cunumeric.Array) {
		z.Fill(0)
		cycle(z, r)
	}, maxIter, tol)
}

// MultilevelMG extends the paper's two-level hierarchy to an arbitrary
// depth: each level coarsens the grid by 2 via injection, builds the
// Galerkin operator R·A·P with SpGEMM, and recursion bottoms out in
// extra smoothing sweeps. The paper's benchmark is two-level; deeper
// hierarchies are the natural extension and reuse every ingredient.
type MultilevelMG struct {
	levels []*Multigrid
	Omega  float64
}

// NewMultilevelMG builds a depth-level hierarchy for the Poisson
// operator on an nx x nx grid; nx must be divisible by 2^(depth-1).
func NewMultilevelMG(a core.SparseMatrix, nx int64, depth int) *MultilevelMG {
	if depth < 2 {
		depth = 2
	}
	ml := &MultilevelMG{Omega: 2.0 / 3.0}
	cur, curNx := a, nx
	for l := 0; l < depth-1; l++ {
		if curNx%2 != 0 {
			break
		}
		mg := NewMultigrid(cur, curNx)
		ml.levels = append(ml.levels, mg)
		cur, curNx = mg.Ac, curNx/2
	}
	return ml
}

// Destroy releases all levels.
func (ml *MultilevelMG) Destroy() {
	for _, mg := range ml.levels {
		mg.Destroy()
	}
}

// Depth returns the number of grids in the hierarchy (fine + coarse).
func (ml *MultilevelMG) Depth() int { return len(ml.levels) + 1 }

// Cycle applies one V-cycle down the whole hierarchy to improve x.
func (ml *MultilevelMG) Cycle(x, b *cunumeric.Array) { vcycle(ml.levels, ml.Omega, x, b) }

// PCG solves A x = b with CG preconditioned by one multi-level V-cycle.
func (ml *MultilevelMG) PCG(b *cunumeric.Array, maxIter int, tol float64) *Result {
	return cyclePCG(ml.levels[0].A, ml.Cycle, b, maxIter, tol)
}
