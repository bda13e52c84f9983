package core

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/cunumeric"
	"repro/internal/distal"
	"repro/internal/legion"
	"repro/internal/machine"
)

// kernelTarget maps the runtime's processor kind to the DISTAL variant
// to dispatch — the "processor varieties" layer of composability: every
// operation must have a variant for the kind the program runs on, or
// data would thrash back to another memory (§1).
func kernelTarget(rt *legion.Runtime) distal.Target {
	if rt.ProcKind() == machine.GPU {
		return distal.GPUThread
	}
	return distal.CPUThread
}

// planKernel resolves (op, format, target) in the shared registry: one
// kernel per slot (§5.1).
func planKernel(rt *legion.Runtime, op string, format distal.Format) (*distal.Kernel, bool) {
	return distal.Standard.Lookup(op, format, kernelTarget(rt))
}

// mustPlanKernel is planKernel that panics on a missing variant.
func mustPlanKernel(rt *legion.Runtime, op string, format distal.Format) *distal.Kernel {
	k, ok := planKernel(rt, op, format)
	if !ok {
		panic(fmt.Sprintf("core: no kernel variant for %s/%s/%v", op, format, kernelTarget(rt)))
	}
	return k
}

// spmvLaunch is the one SpMV launch of every format: it packs the
// operands in the spec's layout, derives the partitions from the spec's
// constraint, and dispatches into the DISTAL registry keyed on (op,
// format, target).
func spmvLaunch(a SparseMatrix, y, x *cunumeric.Array) {
	rows, cols := a.Shape()
	if x.Len() != cols || y.Len() != rows {
		panic(fmt.Sprintf("core: SpMV shape mismatch: %v with x[%d] -> y[%d]", a, x.Len(), y.Len()))
	}
	spec := a.Spec()
	rt := a.Runtime()
	k := mustPlanKernel(rt, "spmv", spec.Distal)
	if spec.scatter {
		y.Fill(0)
	}
	meta := a.Meta()
	task := constraint.NewTask(rt, spec.TaskName, func(tc *legion.TaskContext) {
		bounds := tc.Bounds(spec.boundsSlot)
		if bounds.Empty() {
			return
		}
		s := getSpMVScratch()
		spec.bind(s, tc, cols, meta)
		s.args.Lo, s.args.Hi = bounds.Lo, bounds.Hi
		if spec.scatter {
			s.args.Accum = func(idx int64, v float64) { tc.ReduceAdd(0, idx, v) }
		}
		k.Exec(&s.args)
		s.release()
	})
	o := spmvOperands{m: a, regions: a.Pack(), y: y, x: x}
	if spec.scatter {
		o.vy = task.AddReduction(y.Region())
	} else {
		o.vy = task.AddOutput(y.Region())
	}
	for i, r := range o.regions {
		o.pack[i] = task.AddInput(r)
	}
	o.vx = task.AddInput(x.Region())
	spec.constrain(task, o)
	task.SetOpClass(machine.SparseIter)
	task.Execute()
}

// SpMVInto computes y = A @ x.
func (a *CSR) SpMVInto(y, x *cunumeric.Array) { spmvLaunch(a, y, x) }

// SpMV allocates and returns y = A @ x (the `A @ x` of Figure 1).
func (a *CSR) SpMV(x *cunumeric.Array) *cunumeric.Array {
	y := cunumeric.Zeros(a.rt, a.rows)
	a.SpMVInto(y, x)
	return y
}

// SpMVInto computes y = A @ x.
func (a *CSC) SpMVInto(y, x *cunumeric.Array) { spmvLaunch(a, y, x) }

// SpMV allocates and returns y = A @ x.
func (a *CSC) SpMV(x *cunumeric.Array) *cunumeric.Array {
	y := cunumeric.Zeros(a.rt, a.rows)
	a.SpMVInto(y, x)
	return y
}

// SpMVInto computes y = A @ x.
func (a *COO) SpMVInto(y, x *cunumeric.Array) { spmvLaunch(a, y, x) }

// SpMV allocates and returns y = A @ x.
func (a *COO) SpMV(x *cunumeric.Array) *cunumeric.Array {
	y := cunumeric.Zeros(a.rt, a.rows)
	a.SpMVInto(y, x)
	return y
}

// SpMVInto computes y = A @ x.
func (a *DIA) SpMVInto(y, x *cunumeric.Array) { spmvLaunch(a, y, x) }

// SpMV allocates and returns y = A @ x.
func (a *DIA) SpMV(x *cunumeric.Array) *cunumeric.Array {
	y := cunumeric.Zeros(a.rt, a.rows)
	a.SpMVInto(y, x)
	return y
}

// SpMMInto computes Y = A @ X for dense X, Y using the DISTAL SpMM
// kernel. Y and A are row-partitioned together; X's partition is the
// image of A's coordinates at the width of X's rows.
func (a *CSR) SpMMInto(y, x *cunumeric.Matrix) {
	if x.Rows() != a.cols || y.Rows() != a.rows || x.Cols() != y.Cols() {
		panic(fmt.Sprintf("core: SpMM shape mismatch: %v @ %dx%d -> %dx%d",
			a, x.Rows(), x.Cols(), y.Rows(), y.Cols()))
	}
	rt := a.rt
	colors := rt.LaunchDomain()
	k := mustPlanKernel(rt, "spmm", distal.CSR)
	kk := x.Cols()
	task := constraint.NewTask(rt, "sparse.spmm", func(tc *legion.TaskContext) {
		bounds := tc.Bounds(1) // pos subspace = row block
		if bounds.Empty() {
			return
		}
		args := &distal.Args{
			Ops: map[string]*distal.Operand{
				"Y": {Vals: tc.Float64(0), Stride: kk},
				"A": {Pos: tc.Rects(1), Crd: tc.Int64(2), Vals: tc.Float64(3)},
				"X": {Vals: tc.Float64(4), Stride: kk},
			},
			Lo: bounds.Lo, Hi: bounds.Hi,
		}
		k.Exec(args)
	})
	vy := task.AddOutput(y.Region())
	vpos := task.AddInput(a.pos)
	vcrd := task.AddInput(a.crd)
	vvals := task.AddInput(a.vals)
	vx := task.AddInput(x.Region())
	task.UsePartition(vy, y.RowPartition(colors))
	task.UsePartition(vpos, rt.BlockPartition(a.pos, colors))
	task.Image(vpos, vcrd, vvals)
	task.ImageBlocks(vcrd, kk, vx) // the rows of X the row block's columns name
	task.SetWorkSource(vcrd, kk)   // nnz × the dense width
	task.SetOpClass(machine.SparseIter)
	task.Execute()
}

// SpMM allocates and returns Y = A @ X.
func (a *CSR) SpMM(x *cunumeric.Matrix) *cunumeric.Matrix {
	y := cunumeric.ZerosMatrix(a.rt, a.rows, x.Cols())
	a.SpMMInto(y, x)
	return y
}

// SDDMM computes R = A ⊙ (B @ Cᵀ): the sampled dense-dense matrix
// multiplication generated with DISTAL that §6.2 credits for the matrix
// factorization workload, avoiding materialization of the dense product.
// R shares A's sparsity pattern (its pos and crd regions are reused).
func (a *CSR) SDDMM(b, c *cunumeric.Matrix) *CSR {
	if b.Rows() != a.rows || c.Rows() != a.cols || b.Cols() != c.Cols() {
		panic(fmt.Sprintf("core: SDDMM shape mismatch: %v ⊙ (%dx%d @ (%dx%d)ᵀ)",
			a, b.Rows(), b.Cols(), c.Rows(), c.Cols()))
	}
	rt := a.rt
	colors := rt.LaunchDomain()
	out := &CSR{rt: rt, rows: a.rows, cols: a.cols, pos: a.pos, crd: a.crd,
		vals: rt.CreateRegion("R.vals", a.NNZ(), legion.Float64)}
	k := mustPlanKernel(rt, "sddmm", distal.CSR)
	kk := b.Cols()
	task := constraint.NewTask(rt, "sparse.sddmm", func(tc *legion.TaskContext) {
		bounds := tc.Bounds(1)
		if bounds.Empty() {
			return
		}
		args := &distal.Args{
			Ops: map[string]*distal.Operand{
				"R": {Vals: tc.Float64(0)},
				"A": {Pos: tc.Rects(1), Crd: tc.Int64(2), Vals: tc.Float64(3)},
				"B": {Vals: tc.Float64(4), Stride: kk},
				"C": {Vals: tc.Float64(5), Stride: kk},
			},
			Lo: bounds.Lo, Hi: bounds.Hi,
		}
		k.Exec(args)
	})
	vr := task.AddOutput(out.vals)
	vpos := task.AddInput(a.pos)
	vcrd := task.AddInput(a.crd)
	vvals := task.AddInput(a.vals)
	vb := task.AddInput(b.Region())
	vc := task.AddInput(c.Region())
	task.UsePartition(vpos, rt.BlockPartition(a.pos, colors))
	task.Image(vpos, vcrd, vvals)
	task.Image(vpos, vr) // R.vals shares A's layout, so the same image applies
	task.UsePartition(vb, b.RowPartition(colors))
	task.ImageBlocks(vcrd, kk, vc) // the rows of C the row block's columns name
	task.SetWorkSource(vcrd, kk)
	task.SetOpClass(machine.Compute)
	task.Execute()
	return out
}

// SumAxis1 returns the per-row sums (scipy A.sum(axis=1)) via the
// DISTAL row-reduction kernel.
func (a *CSR) SumAxis1() *cunumeric.Array {
	out := cunumeric.Zeros(a.rt, a.rows)
	k := mustPlanKernel(a.rt, "row_sum", distal.CSR)
	task := constraint.NewTask(a.rt, "sparse.row_sum", func(tc *legion.TaskContext) {
		bounds := tc.Bounds(0)
		if bounds.Empty() {
			return
		}
		s := getSpMVScratch()
		s.y.Vals = tc.Float64(0)
		s.A.Pos, s.A.Vals = tc.Rects(1), tc.Float64(2)
		s.args.Lo, s.args.Hi = bounds.Lo, bounds.Hi
		k.Exec(&s.args)
		s.release()
	})
	vy := task.AddOutput(out.Region())
	vpos := task.AddInput(a.pos)
	vvals := task.AddInput(a.vals)
	task.Align(vy, vpos)
	task.Image(vpos, vvals)
	task.SetWorkSource(vvals, 1) // the row block's nonzeros
	task.SetOpClass(machine.SparseIter)
	task.Execute()
	return out
}

// SpMVRowSumInto computes y = A @ x and s = A.sum(axis=1) in ONE index
// launch: both kernels iterate the same row tiles of A, so the composed
// DISTAL loop nest (ComposeKernels) runs them back to back over each
// point's tile, paying one launch's overhead and one pass over pos
// instead of two. Jacobi-style smoothers that need the matrix-vector
// product and the row sums of the same operator use this to halve their
// launch count.
func (a *CSR) SpMVRowSumInto(y, s, x *cunumeric.Array) {
	if x.Len() != a.cols || y.Len() != a.rows || s.Len() != a.rows {
		panic(fmt.Sprintf("core: SpMVRowSum shape mismatch: %v with x[%d] -> y[%d], s[%d]",
			a, x.Len(), y.Len(), s.Len()))
	}
	fused := distal.ComposeKernels("spmv+row_sum",
		distal.Stage{K: mustPlanKernel(a.rt, "spmv", distal.CSR)},
		distal.Stage{K: mustPlanKernel(a.rt, "row_sum", distal.CSR),
			Bind: func(ar *distal.Args) *distal.Args {
				// row_sum writes its "y" — rebind it to the s operand.
				return &distal.Args{Ops: map[string]*distal.Operand{
					"y": ar.Ops["s"], "A": ar.Ops["A"],
				}, Lo: ar.Lo, Hi: ar.Hi}
			}},
	)
	task := constraint.NewTask(a.rt, "sparse.spmv_rowsum", func(tc *legion.TaskContext) {
		bounds := tc.Bounds(0)
		if bounds.Empty() {
			return
		}
		args := &distal.Args{
			Ops: map[string]*distal.Operand{
				"y": {Vals: tc.Float64(0)},
				"s": {Vals: tc.Float64(1)},
				"A": {Pos: tc.Rects(2), Crd: tc.Int64(3), Vals: tc.Float64(4)},
				"x": {Vals: tc.Float64(5)},
			},
			Lo: bounds.Lo, Hi: bounds.Hi,
		}
		fused.Exec(args)
	})
	vy := task.AddOutput(y.Region())
	vs := task.AddOutput(s.Region())
	vpos := task.AddInput(a.pos)
	vcrd := task.AddInput(a.crd)
	vvals := task.AddInput(a.vals)
	vx := task.AddInput(x.Region())
	task.Align(vy, vpos)
	task.Align(vs, vpos)
	task.Image(vpos, vcrd, vvals)
	task.Image(vcrd, vx)
	task.SetWorkSource(vcrd, 2) // both stages visit every nonzero
	task.SetOpClass(machine.SparseIter)
	task.Execute()
}

// SumAxis0 returns the per-column sums (scipy A.sum(axis=0)): a
// hand-written scatter over the row blocks reducing into the output
// through the aliased image of crd (§5.3).
func (a *CSR) SumAxis0() *cunumeric.Array {
	out := cunumeric.Zeros(a.rt, a.cols)
	task := constraint.NewTask(a.rt, "sparse.col_sum", func(tc *legion.TaskContext) {
		pos, vals := tc.Rects(1), tc.Float64(3)
		crd := tc.Int64(2)
		for _, r := range tc.Subspace(1).Rects() {
			for _, p := range pos[r.Lo : r.Hi+1] {
				for k := p.Lo; k <= p.Hi; k++ {
					tc.ReduceAdd(0, crd[k], vals[k])
				}
			}
		}
	})
	vout := task.AddReduction(out.Region())
	vpos := task.AddInput(a.pos)
	vcrd := task.AddInput(a.crd)
	vvals := task.AddInput(a.vals)
	task.Image(vpos, vcrd, vvals)
	task.Image(vcrd, vout)
	task.SetWorkSource(vcrd, 1)
	task.SetOpClass(machine.SparseIter)
	task.Execute()
	return out
}

// Diagonal extracts the main diagonal of a square matrix
// (scipy A.diagonal()).
func (a *CSR) Diagonal() *cunumeric.Array {
	if a.rows != a.cols {
		panic("core: Diagonal requires a square matrix")
	}
	out := cunumeric.Zeros(a.rt, a.rows)
	task := constraint.NewTask(a.rt, "sparse.diag", func(tc *legion.TaskContext) {
		outv, pos, crd, vals := tc.Float64(0), tc.Rects(1), tc.Int64(2), tc.Float64(3)
		for _, r := range tc.Subspace(0).Rects() {
			out := outv[r.Lo : r.Hi+1]
			for k, p := range pos[r.Lo : r.Hi+1][:len(out)] {
				i := r.Lo + int64(k)
				var d float64
				for e := p.Lo; e <= p.Hi; e++ {
					if crd[e] == i {
						d += vals[e]
					}
				}
				out[k] = d
			}
		}
	})
	vout := task.AddOutput(out.Region())
	vpos := task.AddInput(a.pos)
	vcrd := task.AddInput(a.crd)
	vvals := task.AddInput(a.vals)
	task.Align(vout, vpos)
	task.Image(vpos, vcrd, vvals)
	task.SetOpClass(machine.SparseIter)
	task.Execute()
	return out
}

// Scale multiplies every stored value by alpha in place — a ported,
// non-zero-preserving element-wise op implemented directly with
// cuNumeric on the values array (§5.2).
func (a *CSR) Scale(alpha float64) { a.ValsArray().Scale(alpha) }
