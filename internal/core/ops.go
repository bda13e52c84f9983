package core

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/cunumeric"
	"repro/internal/distal"
	"repro/internal/geometry"
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

// spmvLaunch is the single format-generic launch planner every SpMV
// goes through: it packs the operands in the spec's layout, derives the
// partitions from the spec's distribution constraint, and dispatches
// into the DISTAL registry keyed on (op, format, target). What used to
// be one hand-written copy of this recipe per format is now data in
// FormatSpec.
func spmvLaunch(a SparseMatrix, y, x *cunumeric.Array) {
	rows, cols := a.Shape()
	if x.Len() != cols || y.Len() != rows {
		panic(fmt.Sprintf("core: SpMV shape mismatch: %v with x[%d] -> y[%d]", a, x.Len(), y.Len()))
	}
	spec := a.Spec()
	rt := a.Runtime()
	k, ok := planKernel(rt, "spmv", spec.Distal)
	if !ok {
		// No compiled variant for this (format, target): fall back
		// through a CSR conversion, paying the format-conversion cost
		// the paper's third composition layer warns about (§1).
		c, done := AsCSR(a)
		defer done()
		spmvLaunch(c, y, x)
		return
	}
	if spec.scatter {
		y.Fill(0)
	}
	task := constraint.NewTask(rt, spec.TaskName, func(tc *legion.TaskContext) {
		bounds := tc.Bounds(spec.boundsSlot)
		if bounds.Empty() {
			return
		}
		s := getSpMVScratch()
		spec.bind(a, s, tc)
		s.args.Lo, s.args.Hi = bounds.Lo, bounds.Hi
		if spec.scatter {
			s.args.Accum = func(idx int64, v float64) { tc.ReduceAdd(0, idx, v) }
		}
		k.Exec(&s.args)
		s.release()
	})
	var vy constraint.Var
	if spec.scatter {
		vy = task.AddReduction(y.Region())
	} else {
		vy = task.AddOutput(y.Region())
	}
	regions := a.Pack()
	pack := make([]constraint.Var, len(regions))
	for i, r := range regions {
		pack[i] = task.AddInput(r)
	}
	vx := task.AddInput(x.Region())
	spec.constrain(task, a, vy, vx, pack, y, x)
	task.SetOpClass(machine.SparseIter)
	task.Execute()
}

// SpMVInto computes y = A @ x through the generic planner with CSR's
// Figure 4 constraints: align(y, pos), image(pos, {crd, vals}),
// image(crd, x).
func (a *CSR) SpMVInto(y, x *cunumeric.Array) { spmvLaunch(a, y, x) }

// SpMV allocates and returns y = A @ x (the `A @ x` of Figure 1).
func (a *CSR) SpMV(x *cunumeric.Array) *cunumeric.Array {
	y := cunumeric.Zeros(a.rt, a.rows)
	a.SpMVInto(y, x)
	return y
}

// SpMVInto computes y = A @ x for a CSC matrix: the generated kernel
// iterates columns and scatters into y, so y is a reduction operand
// whose partition is the (aliased) image of crd.
func (a *CSC) SpMVInto(y, x *cunumeric.Array) { spmvLaunch(a, y, x) }

// SpMV allocates and returns y = A @ x.
func (a *CSC) SpMV(x *cunumeric.Array) *cunumeric.Array {
	y := cunumeric.Zeros(a.rt, a.rows)
	a.SpMVInto(y, x)
	return y
}

// SpMVInto computes y = A @ x for a COO matrix by scattering each
// stored entry: the nnz space is block-partitioned, x's partition is the
// image of the col region, and y's the (aliased) image of the row
// region.
func (a *COO) SpMVInto(y, x *cunumeric.Array) { spmvLaunch(a, y, x) }

// SpMV allocates and returns y = A @ x.
func (a *COO) SpMV(x *cunumeric.Array) *cunumeric.Array {
	y := cunumeric.Zeros(a.rt, a.rows)
	a.SpMVInto(y, x)
	return y
}

// SpMVOwnerInto computes y = A @ x with the owner-computes strategy:
// instead of block-partitioning the entries and scattering with
// reductions, the entries are partitioned by the *preimage* of y's
// tiling through the row region [33], so every point task writes only
// its own rows — no reduction privilege, no atomics, at the price of a
// potentially imbalanced entry distribution. This is the strategy an
// explicitly-parallel library (PETSc assembly) uses, expressed with
// dependent partitioning.
func (a *COO) SpMVOwnerInto(y, x *cunumeric.Array) {
	if x.Len() != a.cols || y.Len() != a.rows {
		panic(fmt.Sprintf("core: COO SpMV shape mismatch: %v with x[%d] -> y[%d]", a, x.Len(), y.Len()))
	}
	rt := a.rt
	colors := rt.LaunchDomain()
	yPart := rt.BlockPartition(y.Region(), colors)
	entryPart := rt.PreimageCoord(a.row, yPart)
	colPart := rt.AlignedPartition(entryPart, a.col)
	valsPart := rt.AlignedPartition(entryPart, a.vals)
	xPart := rt.ImageCoord(a.col, colPart, x.Region())

	task := constraint.NewTask(rt, "sparse.spmv_coo_owner", func(tc *legion.TaskContext) {
		yv, rows, cols, vals, xv := tc.Float64(0), tc.Int64(1), tc.Int64(2), tc.Float64(3), tc.Float64(4)
		tc.Subspace(0).Each(func(i int64) { yv[i] = 0 })
		tc.Subspace(1).Each(func(k int64) { yv[rows[k]] += vals[k] * xv[cols[k]] })
	})
	vy := task.AddOutput(y.Region())
	vrow := task.AddInput(a.row)
	vcol := task.AddInput(a.col)
	vvals := task.AddInput(a.vals)
	vx := task.AddInput(x.Region())
	task.UsePartition(vy, yPart)
	task.UsePartition(vrow, entryPart)
	task.UsePartition(vcol, colPart)
	task.UsePartition(vvals, valsPart)
	task.UsePartition(vx, xPart)
	task.SetWorkSource(vrow, 1) // the entries this point owns
	task.SetOpClass(machine.SparseIter)
	task.Execute()
}

// SpMVInto computes y = A @ x for a DIA matrix. The x partition is
// computed explicitly as the union of the row block shifted by every
// stored offset (a fixed-width halo), and the data partition selects the
// matching slice of each diagonal.
func (a *DIA) SpMVInto(y, x *cunumeric.Array) { spmvLaunch(a, y, x) }

// SpMV allocates and returns y = A @ x.
func (a *DIA) SpMV(x *cunumeric.Array) *cunumeric.Array {
	y := cunumeric.Zeros(a.rt, a.rows)
	a.SpMVInto(y, x)
	return y
}

// denseRowImage computes, per color, the element intervals of a
// row-major (n x stride) dense region referenced by the columns stored
// in this matrix's crd for that color's row block — the generalization
// of image(crd, x) to matrix operands, used by SpMM and SDDMM.
// Results are cached per (colors, stride) while crd is unchanged.
func (a *CSR) denseRowImage(dst *legion.Region, stride int64, colors int) *legion.Partition {
	a.imgMu.Lock()
	defer a.imgMu.Unlock()
	key := rowImageKey{dst: dst.ID(), colors: colors, stride: stride, version: a.crd.Version()}
	if p, ok := a.rowImages[key]; ok {
		return p
	}
	a.rt.Fence()
	pos, crd := a.pos.Rects(), a.crd.Int64s()
	tiles := geometry.Tile(geometry.NewRect(0, a.rows-1), colors)
	sets := make([]geometry.IntervalSet, colors)
	for c, tile := range tiles {
		var cols []int64
		for i := tile.Lo; i <= tile.Hi && !tile.Empty(); i++ {
			for k := pos[i].Lo; k <= pos[i].Hi; k++ {
				cols = append(cols, crd[k])
			}
		}
		var set geometry.IntervalSet
		for _, r := range geometry.FromPoints(cols).Rects() {
			set = set.UnionRect(geometry.NewRect(r.Lo*stride, r.Hi*stride+stride-1))
		}
		sets[c] = set
	}
	p := a.rt.PartitionBySets(dst, sets)
	if a.rowImages == nil {
		a.rowImages = map[rowImageKey]*legion.Partition{}
	}
	a.rowImages[key] = p
	return p
}

type rowImageKey struct {
	dst     legion.RegionID
	colors  int
	stride  int64
	version int64
}

// SpMMInto computes Y = A @ X for dense X, Y using the DISTAL SpMM
// kernel. Y and A are row-partitioned together; X's partition is the
// per-color row image of A's coordinates.
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
	task.UsePartition(vx, a.denseRowImage(x.Region(), kk, colors))
	task.SetWorkSource(vcrd, kk) // nnz × the dense width
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
	task.UsePartition(vc, a.denseRowImage(c.Region(), kk, colors))
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
		tc.Subspace(1).Each(func(i int64) {
			for k := pos[i].Lo; k <= pos[i].Hi; k++ {
				tc.ReduceAdd(0, crd[k], vals[k])
			}
		})
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
		tc.Subspace(0).Each(func(i int64) {
			var d float64
			for k := pos[i].Lo; k <= pos[i].Hi; k++ {
				if crd[k] == i {
					d += vals[k]
				}
			}
			outv[i] = d
		})
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
