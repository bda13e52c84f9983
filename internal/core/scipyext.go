package core

import (
	"fmt"
	"math"

	"repro/internal/constraint"
	"repro/internal/cunumeric"
	"repro/internal/legion"
)

// This file implements the further SciPy Sparse surface §5.4 lays out a
// path to: slicing operators, stacking, triangular extraction, cleanup
// operations, and element-wise unary math. Structural passes run on the
// host (the §5.3 hand-written class); value-only transformations are
// distributed cuNumeric operations on the values array (the §5.2 ported
// class).

// GetRow returns row i as a dense host slice (scipy A.getrow(i),
// densified).
func (a *CSR) GetRow(i int64) []float64 {
	if i < 0 || i >= a.rows {
		panic(fmt.Sprintf("core: GetRow(%d) out of range [0,%d)", i, a.rows))
	}
	pos, crd, vals := a.hostCSR()
	out := make([]float64, a.cols)
	for k := pos[i].Lo; k <= pos[i].Hi; k++ {
		out[crd[k]] += vals[k]
	}
	return out
}

// GetCol returns column j as a dense host slice (scipy A.getcol(j)).
func (a *CSR) GetCol(j int64) []float64 {
	if j < 0 || j >= a.cols {
		panic(fmt.Sprintf("core: GetCol(%d) out of range [0,%d)", j, a.cols))
	}
	pos, crd, vals := a.hostCSR()
	out := make([]float64, a.rows)
	for i := int64(0); i < a.rows; i++ {
		for k := pos[i].Lo; k <= pos[i].Hi; k++ {
			if crd[k] == j {
				out[i] += vals[k]
			}
		}
	}
	return out
}

// At returns element (i, j) (scipy A[i, j]).
func (a *CSR) At(i, j int64) float64 {
	if i < 0 || i >= a.rows || j < 0 || j >= a.cols {
		panic(fmt.Sprintf("core: At(%d,%d) out of range %v", i, j, a))
	}
	a.rt.Fence()
	pos, crd, vals := a.pos.Rects(), a.crd.Int64s(), a.vals.Float64s()
	var out float64
	for k := pos[i].Lo; k <= pos[i].Hi; k++ {
		if crd[k] == j {
			out += vals[k]
		}
	}
	return out
}

// SliceRows returns the sub-matrix of rows [lo, hi) (scipy A[lo:hi]).
func (a *CSR) SliceRows(lo, hi int64) *CSR {
	if lo < 0 || hi > a.rows || lo > hi {
		panic(fmt.Sprintf("core: SliceRows[%d:%d] out of range [0,%d]", lo, hi, a.rows))
	}
	pos, crd, vals := a.hostCSR()
	var r, c []int64
	var v []float64
	for i := lo; i < hi; i++ {
		for k := pos[i].Lo; k <= pos[i].Hi; k++ {
			r = append(r, i-lo)
			c = append(c, crd[k])
			v = append(v, vals[k])
		}
	}
	return buildCSR(a.rt, hi-lo, a.cols, r, c, v)
}

// VStack stacks matrices vertically (scipy.sparse.vstack).
func VStack(mats ...*CSR) *CSR {
	if len(mats) == 0 {
		panic("core: VStack of nothing")
	}
	rt := mats[0].rt
	cols := mats[0].cols
	var r, c []int64
	var v []float64
	var rows int64
	for _, m := range mats {
		if m.cols != cols {
			panic("core: VStack column mismatch")
		}
		pos, crd, vals := m.hostCSR()
		for i := int64(0); i < m.rows; i++ {
			for k := pos[i].Lo; k <= pos[i].Hi; k++ {
				r = append(r, rows+i)
				c = append(c, crd[k])
				v = append(v, vals[k])
			}
		}
		rows += m.rows
	}
	return buildCSR(rt, rows, cols, r, c, v)
}

// HStack stacks matrices horizontally (scipy.sparse.hstack).
func HStack(mats ...*CSR) *CSR {
	if len(mats) == 0 {
		panic("core: HStack of nothing")
	}
	rt := mats[0].rt
	rows := mats[0].rows
	var r, c []int64
	var v []float64
	var cols int64
	for _, m := range mats {
		if m.rows != rows {
			panic("core: HStack row mismatch")
		}
		pos, crd, vals := m.hostCSR()
		for i := int64(0); i < rows; i++ {
			for k := pos[i].Lo; k <= pos[i].Hi; k++ {
				r = append(r, i)
				c = append(c, cols+crd[k])
				v = append(v, vals[k])
			}
		}
		cols += m.cols
	}
	rr, cc, vv := canonicalizeCOO(r, c, v)
	return buildCSR(rt, rows, cols, rr, cc, vv)
}

// Tril returns the lower triangle at or below diagonal k
// (scipy.sparse.tril).
func (a *CSR) Tril(k int64) *CSR { return a.filterTriangle(k, true) }

// Triu returns the upper triangle at or above diagonal k
// (scipy.sparse.triu).
func (a *CSR) Triu(k int64) *CSR { return a.filterTriangle(k, false) }

func (a *CSR) filterTriangle(k int64, lower bool) *CSR {
	pos, crd, vals := a.hostCSR()
	var r, c []int64
	var v []float64
	for i := int64(0); i < a.rows; i++ {
		for p := pos[i].Lo; p <= pos[i].Hi; p++ {
			j := crd[p]
			keep := j-i <= k
			if !lower {
				keep = j-i >= k
			}
			if keep {
				r = append(r, i)
				c = append(c, j)
				v = append(v, vals[p])
			}
		}
	}
	return buildCSR(a.rt, a.rows, a.cols, r, c, v)
}

// EliminateZeros returns a copy without explicitly stored zeros
// (scipy .eliminate_zeros()).
func (a *CSR) EliminateZeros() *CSR {
	pos, crd, vals := a.hostCSR()
	var r, c []int64
	var v []float64
	for i := int64(0); i < a.rows; i++ {
		for k := pos[i].Lo; k <= pos[i].Hi; k++ {
			if vals[k] != 0 {
				r = append(r, i)
				c = append(c, crd[k])
				v = append(v, vals[k])
			}
		}
	}
	return buildCSR(a.rt, a.rows, a.cols, r, c, v)
}

// NNZPerRow returns the stored-entry count of each row as a distributed
// array (scipy getnnz(axis=1)); it is a pure function of the pos region,
// computed by a distributed task aligned with pos.
func (a *CSR) NNZPerRow() *cunumeric.Array {
	out := cunumeric.Zeros(a.rt, a.rows)
	task := constraint.NewTask(a.rt, "sparse.nnz_per_row", func(tc *legion.TaskContext) {
		d, pos := tc.Float64(0), tc.Rects(1)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			for k, p := range pos[r.Lo : r.Hi+1][:len(dd)] {
				dd[k] = float64(p.Size())
			}
		}
	})
	vo := task.AddOutput(out.Region())
	vp := task.AddInput(a.pos)
	task.Align(vo, vp)
	task.Execute()
	return out
}

// applyUnary maps f over the stored values with a distributed task.
func applyUnary(a *CSR, f func(float64) float64) {
	task := constraint.NewTask(a.rt, "sparse.unary", func(tc *legion.TaskContext) {
		d := tc.Float64(0)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			for k, v := range dd {
				dd[k] = f(v)
			}
		}
	})
	task.AddInOut(a.vals)
	task.Execute()
}

// Abs replaces every stored value with its absolute value — a ported
// non-zero-preserving unary op on the values array (§5.2).
func (a *CSR) Abs() { applyUnary(a, math.Abs) }

// Power raises every stored value to the given power (scipy A.power(p))
// for p > 0, which preserves the sparsity pattern.
func (a *CSR) Power(p float64) {
	if p <= 0 {
		panic("core: Power requires p > 0 to preserve sparsity")
	}
	applyUnary(a, func(x float64) float64 { return math.Pow(x, p) })
}

// MaxAbsValue returns the largest absolute stored value (used for
// norm-inf style estimates).
func (a *CSR) MaxAbsValue() float64 {
	return cunumeric.MaxAbs(a.ValsArray())
}

// Norm1 returns the maximum absolute column sum (scipy.sparse.linalg
// onenormest's exact small-matrix value).
func (a *CSR) Norm1() float64 {
	abs := a.Copy()
	abs.Abs()
	sums := abs.SumAxis0()
	defer abs.Destroy()
	defer sums.Destroy()
	return cunumeric.MaxAbs(sums)
}

// NormInf returns the maximum absolute row sum.
func (a *CSR) NormInf() float64 {
	abs := a.Copy()
	abs.Abs()
	sums := abs.SumAxis1()
	defer abs.Destroy()
	defer sums.Destroy()
	return cunumeric.MaxAbs(sums)
}

// FrobeniusNorm returns sqrt(Σ v²) over stored values.
func (a *CSR) FrobeniusNorm() float64 {
	va := a.ValsArray()
	return math.Sqrt(cunumeric.Dot(va, va).Get())
}

// Reshape returns the matrix reshaped to rows2 x cols2 under row-major
// linearization (scipy A.reshape((r, c))) — one of the "sparse matrix
// reshaping operators" §5.4 counts among the remaining hand-written
// surface. The element counts must match.
func (a *CSR) Reshape(rows2, cols2 int64) *CSR {
	if rows2*cols2 != a.rows*a.cols {
		panic(fmt.Sprintf("core: Reshape %dx%d -> %dx%d changes the element count",
			a.rows, a.cols, rows2, cols2))
	}
	pos, crd, vals := a.hostCSR()
	var r, c []int64
	var v []float64
	for i := int64(0); i < a.rows; i++ {
		for k := pos[i].Lo; k <= pos[i].Hi; k++ {
			flat := i*a.cols + crd[k]
			r = append(r, flat/cols2)
			c = append(c, flat%cols2)
			v = append(v, vals[k])
		}
	}
	rr, cc, vv := canonicalizeCOO(r, c, v)
	return buildCSR(a.rt, rows2, cols2, rr, cc, vv)
}
