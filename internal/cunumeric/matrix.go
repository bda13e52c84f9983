package cunumeric

import (
	"fmt"
	"math"

	"repro/internal/constraint"
	"repro/internal/geometry"
	"repro/internal/legion"
	"repro/internal/machine"
)

// Matrix is a distributed dense row-major matrix backed by a single
// region of rows*cols elements, partitioned by blocks of rows. It is the
// 2-D array the sparse machine-learning workload (Figure 12) composes
// with: SpMM and SDDMM consume and produce these.
type Matrix struct {
	rt     *legion.Runtime
	region *legion.Region
	rows   int64
	cols   int64
}

// ZerosMatrix creates a rows x cols zero matrix.
func ZerosMatrix(rt *legion.Runtime, rows, cols int64) *Matrix {
	return &Matrix{
		rt:     rt,
		region: rt.CreateRegion("cn.matrix", rows*cols, legion.Float64),
		rows:   rows,
		cols:   cols,
	}
}

// MatrixFromSlice creates a rows x cols matrix from row-major data.
func MatrixFromSlice(rt *legion.Runtime, rows, cols int64, data []float64) *Matrix {
	if int64(len(data)) != rows*cols {
		panic(fmt.Sprintf("cunumeric: matrix %dx%d from %d values", rows, cols, len(data)))
	}
	return &Matrix{rt: rt, region: rt.CreateFloat64("cn.matrix", data), rows: rows, cols: cols}
}

// RandomMatrix creates a matrix of deterministic uniform [0, scale)
// entries.
func RandomMatrix(rt *legion.Runtime, rows, cols int64, seed uint64, scale float64) *Matrix {
	m := ZerosMatrix(rt, rows, cols)
	t := constraint.NewTask(rt, "cn.randmat", func(tc *legion.TaskContext) {
		d := tc.Float64(0)
		s, scale := math.Float64bits(tc.Scalar(0)), tc.Scalar(1)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			for k := range dd {
				dd[k] = scale * Uniform01(s, uint64(r.Lo+int64(k)))
			}
		}
	})
	t.AddOutput(m.region)
	t.SetScalars(math.Float64frombits(seed), scale) // the seed's bits, as in Random
	t.Execute()
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int64 { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int64 { return m.cols }

// Region exposes the backing region.
func (m *Matrix) Region() *legion.Region { return m.region }

// Runtime returns the owning runtime.
func (m *Matrix) Runtime() *legion.Runtime { return m.rt }

// Destroy releases the matrix's region.
func (m *Matrix) Destroy() { m.rt.Destroy(m.region) }

// ToSlice fences and returns a row-major copy of the contents.
func (m *Matrix) ToSlice() []float64 {
	m.rt.Fence()
	out := make([]float64, m.rows*m.cols)
	copy(out, m.region.Float64s())
	return out
}

// At fences and returns element (i, j); intended for tests and small
// reads, not inner loops.
func (m *Matrix) At(i, j int64) float64 {
	m.rt.Fence()
	return m.region.Float64s()[i*m.cols+j]
}

// RowPartition returns the block-of-rows partition used by matrix
// operations: the region is tiled so every color receives whole rows.
func (m *Matrix) RowPartition(colors int) *legion.Partition {
	blocks := rowBlocks(m.rows, int64(colors))
	return m.rt.PartitionByRects(m.region, rowRects(blocks, m.cols))
}

// FillMatrix sets every element to v.
func (m *Matrix) FillMatrix(v float64) {
	t := constraint.NewTask(m.rt, "cn.fillmat", func(tc *legion.TaskContext) {
		d := tc.Float64(0)
		x := tc.Scalar(0)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			for k := range dd {
				dd[k] = x
			}
		}
	})
	vOut := t.AddOutput(m.region)
	t.UsePartition(vOut, m.RowPartition(m.rt.LaunchDomain()))
	t.SetScalars(v)
	t.Execute()
}

// ScaleMatrix multiplies the matrix by alpha in place.
func (m *Matrix) ScaleMatrix(alpha float64) {
	t := constraint.NewTask(m.rt, "cn.scalemat", func(tc *legion.TaskContext) {
		d := tc.Float64(0)
		s := tc.Scalar(0)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			for k := range dd {
				dd[k] *= s
			}
		}
	})
	t.AddInOut(m.region)
	t.SetScalars(alpha)
	t.Execute()
}

// AXPYMatrix computes Y += alpha * X.
func AXPYMatrix(alpha float64, x, y *Matrix) {
	if x.rows != y.rows || x.cols != y.cols {
		panic("cunumeric: AXPYMatrix shape mismatch")
	}
	t := constraint.NewTask(y.rt, "cn.axpymat", func(tc *legion.TaskContext) {
		yv, xv := tc.Float64(0), tc.Float64(1)
		a := tc.Scalar(0)
		for _, r := range tc.Subspace(0).Rects() {
			ys := yv[r.Lo : r.Hi+1]
			xs := xv[r.Lo : r.Hi+1][:len(ys)]
			for k := range ys {
				ys[k] += a * xs[k]
			}
		}
	})
	vy := t.AddInOut(y.region)
	vx := t.AddInput(x.region)
	t.Align(vy, vx)
	t.SetScalars(alpha)
	t.Execute()
}

// CopyMatrix copies src into dst.
func CopyMatrix(dst, src *Matrix) {
	if dst.rows != src.rows || dst.cols != src.cols {
		panic("cunumeric: CopyMatrix shape mismatch")
	}
	t := constraint.NewTask(dst.rt, "cn.copymat", func(tc *legion.TaskContext) {
		d, s := tc.Float64(0), tc.Float64(1)
		for _, r := range tc.Subspace(0).Rects() {
			copy(d[r.Lo:r.Hi+1], s[r.Lo:r.Hi+1])
		}
	})
	vd := t.AddOutput(dst.region)
	vs := t.AddInput(src.region)
	t.Align(vd, vs)
	t.Execute()
}

// MulRows multiplies each row i of m by s[i] (broadcasting a column
// vector across the row), e.g. normalizing per-row gradient sums.
func MulRows(m *Matrix, s *Array) {
	if s.Len() != m.rows {
		panic("cunumeric: MulRows needs one scale per row")
	}
	cols := m.cols
	t := constraint.NewTask(m.rt, "cn.mulrows", func(tc *legion.TaskContext) {
		d, sv := tc.Float64(0), tc.Float64(1)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			for k := range dd {
				dd[k] *= sv[(r.Lo+int64(k))/cols]
			}
		}
	})
	vm := t.AddInOut(m.region)
	vs := t.AddInput(s.region)
	t.UsePartition(vm, m.RowPartition(m.rt.LaunchDomain()))
	t.UsePartition(vs, m.rt.PartitionByRects(s.region, rowVecRects(m.rows, int64(m.rt.LaunchDomain()))))
	t.Execute()
}

// rowVecRects tiles a length-rows vector with the same row blocks as
// RowPartition uses, so per-row scales align with matrix row blocks.
func rowVecRects(rows, n int64) []geometry.Rect {
	blocks := rowBlocks(rows, n)
	out := make([]geometry.Rect, len(blocks))
	var row int64
	for i, b := range blocks {
		if b == 0 {
			out[i] = geometry.EmptyRect
			continue
		}
		out[i] = geometry.NewRect(row, row+b-1)
		row += b
	}
	return out
}

// FrobeniusNorm2 returns the future of the squared Frobenius norm.
func FrobeniusNorm2(m *Matrix) *legion.Future {
	t := constraint.NewTask(m.rt, "cn.frob", func(tc *legion.TaskContext) {
		d := tc.Float64(0)
		var s float64
		for _, r := range tc.Subspace(0).Rects() {
			for _, v := range d[r.Lo : r.Hi+1] {
				s += v * v
			}
		}
		tc.Reduce(s)
	})
	t.AddInput(m.region)
	t.SetOpClass(machine.Reduction)
	return t.Execute()
}

// Transpose materializes the transposed matrix. A distributed transpose
// is an all-to-all over row blocks — the operation §6.2 blames for the
// matrix-factorization workload's degradation at scale — so the kernel
// reads the whole source on every point (a broadcast constraint), which
// the mapper prices accordingly.
func (m *Matrix) Transpose() *Matrix {
	out := ZerosMatrix(m.rt, m.cols, m.rows)
	rows, cols := m.rows, m.cols // of the source
	t := constraint.NewTask(m.rt, "cn.transpose", func(tc *legion.TaskContext) {
		d, s := tc.Float64(0), tc.Float64(1)
		for _, r := range tc.Subspace(0).Rects() {
			dd := d[r.Lo : r.Hi+1]
			for k := range dd {
				i := r.Lo + int64(k)
				tj := i / rows // row of output == column of source
				ti := i % rows
				dd[k] = s[ti*cols+tj]
			}
		}
	})
	vOut := t.AddOutput(out.region)
	vIn := t.AddInput(m.region)
	t.UsePartition(vOut, out.RowPartition(m.rt.LaunchDomain()))
	t.Broadcast(vIn)
	t.Execute()
	return out
}

// rowBlocks tiles rows into n contiguous row counts.
func rowBlocks(rows, n int64) []int64 {
	out := make([]int64, n)
	base, rem := rows/n, rows%n
	for i := int64(0); i < n; i++ {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// rowRects converts per-color row counts into element-index rects of the
// flattened row-major region.
func rowRects(blocks []int64, cols int64) []geometry.Rect {
	out := make([]geometry.Rect, len(blocks))
	var row int64
	for i, b := range blocks {
		if b == 0 {
			out[i] = geometry.EmptyRect
			continue
		}
		out[i] = geometry.NewRect(row*cols, (row+b)*cols-1)
		row += b
	}
	return out
}
