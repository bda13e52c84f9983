// Package core is Legate Sparse itself: a distributed implementation of
// the SciPy Sparse programming model (the paper's primary contribution).
// Sparse matrices are represented as packs of legion regions — for CSR,
// a pos region of per-row ranges, a crd region of column coordinates,
// and a vals region of values (Figure 3) — rather than as a collection
// of rank-local matrices (the PETSc/Trilinos design the paper contrasts
// with in §3). Partitions of pos induce partitions of crd/vals through
// the by-range image, and partitions of crd induce partitions of dense
// operands through the by-coordinate image, which is how the library's
// data-dependent communication (SpMV halos) is expressed.
//
// The supported formats mirror the prototype's: COO, CSR, CSC and DIA,
// with conversions between them. Performance-critical tensor-algebra
// operations (SpMV, SpMM, SDDMM, row sums) dispatch into
// DISTAL-generated kernel variants (§5.1); most of the remaining API
// surface is "ported" — built by composing cuNumeric operations and
// previously defined sparse kernels (§5.2); a handful of structural
// operations (conversions, sorts, sparse-sparse addition, SpGEMM) are
// hand-written (§5.3).
package core

import (
	"fmt"

	"repro/internal/cunumeric"
	"repro/internal/geometry"
	"repro/internal/legion"
)

// CSR is a compressed-sparse-row matrix: pos[i] holds the [lo, hi] range
// of row i's entries within crd (column indices) and vals. Unlike
// SciPy's indptr, pos stores an explicit range tuple per row; this
// "small variation from the standard representation" is what lets the
// runtime's image operator relate pos partitions to crd/vals partitions
// directly (§3).
type CSR struct {
	rt         *legion.Runtime
	rows, cols int64
	pos        *legion.Region // RectType, length rows
	crd        *legion.Region // Int64, length nnz
	vals       *legion.Region // Float64, length nnz
}

// COO is a coordinate-format matrix: parallel row/col/vals regions, one
// entry per nonzero, sorted by (row, col) after canonicalization.
type COO struct {
	rt         *legion.Runtime
	rows, cols int64
	row        *legion.Region // Int64, length nnz
	col        *legion.Region // Int64, length nnz
	vals       *legion.Region // Float64, length nnz
}

// CSC is a compressed-sparse-column matrix: pos[j] ranges over column
// j's entries, crd holds row coordinates.
type CSC struct {
	rt         *legion.Runtime
	rows, cols int64
	pos        *legion.Region // RectType, length cols
	crd        *legion.Region // Int64, length nnz
	vals       *legion.Region // Float64, length nnz
}

// DIA is a diagonal-format matrix: data is an (ndiags x cols) row-major
// region; entry (d, j) holds A[j-offsets[d], j] as in scipy.sparse.dia.
type DIA struct {
	rt         *legion.Runtime
	rows, cols int64
	offsets    []int64
	data       *legion.Region // Float64, length len(offsets)*cols
}

// NewCSR builds a CSR matrix from SciPy-style host arrays: indptr of
// length rows+1, and parallel indices/data of length nnz. Rows must be
// sorted by construction (indptr non-decreasing); column order within a
// row is preserved.
func NewCSR(rt *legion.Runtime, rows, cols int64, indptr, indices []int64, data []float64) *CSR {
	if int64(len(indptr)) != rows+1 {
		panic(fmt.Sprintf("core: NewCSR indptr length %d, want rows+1 = %d", len(indptr), rows+1))
	}
	if len(indices) != len(data) {
		panic("core: NewCSR indices/data length mismatch")
	}
	pos := make([]geometry.Rect, rows)
	for i := int64(0); i < rows; i++ {
		pos[i] = geometry.NewRect(indptr[i], indptr[i+1]-1)
	}
	return &CSR{
		rt:   rt,
		rows: rows,
		cols: cols,
		pos:  rt.CreateRects("A.pos", pos),
		crd:  rt.CreateInt64("A.crd", indices),
		vals: rt.CreateFloat64("A.vals", data),
	}
}

// NewCOO builds a COO matrix from host coordinate arrays; entries are
// canonicalized (sorted by row then column, duplicates summed).
func NewCOO(rt *legion.Runtime, rows, cols int64, row, col []int64, data []float64) *COO {
	r2, c2, v2 := canonicalizeCOO(row, col, data)
	return &COO{
		rt:   rt,
		rows: rows,
		cols: cols,
		row:  rt.CreateInt64("A.row", r2),
		col:  rt.CreateInt64("A.col", c2),
		vals: rt.CreateFloat64("A.vals", v2),
	}
}

// FromRegions assembles a CSR matrix directly from existing regions —
// the interoperation path §3 calls out: "users can directly construct
// sparse matrices out of cuNumeric arrays, or extract and operate on the
// arrays that back a sparse matrix". pos must be rows RectType entries
// indexing into crd (Int64) and vals (Float64) of equal length.
func FromRegions(rt *legion.Runtime, rows, cols int64, pos, crd, vals *legion.Region) *CSR {
	if pos.Type() != legion.RectType || crd.Type() != legion.Int64 || vals.Type() != legion.Float64 {
		panic("core: FromRegions needs (RectType, Int64, Float64) regions")
	}
	if pos.Size() != rows || crd.Size() != vals.Size() {
		panic("core: FromRegions region sizes inconsistent")
	}
	return &CSR{rt: rt, rows: rows, cols: cols, pos: pos, crd: crd, vals: vals}
}

// WithValues returns a matrix sharing this one's sparsity structure
// (pos and crd regions) with a different values region — how SDDMM
// outputs and same-pattern element-wise results are represented without
// duplicating structure.
func (a *CSR) WithValues(vals *legion.Region) *CSR {
	if vals.Size() != a.NNZ() || vals.Type() != legion.Float64 {
		panic("core: WithValues needs a float64 region of nnz length")
	}
	return &CSR{rt: a.rt, rows: a.rows, cols: a.cols, pos: a.pos, crd: a.crd, vals: vals}
}

// Shape returns (rows, cols).
func (a *CSR) Shape() (int64, int64) { return a.rows, a.cols }

// Rows returns the number of rows.
func (a *CSR) Rows() int64 { return a.rows }

// Cols returns the number of columns.
func (a *CSR) Cols() int64 { return a.cols }

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int64 { return a.crd.Size() }

// Runtime returns the owning runtime.
func (a *CSR) Runtime() *legion.Runtime { return a.rt }

// Pos exposes the pos region (users may operate on the arrays backing a
// sparse matrix directly, §3).
func (a *CSR) Pos() *legion.Region { return a.pos }

// Crd exposes the column-coordinate region.
func (a *CSR) Crd() *legion.Region { return a.crd }

// Vals exposes the values region.
func (a *CSR) Vals() *legion.Region { return a.vals }

// ValsArray wraps the values region as a cuNumeric array — the
// bootstrap trick of §5.2: non-zero-preserving element-wise operations
// on a sparse matrix are just NumPy operations on its values array.
func (a *CSR) ValsArray() *cunumeric.Array { return cunumeric.FromRegion(a.vals) }

// Destroy releases the matrix's regions.
func (a *CSR) Destroy() {
	a.rt.Destroy(a.pos)
	a.rt.Destroy(a.crd)
	a.rt.Destroy(a.vals)
}

func (a *CSR) String() string {
	return fmt.Sprintf("CSR(%dx%d, nnz=%d)", a.rows, a.cols, a.NNZ())
}

// Shape returns (rows, cols).
func (a *COO) Shape() (int64, int64) { return a.rows, a.cols }

// NNZ returns the number of stored entries.
func (a *COO) NNZ() int64 { return a.row.Size() }

// Row exposes the row-coordinate region.
func (a *COO) Row() *legion.Region { return a.row }

// Col exposes the column-coordinate region.
func (a *COO) Col() *legion.Region { return a.col }

// Vals exposes the values region.
func (a *COO) Vals() *legion.Region { return a.vals }

// Destroy releases the matrix's regions.
func (a *COO) Destroy() {
	a.rt.Destroy(a.row)
	a.rt.Destroy(a.col)
	a.rt.Destroy(a.vals)
}

func (a *COO) String() string {
	return fmt.Sprintf("COO(%dx%d, nnz=%d)", a.rows, a.cols, a.NNZ())
}

// Shape returns (rows, cols).
func (a *CSC) Shape() (int64, int64) { return a.rows, a.cols }

// NNZ returns the number of stored entries.
func (a *CSC) NNZ() int64 { return a.crd.Size() }

// Pos exposes the per-column range region.
func (a *CSC) Pos() *legion.Region { return a.pos }

// Crd exposes the row-coordinate region.
func (a *CSC) Crd() *legion.Region { return a.crd }

// Vals exposes the values region.
func (a *CSC) Vals() *legion.Region { return a.vals }

// Destroy releases the matrix's regions.
func (a *CSC) Destroy() {
	a.rt.Destroy(a.pos)
	a.rt.Destroy(a.crd)
	a.rt.Destroy(a.vals)
}

func (a *CSC) String() string {
	return fmt.Sprintf("CSC(%dx%d, nnz=%d)", a.rows, a.cols, a.NNZ())
}

// Shape returns (rows, cols).
func (a *DIA) Shape() (int64, int64) { return a.rows, a.cols }

// Offsets returns the stored diagonal offsets.
func (a *DIA) Offsets() []int64 { return a.offsets }

// Data exposes the (ndiags x cols) data region.
func (a *DIA) Data() *legion.Region { return a.data }

// NNZ returns the number of stored (possibly explicit-zero) entries.
func (a *DIA) NNZ() int64 {
	var n int64
	for _, off := range a.offsets {
		n += diagLen(a.rows, a.cols, off)
	}
	return n
}

// Destroy releases the matrix's regions.
func (a *DIA) Destroy() { a.rt.Destroy(a.data) }

func (a *DIA) String() string {
	return fmt.Sprintf("DIA(%dx%d, %d diagonals)", a.rows, a.cols, len(a.offsets))
}

// diagLen returns the number of in-bounds elements of the diagonal at
// the given offset of a rows x cols matrix.
func diagLen(rows, cols, off int64) int64 {
	var n int64
	if off >= 0 {
		n = min64(rows, cols-off)
	} else {
		n = min64(rows+off, cols)
	}
	if n < 0 {
		return 0
	}
	return n
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
