package core

import (
	"sort"

	"repro/internal/geometry"
	"repro/internal/legion"
)

// Format conversions. The paper ports these from SciPy (§5.2); the
// structural work (counting, sorting, prefix sums) runs on the host
// after a fence — like SciPy's C helpers — while the resulting matrices
// are ordinary region-backed objects whose subsequent operations are
// fully distributed. Converting between formats is exactly the cost the
// paper's third composability layer (types of data structures) warns
// about, which is why the hot paths above dispatch format-specific
// kernels instead of converting.

// hostCSR reads a fenced CSR into host-side triples.
func (a *CSR) hostCSR() (pos []geometry.Rect, crd []int64, vals []float64) {
	a.rt.Fence()
	return a.pos.Rects(), a.crd.Int64s(), a.vals.Float64s()
}

// ToCOO converts CSR to coordinate format.
func (a *CSR) ToCOO() *COO {
	pos, crd, vals := a.hostCSR()
	nnz := a.NNZ()
	row := make([]int64, 0, nnz)
	col := make([]int64, 0, nnz)
	v := make([]float64, 0, nnz)
	for i := int64(0); i < a.rows; i++ {
		for k := pos[i].Lo; k <= pos[i].Hi; k++ {
			row = append(row, i)
			col = append(col, crd[k])
			v = append(v, vals[k])
		}
	}
	return &COO{
		rt:   a.rt,
		rows: a.rows,
		cols: a.cols,
		row:  a.rt.CreateInt64("A.row", row),
		col:  a.rt.CreateInt64("A.col", col),
		vals: a.rt.CreateFloat64("A.vals", v),
	}
}

// ToCSR converts COO to CSR.
func (a *COO) ToCSR() *CSR {
	a.rt.Fence()
	// buildCSR copies into fresh regions, so canonical triples may be
	// read straight from this matrix's own.
	r, c, v := canonicalizeCOO(a.row.Int64s(), a.col.Int64s(), a.vals.Float64s())
	return buildCSR(a.rt, a.rows, a.cols, r, c, v)
}

// ToCSC converts CSR to compressed-sparse-column format: a sort of the
// entries by (col, row), one of the hand-written auxiliary operations of
// §5.3.
func (a *CSR) ToCSC() *CSC {
	pos, crd, vals := a.hostCSR()
	nnz := int(a.NNZ())
	type entry struct {
		r, c int64
		v    float64
	}
	entries := make([]entry, 0, nnz)
	for i := int64(0); i < a.rows; i++ {
		for k := pos[i].Lo; k <= pos[i].Hi; k++ {
			entries = append(entries, entry{r: i, c: crd[k], v: vals[k]})
		}
	}
	sort.Slice(entries, func(x, y int) bool {
		if entries[x].c != entries[y].c {
			return entries[x].c < entries[y].c
		}
		return entries[x].r < entries[y].r
	})
	cpos := make([]geometry.Rect, a.cols)
	ccrd := make([]int64, len(entries))
	cvals := make([]float64, len(entries))
	for j := range cpos {
		cpos[j] = geometry.EmptyRect
	}
	for idx, e := range entries {
		ccrd[idx] = e.r
		cvals[idx] = e.v
		if cpos[e.c].Empty() {
			cpos[e.c] = geometry.PointRect(int64(idx))
		} else {
			cpos[e.c].Hi = int64(idx)
		}
	}
	// Empty columns get empty ranges positioned at the running offset so
	// the image of any pos block stays contiguous.
	next := int64(0)
	for j := int64(0); j < a.cols; j++ {
		if cpos[j].Empty() {
			cpos[j] = geometry.Rect{Lo: next, Hi: next - 1}
		} else {
			next = cpos[j].Hi + 1
		}
	}
	return &CSC{
		rt:   a.rt,
		rows: a.rows,
		cols: a.cols,
		pos:  a.rt.CreateRects("A.cpos", cpos),
		crd:  a.rt.CreateInt64("A.ccrd", ccrd),
		vals: a.rt.CreateFloat64("A.cvals", cvals),
	}
}

// ToCSR converts CSC back to CSR.
func (a *CSC) ToCSR() *CSR {
	a.rt.Fence()
	pos, crd, vals := a.pos.Rects(), a.crd.Int64s(), a.vals.Float64s()
	var r, c []int64
	var v []float64
	for j := int64(0); j < a.cols; j++ {
		for k := pos[j].Lo; k <= pos[j].Hi; k++ {
			r = append(r, crd[k])
			c = append(c, j)
			v = append(v, vals[k])
		}
	}
	r, c, v = canonicalizeCOO(r, c, v)
	return buildCSR(a.rt, a.rows, a.cols, r, c, v)
}

// TransposeView returns Aᵀ as a CSR matrix sharing this CSC matrix's
// regions with no copying: a CSC matrix's (pos, crd, vals) over columns
// *is* the CSR representation of its transpose — one of the free
// format dualities the region-pack representation of §3 makes explicit.
func (a *CSC) TransposeView() *CSR {
	return &CSR{rt: a.rt, rows: a.cols, cols: a.rows, pos: a.pos, crd: a.crd, vals: a.vals}
}

// TransposeView returns Aᵀ as a CSC matrix sharing this CSR matrix's
// regions (the dual of CSC.TransposeView).
func (a *CSR) TransposeView() *CSC {
	return &CSC{rt: a.rt, rows: a.cols, cols: a.rows, pos: a.pos, crd: a.crd, vals: a.vals}
}

// Transpose returns Aᵀ as COO by swapping the coordinate regions (zero
// value copies; the result is re-canonicalized lazily by ToCSR).
func (a *COO) Transpose() *COO {
	return &COO{rt: a.rt, rows: a.cols, cols: a.rows, row: a.col, col: a.row, vals: a.vals}
}

// Transpose returns Aᵀ as CSR (the `A.T` of Figure 1's PSD construction).
func (a *CSR) Transpose() *CSR {
	pos, crd, vals := a.hostCSR()
	var r, c []int64
	var v []float64
	for i := int64(0); i < a.rows; i++ {
		for k := pos[i].Lo; k <= pos[i].Hi; k++ {
			r = append(r, crd[k])
			c = append(c, i)
			v = append(v, vals[k])
		}
	}
	r, c, v = canonicalizeCOO(r, c, v)
	return buildCSR(a.rt, a.cols, a.rows, r, c, v)
}

// ToDIA converts CSR to diagonal format, inferring the set of occupied
// offsets (scipy .todia()).
func (a *CSR) ToDIA() *DIA {
	pos, crd, vals := a.hostCSR()
	offSet := map[int64]bool{}
	for i := int64(0); i < a.rows; i++ {
		for k := pos[i].Lo; k <= pos[i].Hi; k++ {
			offSet[crd[k]-i] = true
		}
	}
	offsets := make([]int64, 0, len(offSet))
	for off := range offSet {
		offsets = append(offsets, off)
	}
	sort.Slice(offsets, func(x, y int) bool { return offsets[x] < offsets[y] })
	offIdx := map[int64]int64{}
	for d, off := range offsets {
		offIdx[off] = int64(d)
	}
	data := make([]float64, int64(len(offsets))*a.cols)
	for i := int64(0); i < a.rows; i++ {
		for k := pos[i].Lo; k <= pos[i].Hi; k++ {
			j := crd[k]
			data[offIdx[j-i]*a.cols+j] = vals[k]
		}
	}
	return &DIA{
		rt:      a.rt,
		rows:    a.rows,
		cols:    a.cols,
		offsets: offsets,
		data:    a.rt.CreateFloat64("A.dia", data),
	}
}

// ToCSR converts DIA to CSR (scipy .tocsr()), dropping stored zeros.
func (a *DIA) ToCSR() *CSR {
	a.rt.Fence()
	data := a.data.Float64s()
	var r, c []int64
	var v []float64
	for d, off := range a.offsets {
		for j := int64(0); j < a.cols; j++ {
			i := j - off
			if i < 0 || i >= a.rows {
				continue
			}
			if x := data[int64(d)*a.cols+j]; x != 0 {
				r = append(r, i)
				c = append(c, j)
				v = append(v, x)
			}
		}
	}
	r, c, v = canonicalizeCOO(r, c, v)
	return buildCSR(a.rt, a.rows, a.cols, r, c, v)
}

// NewDIA builds a DIA matrix directly from offsets and a row-major
// (ndiags x cols) data slice following SciPy's dia_matrix layout.
func NewDIA(rt *legion.Runtime, rows, cols int64, offsets []int64, data []float64) *DIA {
	if int64(len(data)) != int64(len(offsets))*cols {
		panic("core: NewDIA data length must be len(offsets)*cols")
	}
	offs := make([]int64, len(offsets))
	copy(offs, offsets)
	return &DIA{
		rt:      rt,
		rows:    rows,
		cols:    cols,
		offsets: offs,
		data:    rt.CreateFloat64("A.dia", data),
	}
}
