package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cunumeric"
	"repro/internal/legion"
)

// canonicalizeCOO returns coordinate triples sorted by (row, col) with
// duplicates summed, the canonical form SciPy's tocsr() produces.
// Triples already in strictly ascending (row, col) order — which also
// rules out duplicates — are canonical, so they are returned as they
// are after one O(n) pass: the result may alias the inputs, and no
// caller writes through it.
func canonicalizeCOO(row, col []int64, data []float64) ([]int64, []int64, []float64) {
	if canonicalOrder(row, col, data) {
		return row, col, data
	}
	return sortCOO(row, col, data)
}

// CanonicalTriples is canonicalizeCOO into slices of its own: the result
// never aliases the inputs, and each array is copied once, by the sort
// or, for triples already canonical, by a plain copy.
func CanonicalTriples(row, col []int64, data []float64) ([]int64, []int64, []float64) {
	if canonicalOrder(row, col, data) {
		return slices.Clone(row), slices.Clone(col), slices.Clone(data)
	}
	return sortCOO(row, col, data)
}

// canonicalOrder reports whether equally long triples are in strictly
// ascending (row, col) order.
func canonicalOrder(row, col []int64, data []float64) bool {
	if len(col) != len(row) || len(data) != len(row) {
		return false
	}
	for i := 1; i < len(row); i++ {
		if row[i] < row[i-1] || row[i] == row[i-1] && col[i] <= col[i-1] {
			return false
		}
	}
	return true
}

// sortCOO is canonicalizeCOO's general path: an index sort by (row, col)
// and a pass summing duplicates, into fresh slices.
func sortCOO(row, col []int64, data []float64) ([]int64, []int64, []float64) {
	n := len(row)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if row[ia] != row[ib] {
			return row[ia] < row[ib]
		}
		return col[ia] < col[ib]
	})
	r2 := make([]int64, 0, n)
	c2 := make([]int64, 0, n)
	v2 := make([]float64, 0, n)
	for _, i := range idx {
		m := len(r2)
		if m > 0 && r2[m-1] == row[i] && c2[m-1] == col[i] {
			v2[m-1] += data[i]
			continue
		}
		r2 = append(r2, row[i])
		c2 = append(c2, col[i])
		v2 = append(v2, data[i])
	}
	return r2, c2, v2
}

// buildCSR assembles a CSR from already-sorted host triples.
func buildCSR(rt *legion.Runtime, rows, cols int64, r, c []int64, v []float64) *CSR {
	indptr := make([]int64, rows+1)
	for _, ri := range r {
		indptr[ri+1]++
	}
	for i := int64(0); i < rows; i++ {
		indptr[i+1] += indptr[i]
	}
	return NewCSR(rt, rows, cols, indptr, c, v)
}

// FromTriples assembles a CSR matrix from host COO triples in any
// order (row-major sorted, duplicates summed) — the construction path
// for matrices arriving over a wire, e.g. legate-serve uploads. It is
// the exported form of the canonicalize+build pipeline the SciPy-style
// constructors share; canonical triples skip the sort.
func FromTriples(rt *legion.Runtime, rows, cols int64, r, c []int64, v []float64) *CSR {
	cr, cc, cv := canonicalizeCOO(r, c, v)
	return buildCSR(rt, rows, cols, cr, cc, cv)
}

// Random builds an n x m CSR matrix with the given nonzero density, the
// analog of scipy.sparse.random(n, m, density, format='csr'). Entries
// are deterministic in (seed, position) so results do not depend on the
// machine size.
func Random(rt *legion.Runtime, rows, cols int64, density float64, seed uint64) *CSR {
	if density < 0 || density > 1 {
		panic(fmt.Sprintf("core: Random density %v outside [0,1]", density))
	}
	var r, c []int64
	var v []float64
	for i := int64(0); i < rows; i++ {
		for j := int64(0); j < cols; j++ {
			h := cunumeric.Uniform01(seed, uint64(i)*uint64(cols)+uint64(j))
			if h < density {
				r = append(r, i)
				c = append(c, j)
				v = append(v, cunumeric.Uniform01(seed+1, uint64(i)*uint64(cols)+uint64(j)))
			}
		}
	}
	return buildCSR(rt, rows, cols, r, c, v)
}

// Eye returns the n x n identity as CSR (scipy.sparse.eye).
func Eye(rt *legion.Runtime, n int64) *CSR { return EyeScaled(rt, n, 1) }

// EyeScaled returns alpha * I as CSR.
func EyeScaled(rt *legion.Runtime, n int64, alpha float64) *CSR {
	indptr := make([]int64, n+1)
	indices := make([]int64, n)
	data := make([]float64, n)
	for i := int64(0); i < n; i++ {
		indptr[i+1] = i + 1
		indices[i] = i
		data[i] = alpha
	}
	return NewCSR(rt, n, n, indptr, indices, data)
}

// Diags builds a rows x cols CSR from diagonals, the analog of
// scipy.sparse.diags: diagonals[d][k] is the k-th in-bounds element of
// the diagonal at offsets[d].
func Diags(rt *legion.Runtime, rows, cols int64, diagonals [][]float64, offsets []int64) *CSR {
	if len(diagonals) != len(offsets) {
		panic("core: Diags needs one offset per diagonal")
	}
	var r, c []int64
	var v []float64
	for d, off := range offsets {
		n := diagLen(rows, cols, off)
		if int64(len(diagonals[d])) < n {
			panic(fmt.Sprintf("core: Diags diagonal %d has %d values, needs %d", d, len(diagonals[d]), n))
		}
		for k := int64(0); k < n; k++ {
			var i, j int64
			if off >= 0 {
				i, j = k, k+off
			} else {
				i, j = k-off, k
			}
			r = append(r, i)
			c = append(c, j)
			v = append(v, diagonals[d][k])
		}
	}
	r, c, v = canonicalizeCOO(r, c, v)
	return buildCSR(rt, rows, cols, r, c, v)
}

// Banded builds an n x n banded matrix with the given half-bandwidth:
// nonzeros on all diagonals within [-band, +band]. This is the matrix of
// the paper's SpMV microbenchmark ("banded sparse matrices", §6.1); the
// band structure makes the image of x a fixed-width halo around each
// processor's block, so the benchmark is trivially parallel.
func Banded(rt *legion.Runtime, n, band int64, seed uint64) *CSR {
	var r, c []int64
	var v []float64
	for i := int64(0); i < n; i++ {
		lo := max64(0, i-band)
		hi := min64(n-1, i+band)
		for j := lo; j <= hi; j++ {
			r = append(r, i)
			c = append(c, j)
			if i == j {
				v = append(v, float64(2*band)+1) // diagonally dominant
			} else {
				v = append(v, -cunumeric.Uniform01(seed, uint64(i*n+j)))
			}
		}
	}
	return buildCSR(rt, n, n, r, c, v)
}

// Poisson2D builds the standard 5-point finite-difference Laplacian on
// an nx x nx grid (the 2-D Poisson operator of the paper's CG benchmark,
// §6.1): an n=nx² square SPD matrix with 4 on the diagonal and -1 for
// each grid neighbor.
func Poisson2D(rt *legion.Runtime, nx int64) *CSR {
	n := nx * nx
	var r, c []int64
	var v []float64
	at := func(i, j int64) int64 { return i*nx + j }
	for i := int64(0); i < nx; i++ {
		for j := int64(0); j < nx; j++ {
			row := at(i, j)
			add := func(col int64, val float64) {
				r = append(r, row)
				c = append(c, col)
				v = append(v, val)
			}
			if i > 0 {
				add(at(i-1, j), -1)
			}
			if j > 0 {
				add(at(i, j-1), -1)
			}
			add(row, 4)
			if j < nx-1 {
				add(at(i, j+1), -1)
			}
			if i < nx-1 {
				add(at(i+1, j), -1)
			}
		}
	}
	return buildCSR(rt, n, n, r, c, v)
}

// Poisson3D builds the 7-point finite-difference Laplacian on an
// nx x nx x nx grid: 6 on the diagonal and -1 per grid neighbor, the
// three-dimensional sibling of the CG benchmark's operator.
func Poisson3D(rt *legion.Runtime, nx int64) *CSR {
	n := nx * nx * nx
	var r, c []int64
	var v []float64
	at := func(i, j, k int64) int64 { return (i*nx+j)*nx + k }
	for i := int64(0); i < nx; i++ {
		for j := int64(0); j < nx; j++ {
			for k := int64(0); k < nx; k++ {
				row := at(i, j, k)
				add := func(col int64, val float64) {
					r = append(r, row)
					c = append(c, col)
					v = append(v, val)
				}
				if i > 0 {
					add(at(i-1, j, k), -1)
				}
				if j > 0 {
					add(at(i, j-1, k), -1)
				}
				if k > 0 {
					add(at(i, j, k-1), -1)
				}
				add(row, 6)
				if k < nx-1 {
					add(at(i, j, k+1), -1)
				}
				if j < nx-1 {
					add(at(i, j+1, k), -1)
				}
				if i < nx-1 {
					add(at(i+1, j, k), -1)
				}
			}
		}
	}
	return buildCSR(rt, n, n, r, c, v)
}

// Kron returns the Kronecker product A ⊗ B as CSR
// (scipy.sparse.kron), assembled on the host.
func Kron(a, b *CSR) *CSR {
	rt := a.rt
	rt.Fence()
	ap, ac, av := a.pos.Rects(), a.crd.Int64s(), a.vals.Float64s()
	bp, bc, bv := b.pos.Rects(), b.crd.Int64s(), b.vals.Float64s()
	rows := a.rows * b.rows
	cols := a.cols * b.cols
	var r, c []int64
	var v []float64
	for ai := int64(0); ai < a.rows; ai++ {
		for bi := int64(0); bi < b.rows; bi++ {
			row := ai*b.rows + bi
			ra := ap[ai]
			rb := bp[bi]
			for ka := ra.Lo; ka <= ra.Hi; ka++ {
				for kb := rb.Lo; kb <= rb.Hi; kb++ {
					r = append(r, row)
					c = append(c, ac[ka]*b.cols+bc[kb])
					v = append(v, av[ka]*bv[kb])
				}
			}
		}
	}
	return buildCSR(rt, rows, cols, r, c, v)
}

// FromDense builds a CSR from a row-major dense matrix, dropping zeros.
func FromDense(rt *legion.Runtime, rows, cols int64, dense []float64) *CSR {
	var r, c []int64
	var v []float64
	for i := int64(0); i < rows; i++ {
		for j := int64(0); j < cols; j++ {
			if x := dense[i*cols+j]; x != 0 {
				r = append(r, i)
				c = append(c, j)
				v = append(v, x)
			}
		}
	}
	return buildCSR(rt, rows, cols, r, c, v)
}

// ToDense fences and materializes the matrix as a row-major host slice
// (for tests and small matrices only).
func (a *CSR) ToDense() []float64 {
	a.rt.Fence()
	out := make([]float64, a.rows*a.cols)
	pos, crd, vals := a.pos.Rects(), a.crd.Int64s(), a.vals.Float64s()
	for i := int64(0); i < a.rows; i++ {
		for k := pos[i].Lo; k <= pos[i].Hi; k++ {
			out[i*a.cols+crd[k]] += vals[k]
		}
	}
	return out
}
