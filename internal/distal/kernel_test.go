package distal

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geometry"
	"repro/internal/seq"
)

// poissonOperand is the 5-point Laplacian on an nx x nx grid as a CSR
// operand, columns ascending within each row.
func poissonOperand(nx int64) *Operand {
	n := nx * nx
	op := &Operand{Pos: make([]geometry.Rect, n)}
	for i := int64(0); i < n; i++ {
		r, c := i/nx, i%nx
		lo := int64(len(op.Crd))
		add := func(j int64, v float64) {
			op.Crd = append(op.Crd, j)
			op.Vals = append(op.Vals, v)
		}
		if r > 0 {
			add(i-nx, -1)
		}
		if c > 0 {
			add(i-1, -1)
		}
		add(i, 4)
		if c < nx-1 {
			add(i+1, -1)
		}
		if r < nx-1 {
			add(i+nx, -1)
		}
		op.Pos[i] = geometry.NewRect(lo, int64(len(op.Crd))-1)
	}
	return op
}

// BenchmarkSpMVKernel times the compiled CSR SpMV loop nest on host
// slices over the whole row range and reports ns per stored entry, at
// the two Poisson sizes of the library benchmark workloads (1,024 and
// 262,144 rows).
func BenchmarkSpMVKernel(b *testing.B) {
	k := Standard.MustLookup("spmv", CSR, CPUThread)
	for _, nx := range []int64{32, 512} {
		a := poissonOperand(nx)
		n := nx * nx
		x := make([]float64, n)
		for i := range x {
			x[i] = 1 + float64(i%7)/8
		}
		args := &Args{
			Ops: map[string]*Operand{"y": {Vals: make([]float64, n)}, "A": a, "x": {Vals: x}},
			Lo:  0, Hi: n - 1,
		}
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.Exec(args)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(a.Vals)), "ns/nnz")
		})
	}
}

// fuzzCase is a kernel input decoded from fuzz bytes: a CSR pattern of
// 0–64 rows with 0–9 entries a row over cols columns, a pool of
// arbitrary float64 bit patterns every value is drawn from, and a
// sub-range [Lo, Hi] of the rows (possibly empty).
type fuzzCase struct {
	rows, cols int64
	indptr     []int64
	op         *Operand // Pos, Crd, Vals of the CSR pattern
	pool       []float64
	lo, hi     int64
	k          int64 // dense width (SpMM, SDDMM) and BSR block edge, 1–3
	offsets    []int64
	next       func() byte
}

func decodeFuzzCase(data []byte) *fuzzCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	c := &fuzzCase{next: next}
	c.pool = make([]float64, 1+next()%8)
	for i := range c.pool {
		var bits uint64
		for range 8 {
			bits = bits<<8 | uint64(next())
		}
		c.pool[i] = math.Float64frombits(bits)
	}
	c.rows, c.cols = int64(next()%65), 1+int64(next()%16)
	c.k = 1 + int64(next()%3)
	c.op = &Operand{Pos: make([]geometry.Rect, c.rows)}
	c.indptr = []int64{0}
	for i := range c.op.Pos {
		lo := int64(len(c.op.Crd))
		for range next() % 10 {
			c.op.Crd = append(c.op.Crd, int64(next())%c.cols)
			c.op.Vals = append(c.op.Vals, c.value())
		}
		c.op.Pos[i] = geometry.NewRect(lo, int64(len(c.op.Crd))-1)
		c.indptr = append(c.indptr, int64(len(c.op.Crd)))
	}
	c.lo, c.hi = span(int64(next()), int64(next()), c.rows)
	for range next() % 4 {
		c.offsets = append(c.offsets, int64(int8(next()))%(c.rows+c.cols))
	}
	return c
}

// span maps two bytes to a sub-range [lo, hi] of [0, n), empty when
// hi = lo-1.
func span(a, b, n int64) (lo, hi int64) {
	lo = a % (n + 1)
	return lo, lo - 1 + b%(n-lo+1)
}

func (c *fuzzCase) value() float64 { return c.pool[int(c.next())%len(c.pool)] }

func (c *fuzzCase) values(n int64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = c.value()
	}
	return v
}

// sentinel fills an output the kernel may only partly write, so a write
// outside its tile shows.
func sentinel(n int64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(0x7ff4_dead_beef_0000 | uint64(i))
	}
	return v
}

// sameBits compares by Float64bits, except that any NaN equals any NaN:
// Go does not specify which operand's payload a NaN result carries.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// FuzzKernelAgreement checks every compiled loop nest against a
// per-index reference of the same arithmetic, bit for bit, on arbitrary
// float64 patterns (−0, subnormals, NaN, ±Inf) and an arbitrary tile,
// and the CSR nest over all rows against seq.CSR.SpMVInto.
func FuzzKernelAgreement(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0x80, 0, 0, 0, 0, 0, 0, 0, 3, 3, 1, 2, 0, 0, 1, 2, 0, 1, 2, 0, 0, 0, 3, 1, 255, 2})
	f.Add([]byte{4, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0, 0xff, 0xf0, 0, 0, 0, 0, 0, 0, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 1, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0,
		7, 5, 2, 9, 1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 4, 1, 4, 1,
		3, 4, 2, 1, 1, 3, 3, 2, 1, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 9, 3, 3, 1, 0xfe, 2})
	f.Add(append([]byte{2, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 64, 15, 2},
		bytesOf(64*20, func(i int) byte { return byte(i*7 + i/5) })...))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFuzzCase(data)
		a := c.op
		x := c.values(max(c.rows, c.cols) * c.k)
		run := func(op string, fm Format, ops map[string]*Operand, lo, hi int64, accum func(int64, float64)) {
			Standard.MustLookup(op, fm, CPUThread).Exec(&Args{Ops: ops, Lo: lo, Hi: hi, Accum: accum})
		}

		// CSR: y(i) = A(i,j) x(j), one ascending chain per row.
		y, want := sentinel(c.rows), sentinel(c.rows)
		run("spmv", CSR, map[string]*Operand{"y": {Vals: y}, "A": a, "x": {Vals: x}}, c.lo, c.hi, nil)
		for i := c.lo; i <= c.hi; i++ {
			var acc float64
			for e := a.Pos[i].Lo; e <= a.Pos[i].Hi; e++ {
				acc += a.Vals[e] * x[a.Crd[e]]
			}
			want[i] = acc
		}
		sameBits(t, "csr y", y, want)
		if c.rows > 0 {
			run("spmv", CSR, map[string]*Operand{"y": {Vals: y}, "A": a, "x": {Vals: x}}, 0, c.rows-1, nil)
			ys := make([]float64, c.rows)
			seq.NewCSR(c.rows, c.cols, c.indptr, a.Crd, a.Vals).SpMVInto(ys, x[:c.cols])
			sameBits(t, "csr y vs seq", y, ys)
		}

		// Row reduce: y(i) = sum_j A(i,j).
		y, want = sentinel(c.rows), sentinel(c.rows)
		run("row_sum", CSR, map[string]*Operand{"y": {Vals: y}, "A": a}, c.lo, c.hi, nil)
		for i := c.lo; i <= c.hi; i++ {
			var acc float64
			for e := a.Pos[i].Lo; e <= a.Pos[i].Hi; e++ {
				acc += a.Vals[e]
			}
			want[i] = acc
		}
		sameBits(t, "row_sum y", y, want)

		// CSC: the pattern read as columns i of a cols x rows matrix,
		// scattered into y directly and through Accum.
		y0 := c.values(c.cols)
		y, want = append([]float64(nil), y0...), append([]float64(nil), y0...)
		run("spmv", CSC, map[string]*Operand{"y": {Vals: y}, "A": a, "x": {Vals: x}}, c.lo, c.hi, nil)
		for i := c.lo; i <= c.hi; i++ {
			for e := a.Pos[i].Lo; e <= a.Pos[i].Hi; e++ {
				want[a.Crd[e]] += a.Vals[e] * x[i]
			}
		}
		sameBits(t, "csc y", y, want)
		y = append([]float64(nil), y0...)
		run("spmv", CSC, map[string]*Operand{"A": a, "x": {Vals: x}}, c.lo, c.hi, func(j int64, v float64) { y[j] += v })
		sameBits(t, "csc accum y", y, want)

		// COO over an entry range: Crd rows, Crd2 columns.
		nnz := int64(len(a.Crd))
		rowOf, colOf := make([]int64, nnz), a.Crd
		for i := range c.rows {
			for e := a.Pos[i].Lo; e <= a.Pos[i].Hi; e++ {
				rowOf[e] = i
			}
		}
		elo, ehi := span(c.lo, c.hi+1, nnz)
		coo := &Operand{Crd: rowOf, Crd2: colOf, Vals: a.Vals}
		y0 = c.values(c.rows)
		y, want = append([]float64(nil), y0...), append([]float64(nil), y0...)
		run("spmv", COO, map[string]*Operand{"y": {Vals: y}, "A": coo, "x": {Vals: x}}, elo, ehi, nil)
		for e := elo; e <= ehi; e++ {
			want[rowOf[e]] += a.Vals[e] * x[colOf[e]]
		}
		sameBits(t, "coo y", y, want)
		y = append([]float64(nil), y0...)
		run("spmv", COO, map[string]*Operand{"A": coo, "x": {Vals: x}}, elo, ehi, func(i int64, v float64) { y[i] += v })
		sameBits(t, "coo accum y", y, want)

		// DIA: diagonals at c.offsets of a rows x cols matrix.
		dia := &Operand{Offsets: c.offsets, Stride: c.cols, Vals: c.values(int64(len(c.offsets)) * c.cols)}
		y, want = sentinel(c.rows), sentinel(c.rows)
		run("spmv", DIA, map[string]*Operand{"y": {Vals: y}, "A": dia, "x": {Vals: x}}, c.lo, c.hi, nil)
		for i := c.lo; i <= c.hi; i++ {
			var acc float64
			for d, off := range c.offsets {
				if j := i + off; j >= 0 && j < c.cols {
					acc += dia.Vals[int64(d)*c.cols+j] * x[j]
				}
			}
			want[i] = acc
		}
		sameBits(t, "dia y", y, want)

		// BSR: the pattern as block rows of k x k tiles.
		bs := c.k
		bsr := &Operand{Pos: a.Pos, Crd: a.Crd, BlockSize: bs, Vals: c.values(nnz * bs * bs)}
		y, want = sentinel(c.rows*bs), sentinel(c.rows*bs)
		run("spmv", BSR, map[string]*Operand{"y": {Vals: y}, "A": bsr, "x": {Vals: x}}, c.lo, c.hi, nil)
		for br := c.lo; br <= c.hi; br++ {
			for r := br * bs; r < (br+1)*bs; r++ {
				want[r] = 0
			}
			for e := a.Pos[br].Lo; e <= a.Pos[br].Hi; e++ {
				for bi := range bs {
					var acc float64
					for bj := range bs {
						acc += bsr.Vals[(e*bs+bi)*bs+bj] * x[a.Crd[e]*bs+bj]
					}
					want[br*bs+bi] += acc
				}
			}
		}
		sameBits(t, "bsr y", y, want)

		// SpMM: Y(i,q) = A(i,j) X(j,q), X and Y row-major of width k.
		k := c.k
		Y, wantY := sentinel(c.rows*k), sentinel(c.rows*k)
		run("spmm", CSR, map[string]*Operand{"Y": {Vals: Y, Stride: k}, "A": a, "X": {Vals: x, Stride: k}}, c.lo, c.hi, nil)
		for i := c.lo; i <= c.hi; i++ {
			for q := range k {
				wantY[i*k+q] = 0
			}
			for e := a.Pos[i].Lo; e <= a.Pos[i].Hi; e++ {
				for q := range k {
					wantY[i*k+q] += a.Vals[e] * x[a.Crd[e]*k+q]
				}
			}
		}
		sameBits(t, "spmm Y", Y, wantY)

		// SDDMM: R(i,j) = A(i,j) * (B(i,:) · C(j,:)) on A's pattern.
		B, C := c.values(c.rows*k), c.values(c.cols*k)
		R, wantR := sentinel(nnz), sentinel(nnz)
		run("sddmm", CSR, map[string]*Operand{"R": {Vals: R}, "A": a, "B": {Vals: B, Stride: k}, "C": {Vals: C, Stride: k}}, c.lo, c.hi, nil)
		for i := c.lo; i <= c.hi; i++ {
			for e := a.Pos[i].Lo; e <= a.Pos[i].Hi; e++ {
				var dot float64
				for q := range k {
					dot += B[i*k+q] * C[a.Crd[e]*k+q]
				}
				wantR[e] = a.Vals[e] * dot
			}
		}
		sameBits(t, "sddmm R", R, wantR)
	})
}

func bytesOf(n int, f func(int) byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = f(i)
	}
	return b
}
