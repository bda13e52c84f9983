package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cunumeric"
	"repro/internal/legion"
	"repro/internal/machine"
)

func newRT(t testing.TB, gpus int) *legion.Runtime {
	t.Helper()
	m := machine.Summit((gpus + 5) / 6)
	rt := legion.NewRuntime(m, m.Select(machine.GPU, gpus))
	t.Cleanup(rt.Shutdown)
	return rt
}

// denseMV is the reference y = D @ x for a row-major dense matrix.
func denseMV(rows, cols int64, d, x []float64) []float64 {
	y := make([]float64, rows)
	for i := int64(0); i < rows; i++ {
		for j := int64(0); j < cols; j++ {
			y[i] += d[i*cols+j] * x[j]
		}
	}
	return y
}

func approx(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*(1+math.Abs(b[i])) {
			return false
		}
	}
	return true
}

func randVec(rng *rand.Rand, n int64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestConstructors(t *testing.T) {
	rt := newRT(t, 2)
	eye := Eye(rt, 5)
	if eye.NNZ() != 5 {
		t.Fatalf("eye nnz = %d", eye.NNZ())
	}
	d := eye.ToDense()
	for i := int64(0); i < 5; i++ {
		for j := int64(0); j < 5; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if d[i*5+j] != want {
				t.Fatalf("eye[%d,%d] = %v", i, j, d[i*5+j])
			}
		}
	}
	r := Random(rt, 40, 30, 0.2, 1)
	if r.NNZ() == 0 || r.NNZ() >= 40*30 {
		t.Fatalf("random nnz = %d looks wrong", r.NNZ())
	}
	density := float64(r.NNZ()) / (40.0 * 30.0)
	if density < 0.1 || density > 0.3 {
		t.Errorf("random density = %v, want ~0.2", density)
	}
	b := Banded(rt, 50, 3, 2)
	if b.NNZ() != 50*7-2*(1+2+3) {
		t.Errorf("banded nnz = %d", b.NNZ())
	}
	p := Poisson2D(rt, 4)
	if p.Rows() != 16 || p.Cols() != 16 {
		t.Fatal("poisson shape wrong")
	}
	// Poisson operator is symmetric with rows summing to {0..2} boundary
	// deficit; check symmetry via dense form.
	pd := p.ToDense()
	for i := int64(0); i < 16; i++ {
		for j := int64(0); j < 16; j++ {
			if pd[i*16+j] != pd[j*16+i] {
				t.Fatalf("poisson not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestDiags(t *testing.T) {
	rt := newRT(t, 1)
	a := Diags(rt, 4, 4, [][]float64{{1, 2, 3, 4}, {5, 6, 7}}, []int64{0, 1})
	d := a.ToDense()
	want := []float64{
		1, 5, 0, 0,
		0, 2, 6, 0,
		0, 0, 3, 7,
		0, 0, 0, 4,
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("diags dense[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestKron(t *testing.T) {
	rt := newRT(t, 1)
	a := FromDense(rt, 2, 2, []float64{1, 2, 0, 3})
	b := Eye(rt, 2)
	k := Kron(a, b)
	want := []float64{
		1, 0, 2, 0,
		0, 1, 0, 2,
		0, 0, 3, 0,
		0, 0, 0, 3,
	}
	got := k.ToDense()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kron[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSpMVProperty: distributed CSR SpMV matches the dense reference on
// random matrices across several processor counts.
func TestSpMVProperty(t *testing.T) {
	for _, procs := range []int{1, 3, 6} {
		rt := newRT(t, procs)
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			rows := int64(1 + rng.Intn(40))
			cols := int64(1 + rng.Intn(40))
			a := Random(rt, rows, cols, 0.3, uint64(seed)+10)
			xs := randVec(rng, cols)
			x := cunumeric.FromSlice(rt, xs)
			y := a.SpMV(x)
			got := y.ToSlice()
			want := denseMV(rows, cols, a.ToDense(), xs)
			a.Destroy()
			x.Destroy()
			y.Destroy()
			return approx(got, want, 1e-10)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
	}
}

// TestSpMVLinearity: A(αx + βz) = αAx + βAz.
func TestSpMVLinearity(t *testing.T) {
	rt := newRT(t, 4)
	rng := rand.New(rand.NewSource(5))
	a := Random(rt, 60, 60, 0.15, 3)
	xs, zs := randVec(rng, 60), randVec(rng, 60)
	alpha, beta := 2.5, -1.25

	comb := make([]float64, 60)
	for i := range comb {
		comb[i] = alpha*xs[i] + beta*zs[i]
	}
	yc := a.SpMV(cunumeric.FromSlice(rt, comb)).ToSlice()

	yx := a.SpMV(cunumeric.FromSlice(rt, xs)).ToSlice()
	yz := a.SpMV(cunumeric.FromSlice(rt, zs)).ToSlice()
	for i := range yc {
		want := alpha*yx[i] + beta*yz[i]
		if math.Abs(yc[i]-want) > 1e-9 {
			t.Fatalf("linearity violated at %d: %v vs %v", i, yc[i], want)
		}
	}
}

func TestFormatSpMVAgreement(t *testing.T) {
	rt := newRT(t, 3)
	rng := rand.New(rand.NewSource(8))
	a := Random(rt, 37, 29, 0.25, 4)
	xs := randVec(rng, 29)
	x := cunumeric.FromSlice(rt, xs)
	want := a.SpMV(x).ToSlice()

	coo := a.ToCOO()
	if got := coo.SpMV(x).ToSlice(); !approx(got, want, 1e-10) {
		t.Error("COO SpMV differs from CSR")
	}
	csc := a.ToCSC()
	if got := csc.SpMV(x).ToSlice(); !approx(got, want, 1e-10) {
		t.Error("CSC SpMV differs from CSR")
	}
	// DIA on a banded matrix (dense offsets are impractical for random).
	b := Banded(rt, 40, 2, 9)
	xb := cunumeric.FromSlice(rt, randVec(rng, 40))
	wantB := b.SpMV(xb).ToSlice()
	dia := b.ToDIA()
	if len(dia.Offsets()) != 5 {
		t.Errorf("banded->DIA offsets = %v", dia.Offsets())
	}
	if got := dia.SpMV(xb).ToSlice(); !approx(got, wantB, 1e-10) {
		t.Error("DIA SpMV differs from CSR")
	}
}

// TestConversionRoundTrips: every format conversion round-trips to the
// same dense matrix.
func TestConversionRoundTrips(t *testing.T) {
	rt := newRT(t, 2)
	f := func(seed int64) bool {
		a := Random(rt, 20, 15, 0.3, uint64(seed))
		want := a.ToDense()
		viaCOO := a.ToCOO().ToCSR().ToDense()
		viaCSC := a.ToCSC().ToCSR().ToDense()
		viaDIA := a.ToDIA().ToCSR().ToDense()
		return approx(viaCOO, want, 0) && approx(viaCSC, want, 0) && approx(viaDIA, want, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTransposeInvolution: (Aᵀ)ᵀ = A, and Aᵀ's dense form is the
// transpose of A's.
func TestTransposeInvolution(t *testing.T) {
	rt := newRT(t, 2)
	a := Random(rt, 13, 21, 0.3, 6)
	at := a.Transpose()
	if r, c := at.Shape(); r != 21 || c != 13 {
		t.Fatal("transpose shape wrong")
	}
	ad, atd := a.ToDense(), at.ToDense()
	for i := int64(0); i < 13; i++ {
		for j := int64(0); j < 21; j++ {
			if ad[i*21+j] != atd[j*13+i] {
				t.Fatalf("transpose wrong at (%d,%d)", i, j)
			}
		}
	}
	if !approx(at.Transpose().ToDense(), ad, 0) {
		t.Fatal("double transpose differs")
	}
}

func TestAddMultiplyScale(t *testing.T) {
	rt := newRT(t, 2)
	a := Random(rt, 25, 25, 0.2, 11)
	b := Random(rt, 25, 25, 0.2, 12)
	ad, bd := a.ToDense(), b.ToDense()

	sum := Add(a, b, 2, -3)
	sd := sum.ToDense()
	for i := range sd {
		want := 2*ad[i] - 3*bd[i]
		if math.Abs(sd[i]-want) > 1e-12 {
			t.Fatalf("add[%d] = %v, want %v", i, sd[i], want)
		}
	}

	prod := Multiply(a, b)
	pd := prod.ToDense()
	for i := range pd {
		if math.Abs(pd[i]-ad[i]*bd[i]) > 1e-12 {
			t.Fatalf("hadamard[%d] wrong", i)
		}
	}

	a.Scale(0.5)
	for i, v := range a.ToDense() {
		if math.Abs(v-0.5*ad[i]) > 1e-12 {
			t.Fatalf("scale[%d] wrong", i)
		}
	}
}

func TestSpGEMMAgainstDense(t *testing.T) {
	rt := newRT(t, 2)
	f := func(seed int64) bool {
		a := Random(rt, 12, 17, 0.3, uint64(seed))
		b := Random(rt, 17, 9, 0.3, uint64(seed)+99)
		c := SpGEMM(a, b)
		ad, bd := a.ToDense(), b.ToDense()
		want := make([]float64, 12*9)
		for i := int64(0); i < 12; i++ {
			for k := int64(0); k < 17; k++ {
				for j := int64(0); j < 9; j++ {
					want[i*9+j] += ad[i*17+k] * bd[k*9+j]
				}
			}
		}
		return approx(c.ToDense(), want, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSpMMAndSDDMM(t *testing.T) {
	rt := newRT(t, 3)
	rng := rand.New(rand.NewSource(13))
	a := Random(rt, 20, 14, 0.3, 21)
	kk := int64(6)
	xs := randVec(rng, 14*kk)
	x := cunumeric.MatrixFromSlice(rt, 14, kk, xs)
	y := a.SpMM(x)
	ad := a.ToDense()
	got := y.ToSlice()
	for i := int64(0); i < 20; i++ {
		for q := int64(0); q < kk; q++ {
			var want float64
			for j := int64(0); j < 14; j++ {
				want += ad[i*14+j] * xs[j*kk+q]
			}
			if math.Abs(got[i*kk+q]-want) > 1e-9 {
				t.Fatalf("spmm (%d,%d) = %v, want %v", i, q, got[i*kk+q], want)
			}
		}
	}

	bs := randVec(rng, 20*kk)
	cs := randVec(rng, 14*kk)
	bm := cunumeric.MatrixFromSlice(rt, 20, kk, bs)
	cm := cunumeric.MatrixFromSlice(rt, 14, kk, cs)
	r := a.SDDMM(bm, cm)
	rd := r.ToDense()
	for i := int64(0); i < 20; i++ {
		for j := int64(0); j < 14; j++ {
			var dot float64
			for q := int64(0); q < kk; q++ {
				dot += bs[i*kk+q] * cs[j*kk+q]
			}
			want := ad[i*14+j] * dot
			if math.Abs(rd[i*14+j]-want) > 1e-9 {
				t.Fatalf("sddmm (%d,%d) = %v, want %v", i, j, rd[i*14+j], want)
			}
		}
	}
}

func TestSumsAndDiagonal(t *testing.T) {
	rt := newRT(t, 3)
	a := Random(rt, 30, 30, 0.25, 31)
	ad := a.ToDense()

	rows := a.SumAxis1().ToSlice()
	cols := a.SumAxis0().ToSlice()
	diag := a.Diagonal().ToSlice()
	for i := int64(0); i < 30; i++ {
		var rw, cw float64
		for j := int64(0); j < 30; j++ {
			rw += ad[i*30+j]
			cw += ad[j*30+i]
		}
		if math.Abs(rows[i]-rw) > 1e-10 {
			t.Fatalf("row sum %d = %v, want %v", i, rows[i], rw)
		}
		if math.Abs(cols[i]-cw) > 1e-10 {
			t.Fatalf("col sum %d = %v, want %v", i, cols[i], cw)
		}
		if math.Abs(diag[i]-ad[i*30+i]) > 1e-12 {
			t.Fatalf("diag %d wrong", i)
		}
	}
}

// TestFigure1Program runs the paper's opening example: build a random
// PSD matrix A = 0.5(R+Rᵀ) + nI, then estimate its largest eigenvalue by
// power iteration with the Rayleigh quotient — the full cross-library
// composition of Legate Sparse and cuNumeric.
func TestFigure1Program(t *testing.T) {
	rt := newRT(t, 3)
	n := int64(64)
	r := Random(rt, n, n, 0.1, 77)
	rT := r.Transpose()
	sym := Add(r, rT, 0.5, 0.5)
	a := Add(sym, Eye(rt, n), 1, float64(n))

	x := cunumeric.Random(rt, n, 123)
	for iter := 0; iter < 200; iter++ {
		y := a.SpMV(x)
		nrm := cunumeric.Norm(y)
		y.Scale(1 / nrm)
		x.Destroy()
		x = y
	}
	ax := a.SpMV(x)
	lambda := cunumeric.Dot(x, ax).Get()

	// Reference eigenvalue from dense power iteration.
	ad := a.ToDense()
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1
	}
	for iter := 0; iter < 200; iter++ {
		ys := denseMV(n, n, ad, xs)
		var nrm float64
		for _, v := range ys {
			nrm += v * v
		}
		nrm = math.Sqrt(nrm)
		for i := range ys {
			ys[i] /= nrm
		}
		xs = ys
	}
	ys := denseMV(n, n, ad, xs)
	var want float64
	for i := range xs {
		want += xs[i] * ys[i]
	}
	if math.Abs(lambda-want) > 1e-5*want {
		t.Fatalf("eigenvalue estimate %v, want %v", lambda, want)
	}
	// For A = 0.5(R+Rᵀ)+nI the dominant eigenvalue must be >= n.
	if lambda < float64(n) {
		t.Fatalf("eigenvalue %v below diagonal shift %d", lambda, n)
	}
}

func TestCSRCopyIndependent(t *testing.T) {
	rt := newRT(t, 1)
	a := Random(rt, 10, 10, 0.3, 50)
	b := a.Copy()
	a.Scale(2)
	ad, bd := a.ToDense(), b.ToDense()
	for i := range ad {
		if ad[i] != 2*bd[i] {
			t.Fatalf("copy not independent at %d", i)
		}
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	rt := newRT(t, 1)
	a := Random(rt, 5, 7, 0.5, 1)
	x := cunumeric.Zeros(rt, 5) // wrong length (needs 7)
	defer func() {
		if recover() == nil {
			t.Fatal("SpMV with wrong x length must panic")
		}
	}()
	a.SpMV(x)
}

func TestEmptyRowsAndMatrix(t *testing.T) {
	rt := newRT(t, 3)
	// A matrix with several empty rows.
	a := NewCSR(rt, 5, 5, []int64{0, 0, 2, 2, 3, 3}, []int64{1, 3, 0}, []float64{4, 5, 6})
	x := cunumeric.FromSlice(rt, []float64{1, 2, 3, 4, 5})
	got := a.SpMV(x).ToSlice()
	want := []float64{0, 4*2 + 5*4, 0, 6, 0}
	if !approx(got, want, 0) {
		t.Fatalf("spmv with empty rows = %v, want %v", got, want)
	}
	// Fully empty matrix.
	e := NewCSR(rt, 3, 3, []int64{0, 0, 0, 0}, nil, nil)
	if got := e.SpMV(cunumeric.FromSlice(rt, []float64{1, 1, 1})).ToSlice(); !approx(got, []float64{0, 0, 0}, 0) {
		t.Fatalf("empty spmv = %v", got)
	}
}

// TestPoisson3D: the 7-point operator is symmetric, diagonally dominant,
// and CG-solvable.
func TestPoisson3D(t *testing.T) {
	rt := newRT(t, 3)
	nx := int64(5)
	a := Poisson3D(rt, nx)
	n := nx * nx * nx
	if a.Rows() != n || a.Cols() != n {
		t.Fatalf("shape %v", a)
	}
	d := a.ToDense()
	for i := int64(0); i < n; i++ {
		if d[i*n+i] != 6 {
			t.Fatalf("diagonal %d = %v", i, d[i*n+i])
		}
		var off float64
		for j := int64(0); j < n; j++ {
			if d[i*n+j] != d[j*n+i] {
				t.Fatalf("not symmetric at (%d,%d)", i, j)
			}
			if i != j {
				off += math.Abs(d[i*n+j])
			}
		}
		if off > 6 {
			t.Fatalf("row %d not diagonally dominant: %v", i, off)
		}
	}
}

// TestTransposeViews: the zero-copy CSC/CSR transpose duality and the
// COO coordinate swap agree with the materializing transpose.
func TestTransposeViews(t *testing.T) {
	rt := newRT(t, 3)
	rng := rand.New(rand.NewSource(31))
	a := Random(rt, 23, 17, 0.3, 41)
	want := a.Transpose().ToDense()

	// CSC of A, viewed as CSR of Aᵀ, with a real SpMV through it.
	csc := a.ToCSC()
	view := csc.TransposeView()
	if r, c := view.Shape(); r != 17 || c != 23 {
		t.Fatalf("view shape %dx%d", r, c)
	}
	if !approx(view.ToDense(), want, 0) {
		t.Fatal("CSC transpose view differs from materialized transpose")
	}
	xs := randVec(rng, 23)
	x := cunumeric.FromSlice(rt, xs)
	got := view.SpMV(x).ToSlice()
	ref := denseMV(17, 23, want, xs)
	if !approx(got, ref, 1e-10) {
		t.Fatal("SpMV through transpose view wrong")
	}

	// CSR -> CSC view round-trips.
	back := a.TransposeView().TransposeView()
	if !approx(back.ToDense(), a.ToDense(), 0) {
		t.Fatal("double transpose view differs")
	}

	// COO transpose by coordinate swap.
	coot := a.ToCOO().Transpose()
	if !approx(coot.ToCSR().ToDense(), want, 0) {
		t.Fatal("COO transpose differs")
	}
}
