package distal

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geometry"
)

// randomCSR builds a random rows x cols CSR operand with the given
// nonzero density plus a dense reference matrix.
func randomCSR(rng *rand.Rand, rows, cols int64, density float64) (*Operand, [][]float64) {
	op := &Operand{Pos: make([]geometry.Rect, rows)}
	ref := make([][]float64, rows)
	for i := int64(0); i < rows; i++ {
		ref[i] = make([]float64, cols)
		lo := int64(len(op.Crd))
		for j := int64(0); j < cols; j++ {
			if rng.Float64() < density {
				v := rng.NormFloat64()
				op.Crd = append(op.Crd, j)
				op.Vals = append(op.Vals, v)
				ref[i][j] = v
			}
		}
		op.Pos[i] = geometry.NewRect(lo, int64(len(op.Crd))-1)
	}
	return op, ref
}

func denseVec(rng *rand.Rand, n int64) *Operand {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return &Operand{Vals: v}
}

func denseMat(rng *rand.Rand, rows, cols int64) *Operand {
	v := make([]float64, rows*cols)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return &Operand{Vals: v, Stride: cols}
}

func approxEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestStandardRegistryComplete(t *testing.T) {
	keys := Standard.Keys()
	// spmv over 5 formats + 3 CSR-only operations, x 2 processor
	// varieties.
	if len(keys) != 16 {
		t.Fatalf("registry has %d variants, want 16: %v", len(keys), keys)
	}
	for _, op := range []string{"spmv", "spmm", "sddmm", "row_sum"} {
		for _, tgt := range []Target{CPUThread, GPUThread} {
			if _, ok := Standard.Lookup(op, CSR, tgt); !ok {
				t.Errorf("missing variant %s/%v", op, tgt)
			}
		}
	}
	for _, f := range []Format{CSC, COO, DIA, BSR} {
		for _, tgt := range []Target{CPUThread, GPUThread} {
			if _, ok := Standard.Lookup("spmv", f, tgt); !ok {
				t.Errorf("missing %v spmv variant for %v", f, tgt)
			}
		}
	}
	if _, ok := Standard.Lookup("spmv", DenseMatrix, CPUThread); ok {
		t.Error("lookup with wrong format must miss")
	}
	// CSR and CSC share a level stack; the ordering must keep their keys
	// distinct (the registry mislabeling this layout fixes).
	csr, _ := Standard.Lookup("spmv", CSR, CPUThread)
	csc, _ := Standard.Lookup("spmv", CSC, CPUThread)
	if csr == csc {
		t.Error("CSR and CSC spmv variants must be distinct registry entries")
	}
	if csc.Pattern != "spmv-col" {
		t.Errorf("CSC spmv pattern = %q, want spmv-col", csc.Pattern)
	}
	// Dispatch ignores the label: CSC's stack and ordering under another
	// name finds the CSC kernel.
	renamed := Format{Name: "colmajor", Modes: CSC.Modes, Ordering: CSC.Ordering}
	if k, ok := Standard.Lookup("spmv", renamed, CPUThread); !ok || k != csc {
		t.Errorf("lookup of %v found %v (ok=%v), want the CSC kernel", renamed, k, ok)
	}
}

func TestCompileRejectsUnsupported(t *testing.T) {
	i, j := IndexVar("i"), IndexVar("j")
	_, err := Compile(Program{
		Name:    "bad",
		Compute: Assign{LHS: A("y", i), RHS: []Access{A("A", i, j), A("B", i, j)}},
		Formats: map[string]Format{"y": DenseVector, "A": CSR, "B": CSR},
	})
	if err == nil {
		t.Fatal("two sparse operands must be rejected")
	}
	if _, ok := err.(*CompileError); !ok {
		t.Fatalf("error type %T", err)
	}
	// The SpMV rule takes any sparse stack, but only stacks with a loop
	// nest compile.
	twoCompressed := Format{Name: "DCSR", Modes: []Mode{Compressed, Compressed}}
	if _, err := Compile(Program{
		Name:     "dcsr",
		Compute:  Assign{LHS: A("y", i), RHS: []Access{A("A", i, j), A("x", j)}},
		Formats:  map[string]Format{"y": DenseVector, "A": twoCompressed, "x": DenseVector},
		Schedule: Schedule{}.Divide(i, "io", "ii").Distribute("io"),
	}); err == nil || !strings.Contains(err.Error(), "loop nest") {
		t.Fatalf("an spmv over a stack with no loop nest must be rejected, got %v", err)
	}
}

func TestCompileValidation(t *testing.T) {
	i, j := IndexVar("i"), IndexVar("j")
	// Missing format.
	if _, err := Compile(Program{
		Name:    "missing",
		Compute: Assign{LHS: A("y", i), RHS: []Access{A("A", i, j), A("x", j)}},
		Formats: map[string]Format{"y": DenseVector, "x": DenseVector},
	}); err == nil {
		t.Error("missing format must be rejected")
	}
	// Arity mismatch.
	if _, err := Compile(Program{
		Name:    "arity",
		Compute: Assign{LHS: A("y", i), RHS: []Access{A("A", i), A("x", j)}},
		Formats: map[string]Format{"y": DenseVector, "A": CSR, "x": DenseVector},
	}); err == nil {
		t.Error("arity mismatch must be rejected")
	}
	// Empty RHS.
	if _, err := Compile(Program{
		Name:    "empty",
		Compute: Assign{LHS: A("y", i)},
		Formats: map[string]Format{"y": DenseVector},
	}); err == nil {
		t.Error("empty RHS must be rejected")
	}
}

// TestSpMVAgainstDenseReference: the generated row-split SpMV matches a
// naive dense matvec on random matrices.
func TestSpMVAgainstDenseReference(t *testing.T) {
	k := Standard.MustLookup("spmv", CSR, CPUThread)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := int64(1+rng.Intn(30)), int64(1+rng.Intn(30))
		Aop, ref := randomCSR(rng, rows, cols, 0.3)
		x := denseVec(rng, cols)
		y := &Operand{Vals: make([]float64, rows)}
		k.Exec(&Args{Ops: map[string]*Operand{"y": y, "A": Aop, "x": x}, Lo: 0, Hi: rows - 1})
		want := make([]float64, rows)
		for i := int64(0); i < rows; i++ {
			for j := int64(0); j < cols; j++ {
				want[i] += ref[i][j] * x.Vals[j]
			}
		}
		return approxEqual(y.Vals, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSpMVColumnScatter: the CSC-style scatter kernel computes yᵀ = xᵀA
// when the operand stores A's pattern compressed over rows of the
// transpose.
func TestSpMVColumnScatter(t *testing.T) {
	k := Standard.MustLookup("spmv", CSC, CPUThread)
	rng := rand.New(rand.NewSource(7))
	rows, cols := int64(25), int64(19)
	Aop, ref := randomCSR(rng, rows, cols, 0.25)
	x := denseVec(rng, rows)
	y := &Operand{Vals: make([]float64, cols)}
	k.Exec(&Args{Ops: map[string]*Operand{"y": y, "A": Aop, "x": x}, Lo: 0, Hi: rows - 1})
	want := make([]float64, cols)
	for i := int64(0); i < rows; i++ {
		for j := int64(0); j < cols; j++ {
			want[j] += ref[i][j] * x.Vals[i]
		}
	}
	if !approxEqual(y.Vals, want, 1e-9) {
		t.Fatal("column-scatter SpMV mismatch")
	}
	// With an explicit accumulator (aliased output), results must agree.
	y2 := make([]float64, cols)
	k.Exec(&Args{
		Ops: map[string]*Operand{"y": {Vals: nil}, "A": Aop, "x": x},
		Lo:  0, Hi: rows - 1,
		Accum: func(idx int64, v float64) { y2[idx] += v },
	})
	if !approxEqual(y2, want, 1e-9) {
		t.Fatal("accumulator path mismatch")
	}
}

func TestSpMMAgainstReference(t *testing.T) {
	k := Standard.MustLookup("spmm", CSR, GPUThread)
	rng := rand.New(rand.NewSource(3))
	rows, inner, cols := int64(17), int64(23), int64(9)
	Aop, ref := randomCSR(rng, rows, inner, 0.3)
	X := denseMat(rng, inner, cols)
	Y := &Operand{Vals: make([]float64, rows*cols), Stride: cols}
	k.Exec(&Args{Ops: map[string]*Operand{"Y": Y, "A": Aop, "X": X}, Lo: 0, Hi: rows - 1})
	for i := int64(0); i < rows; i++ {
		for c := int64(0); c < cols; c++ {
			var want float64
			for j := int64(0); j < inner; j++ {
				want += ref[i][j] * X.Vals[j*cols+c]
			}
			if math.Abs(Y.Vals[i*cols+c]-want) > 1e-9 {
				t.Fatalf("Y[%d,%d] = %v, want %v", i, c, Y.Vals[i*cols+c], want)
			}
		}
	}
}

// TestSDDMMIdentity: SDDMM with an all-ones sparse pattern over the full
// matrix equals the dense product B·Cᵀ sampled everywhere.
func TestSDDMMIdentity(t *testing.T) {
	k := Standard.MustLookup("sddmm", CSR, CPUThread)
	rng := rand.New(rand.NewSource(11))
	rows, cols, kk := int64(12), int64(8), int64(5)
	// Dense pattern with unit values.
	Aop := &Operand{Pos: make([]geometry.Rect, rows)}
	for i := int64(0); i < rows; i++ {
		lo := int64(len(Aop.Crd))
		for j := int64(0); j < cols; j++ {
			Aop.Crd = append(Aop.Crd, j)
			Aop.Vals = append(Aop.Vals, 1)
		}
		Aop.Pos[i] = geometry.NewRect(lo, int64(len(Aop.Crd))-1)
	}
	B := denseMat(rng, rows, kk)
	C := denseMat(rng, cols, kk)
	R := &Operand{Pos: Aop.Pos, Crd: Aop.Crd, Vals: make([]float64, len(Aop.Vals))}
	k.Exec(&Args{Ops: map[string]*Operand{"R": R, "A": Aop, "B": B, "C": C}, Lo: 0, Hi: rows - 1})
	for i := int64(0); i < rows; i++ {
		for j := int64(0); j < cols; j++ {
			var want float64
			for q := int64(0); q < kk; q++ {
				want += B.Vals[i*kk+q] * C.Vals[j*kk+q]
			}
			got := R.Vals[i*cols+j]
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("R[%d,%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestRowReduce(t *testing.T) {
	k := Standard.MustLookup("row_sum", CSR, CPUThread)
	rng := rand.New(rand.NewSource(5))
	Aop, ref := randomCSR(rng, 20, 15, 0.4)
	y := &Operand{Vals: make([]float64, 20)}
	k.Exec(&Args{Ops: map[string]*Operand{"y": y, "A": Aop}, Lo: 0, Hi: 19})
	for i := range ref {
		var want float64
		for _, v := range ref[i] {
			want += v
		}
		if math.Abs(y.Vals[i]-want) > 1e-9 {
			t.Fatalf("row %d sum = %v, want %v", i, y.Vals[i], want)
		}
	}
}

// TestPartialRangeExecution: kernels honor the [Lo,Hi] distributed tile,
// leaving other rows untouched (the contract the runtime's partitioning
// relies on).
func TestPartialRangeExecution(t *testing.T) {
	k := Standard.MustLookup("spmv", CSR, CPUThread)
	rng := rand.New(rand.NewSource(9))
	Aop, _ := randomCSR(rng, 10, 10, 0.5)
	x := denseVec(rng, 10)
	y := &Operand{Vals: make([]float64, 10)}
	for i := range y.Vals {
		y.Vals[i] = math.NaN()
	}
	k.Exec(&Args{Ops: map[string]*Operand{"y": y, "A": Aop, "x": x}, Lo: 3, Hi: 6})
	for i := 0; i < 10; i++ {
		inside := i >= 3 && i <= 6
		if inside && math.IsNaN(y.Vals[i]) {
			t.Errorf("row %d should have been computed", i)
		}
		if !inside && !math.IsNaN(y.Vals[i]) {
			t.Errorf("row %d outside tile was written", i)
		}
	}
}

// TestDIASpMVKernel: the diagonal-format template matches a dense
// reference on a banded matrix.
func TestDIASpMVKernel(t *testing.T) {
	k := Standard.MustLookup("spmv", DIA, CPUThread)
	if k.Pattern != "spmv-dia" {
		t.Fatalf("pattern = %q", k.Pattern)
	}
	rng := rand.New(rand.NewSource(17))
	n := int64(20)
	offsets := []int64{-2, 0, 1}
	vals := make([]float64, int64(len(offsets))*n)
	dense := make([]float64, n*n)
	for d, off := range offsets {
		for j := int64(0); j < n; j++ {
			i := j - off
			if i < 0 || i >= n {
				continue
			}
			v := rng.NormFloat64()
			vals[int64(d)*n+j] = v
			dense[i*n+j] = v
		}
	}
	x := denseVec(rng, n)
	y := &Operand{Vals: make([]float64, n)}
	args := &Args{Ops: map[string]*Operand{
		"y": y,
		"A": {Vals: vals, Stride: n, Offsets: offsets},
		"x": x,
	}, Lo: 0, Hi: n - 1}
	k.Exec(args)
	for i := int64(0); i < n; i++ {
		var want float64
		for j := int64(0); j < n; j++ {
			want += dense[i*n+j] * x.Vals[j]
		}
		if math.Abs(y.Vals[i]-want) > 1e-10 {
			t.Fatalf("y[%d] = %v, want %v", i, y.Vals[i], want)
		}
	}
}

// TestCOOSpMVKernel: the coordinate-format scatter template matches a
// dense reference, through both the direct store and the accumulator
// path (aliased output partitions).
func TestCOOSpMVKernel(t *testing.T) {
	k := Standard.MustLookup("spmv", COO, CPUThread)
	if k.Pattern != "spmv-coo" {
		t.Fatalf("pattern = %q", k.Pattern)
	}
	rng := rand.New(rand.NewSource(23))
	rows, cols := int64(18), int64(14)
	csr, ref := randomCSR(rng, rows, cols, 0.3)
	// Expand the CSR fixture into coordinate arrays.
	Aop := &Operand{Vals: csr.Vals}
	for i := int64(0); i < rows; i++ {
		for kk := csr.Pos[i].Lo; kk <= csr.Pos[i].Hi; kk++ {
			Aop.Crd = append(Aop.Crd, i)
			Aop.Crd2 = append(Aop.Crd2, csr.Crd[kk])
		}
	}
	nnz := int64(len(Aop.Crd))
	x := denseVec(rng, cols)
	want := make([]float64, rows)
	for i := int64(0); i < rows; i++ {
		for j := int64(0); j < cols; j++ {
			want[i] += ref[i][j] * x.Vals[j]
		}
	}
	y := &Operand{Vals: make([]float64, rows)}
	args := &Args{Ops: map[string]*Operand{"y": y, "A": Aop, "x": x}, Lo: 0, Hi: nnz - 1}
	k.Exec(args)
	if !approxEqual(y.Vals, want, 1e-9) {
		t.Fatal("COO SpMV mismatch")
	}
	y2 := make([]float64, rows)
	k.Exec(&Args{
		Ops: map[string]*Operand{"y": {}, "A": Aop, "x": x},
		Lo:  0, Hi: nnz - 1,
		Accum: func(idx int64, v float64) { y2[idx] += v },
	})
	if !approxEqual(y2, want, 1e-9) {
		t.Fatal("COO accumulator path mismatch")
	}
}

// TestBSRSpMVKernel: the blocked template matches a dense reference and
// honors the block-row tile, zeroing only its own element rows.
func TestBSRSpMVKernel(t *testing.T) {
	k := Standard.MustLookup("spmv", BSR, CPUThread)
	if k.Pattern != "spmv-bsr" {
		t.Fatalf("pattern = %q", k.Pattern)
	}
	rng := rand.New(rand.NewSource(31))
	bs, bRows, bCols := int64(3), int64(6), int64(5)
	n, m := bRows*bs, bCols*bs
	dense := make([]float64, n*m)
	Aop := &Operand{Pos: make([]geometry.Rect, bRows), BlockSize: bs}
	for br := int64(0); br < bRows; br++ {
		lo := int64(len(Aop.Crd))
		for bc := int64(0); bc < bCols; bc++ {
			if rng.Float64() > 0.4 {
				continue
			}
			Aop.Crd = append(Aop.Crd, bc)
			for bi := int64(0); bi < bs; bi++ {
				for bj := int64(0); bj < bs; bj++ {
					v := rng.NormFloat64()
					Aop.Vals = append(Aop.Vals, v)
					dense[(br*bs+bi)*m+bc*bs+bj] = v
				}
			}
		}
		Aop.Pos[br] = geometry.NewRect(lo, int64(len(Aop.Crd))-1)
	}
	x := denseVec(rng, m)
	want := make([]float64, n)
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < m; j++ {
			want[i] += dense[i*m+j] * x.Vals[j]
		}
	}
	// Stale output values inside the tile must be overwritten (the
	// kernel zeroes its own rows); rows outside stay untouched.
	y := &Operand{Vals: make([]float64, n)}
	for i := range y.Vals {
		y.Vals[i] = math.NaN()
	}
	args := &Args{Ops: map[string]*Operand{"y": y, "A": Aop, "x": x}, Lo: 1, Hi: bRows - 2}
	k.Exec(args)
	for i := int64(0); i < n; i++ {
		inside := i >= bs && i < (bRows-1)*bs
		if inside && math.Abs(y.Vals[i]-want[i]) > 1e-9 {
			t.Fatalf("y[%d] = %v, want %v", i, y.Vals[i], want[i])
		}
		if !inside && !math.IsNaN(y.Vals[i]) {
			t.Fatalf("row %d outside the block-row tile was written", i)
		}
	}
}

func TestProgramStrings(t *testing.T) {
	i, j := IndexVar("i"), IndexVar("j")
	asn := Assign{LHS: A("y", i), RHS: []Access{A("A", i, j), A("x", j)}}
	if asn.String() != "y(i) = A(i,j) * x(j)" {
		t.Errorf("Assign.String = %q", asn.String())
	}
	if CSR.String() != "CSR{Dense,Compressed}" {
		t.Errorf("CSR.String = %q", CSR.String())
	}
	if CSC.String() != "CSC{Dense,Compressed}" {
		t.Errorf("CSC.String = %q", CSC.String())
	}
	if CSR.Equal(CSC) {
		t.Error("CSR must not equal CSC despite identical level modes")
	}
}

// TestScheduleValidation: the Figure 6 scheduling discipline is
// enforced — distribute needs a prior divide, and only one parallelize
// directive is allowed.
func TestScheduleValidation(t *testing.T) {
	i, j := IndexVar("i"), IndexVar("j")
	io, ii := IndexVar("io"), IndexVar("ii")
	spmv := func(sched Schedule) Program {
		return Program{
			Name:     "sched",
			Compute:  Assign{LHS: A("y", i), RHS: []Access{A("A", i, j), A("x", j)}},
			Formats:  map[string]Format{"y": DenseVector, "A": CSR, "x": DenseVector},
			Schedule: sched,
		}
	}
	// Missing divide/distribute.
	if _, err := Compile(spmv(Schedule{}.Parallelize(ii, CPUThread))); err == nil {
		t.Error("schedule without divide+distribute must be rejected")
	}
	// Distribute of an un-divided variable.
	bad := Schedule{}.Divide(i, io, ii).Distribute(ii).Parallelize(ii, CPUThread)
	if _, err := Compile(spmv(bad)); err == nil {
		t.Error("distribute of an inner (un-divided) variable must be rejected")
	}
	// Two parallelize directives.
	twice := Schedule{}.Divide(i, io, ii).Distribute(io).
		Parallelize(ii, CPUThread).Parallelize(io, GPUThread)
	if _, err := Compile(spmv(twice)); err == nil {
		t.Error("double parallelize must be rejected")
	}
	// The canonical schedule compiles.
	good := Schedule{}.Divide(i, io, ii).Distribute(io).Communicate(io).Parallelize(ii, GPUThread)
	k, err := Compile(spmv(good))
	if err != nil {
		t.Fatalf("canonical schedule rejected: %v", err)
	}
	if k.Target != GPUThread {
		t.Errorf("target = %v", k.Target)
	}
}
