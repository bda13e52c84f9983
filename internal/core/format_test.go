package core

import (
	"math/rand"
	"testing"

	"repro/internal/cunumeric"
	"repro/internal/distal"
)

// hostTriples flattens a CSR matrix to sorted (row, col, val) triples
// for exact structural comparison.
func hostTriples(a *CSR) ([]int64, []int64, []float64) {
	pos, crd, vals := a.hostCSR()
	var r, c []int64
	var v []float64
	for i := int64(0); i < a.rows; i++ {
		for k := pos[i].Lo; k <= pos[i].Hi; k++ {
			r = append(r, i)
			c = append(c, crd[k])
			v = append(v, vals[k])
		}
	}
	return r, c, v
}

func sameTriples(t *testing.T, label string, a, b *CSR) {
	t.Helper()
	ar, ac, av := hostTriples(a)
	br, bc, bv := hostTriples(b)
	if len(ar) != len(br) {
		t.Fatalf("%s: nnz %d != %d", label, len(ar), len(br))
	}
	for k := range ar {
		if ar[k] != br[k] || ac[k] != bc[k] || av[k] != bv[k] {
			t.Fatalf("%s: entry %d differs: (%d,%d,%v) vs (%d,%d,%v)",
				label, k, ar[k], ac[k], av[k], br[k], bc[k], bv[k])
		}
	}
}

// TestFormatRoundTrips: converting a random CSR matrix to every other
// format and back preserves shape, nnz, and values exactly. Dimensions
// are block multiples so ToBSR does not pad.
func TestFormatRoundTrips(t *testing.T) {
	rt := newRT(t, 3)
	for _, seed := range []uint64{3, 11, 42} {
		a := Random(rt, 24, 16, 0.2, seed)
		rows, cols := a.Shape()

		coo := a.ToCOO()
		if r, c := coo.Shape(); r != rows || c != cols {
			t.Fatalf("COO shape (%d,%d)", r, c)
		}
		if coo.NNZ() != a.NNZ() {
			t.Fatalf("COO nnz %d != %d", coo.NNZ(), a.NNZ())
		}
		sameTriples(t, "ToCOO->ToCSR", a, coo.ToCSR())

		csc := a.ToCSC()
		if r, c := csc.Shape(); r != rows || c != cols {
			t.Fatalf("CSC shape (%d,%d)", r, c)
		}
		if csc.NNZ() != a.NNZ() {
			t.Fatalf("CSC nnz %d != %d", csc.NNZ(), a.NNZ())
		}
		sameTriples(t, "ToCSC->ToCSR", a, csc.ToCSR())

		dia := a.ToDIA()
		if r, c := dia.Shape(); r != rows || c != cols {
			t.Fatalf("DIA shape (%d,%d)", r, c)
		}
		sameTriples(t, "ToDIA->ToCSR", a, dia.ToCSR())

		bsr := a.ToBSR(4)
		if r, c := bsr.Shape(); r != rows || c != cols {
			t.Fatalf("BSR shape (%d,%d): dims were block multiples, no padding expected", r, c)
		}
		sameTriples(t, "ToBSR->ToCSR", a, bsr.ToCSR())
	}
}

// TestFormatSpMVBitAgreement: SpMV dispatched through every format's
// compiled kernel agrees with the CSR result. DIA iterates each row's
// stored columns in the same ascending order as CSR (explicit zeros add
// +0.0, which cannot change a float64 sum), and BSR with blockSize 1
// performs the identical accumulation chain — both are required to be
// bit-for-bit equal. COO and CSC scatter through atomic reductions and
// blockSize > 1 re-associates per block, so those match to roundoff.
func TestFormatSpMVBitAgreement(t *testing.T) {
	rt := newRT(t, 4)
	rng := rand.New(rand.NewSource(7))
	for _, seed := range []uint64{5, 19} {
		a := Random(rt, 36, 24, 0.25, seed)
		x := cunumeric.FromSlice(rt, randVec(rng, 24))
		rt.Fence()
		want := a.SpMV(x)
		rt.Fence()
		ref := want.ToSlice()

		exact := map[string]SparseMatrix{
			"dia":  a.ToDIA(),
			"bsr1": a.ToBSR(1),
		}
		for name, m := range exact {
			got := m.SpMV(x)
			rt.Fence()
			gv := got.ToSlice()
			for i := range ref {
				if gv[i] != ref[i] {
					t.Fatalf("%s SpMV[%d] = %v, want bit-identical %v", name, i, gv[i], ref[i])
				}
			}
			got.Destroy()
			m.Destroy()
		}

		approxFmts := map[string]SparseMatrix{
			"coo":  a.ToCOO(),
			"csc":  a.ToCSC(),
			"bsr4": a.ToBSR(4),
		}
		for name, m := range approxFmts {
			got := m.SpMV(x)
			rt.Fence()
			if !approx(got.ToSlice(), ref, 1e-12) {
				t.Fatalf("%s SpMV disagrees with CSR beyond roundoff", name)
			}
			got.Destroy()
			m.Destroy()
		}
		want.Destroy()
		x.Destroy()
		a.Destroy()
	}
}

// TestFormatSpecs: every format's spec is self-consistent — the pack
// layout matches the regions the matrix exposes, the DISTAL tag has a
// registered spmv variant, and the level modes match the format.
func TestFormatSpecs(t *testing.T) {
	rt := newRT(t, 2)
	a := Random(rt, 16, 16, 0.3, 1)
	ms := []SparseMatrix{a, a.ToCSC(), a.ToCOO(), a.ToDIA(), a.ToBSR(2)}
	for _, m := range ms {
		spec := m.Spec()
		pack := m.Pack()
		if len(pack) != len(spec.PackFields) {
			t.Fatalf("%s: pack has %d regions, spec %d fields", spec.Name, len(pack), len(spec.PackFields))
		}
		for i, f := range spec.PackFields {
			if pack[i].Type() != f.Type {
				t.Fatalf("%s: pack[%d] (%s) has type %v, spec wants %v",
					spec.Name, i, f.Name, pack[i].Type(), f.Type)
			}
		}
		if len(spec.Levels()) != 2 {
			t.Fatalf("%s: %d level modes, want 2", spec.Name, len(spec.Levels()))
		}
		if _, ok := distal.Standard.Lookup("spmv", spec.Distal, distal.CPUThread); !ok {
			t.Fatalf("%s: no compiled spmv variant under %v", spec.Name, spec.Distal)
		}
		if spec.Scatter() != (spec.Name == "csc" || spec.Name == "coo") {
			t.Fatalf("%s: scatter = %v", spec.Name, spec.Scatter())
		}
	}
}

// TestFromPack: converting by name and then assembling the result from
// its own region pack and meta (the interop path) yields the same SpMV
// as the original for every format; an unknown name and a BSR block
// size that does not divide the shape are errors.
func TestFromPack(t *testing.T) {
	rt := newRT(t, 3)
	rng := rand.New(rand.NewSource(9))
	a := Random(rt, 20, 20, 0.3, 4)
	x := cunumeric.FromSlice(rt, randVec(rng, 20))
	rt.Fence()
	ref := a.SpMV(x)
	rt.Fence()
	want := ref.ToSlice()

	for _, tc := range []struct {
		format string
		block  int64
		err    bool
	}{
		{"csr", 0, false},
		{"csc", 0, false},
		{"coo", 0, false},
		{"dia", 0, false},
		{"bsr", 2, false},
		{"ellpack", 0, true},
		{"bsr", 3, true},
	} {
		m, err := Convert(a, tc.format, tc.block)
		if tc.err {
			if err == nil {
				t.Fatalf("Convert(%s, block %d) succeeded, want an error", tc.format, tc.block)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Convert(%s): %v", tc.format, err)
		}
		if m.Spec().Name != tc.format {
			t.Fatalf("Convert(%s) built %s", tc.format, m.Spec().Name)
		}
		rows, cols := m.Shape()
		re := FromPack(rt, m.Spec(), rows, cols, m.Pack(), m.Meta())
		got := re.SpMV(x)
		rt.Fence()
		if !approx(got.ToSlice(), want, 1e-12) {
			t.Fatalf("FromPack(%s) SpMV disagrees", tc.format)
		}
		got.Destroy()
	}

	defer func() {
		if recover() == nil {
			t.Fatal("FromPack with a wrong-size pack did not panic")
		}
	}()
	FromPack(rt, CSRSpec, 20, 20, a.Pack()[:2], PackMeta{})
}

// TestExportHost: the host export matches the device matrix entry for
// entry in SciPy's indptr/indices/data layout.
func TestExportHost(t *testing.T) {
	rt := newRT(t, 2)
	indptr := []int64{0, 2, 3, 5}
	indices := []int64{0, 2, 1, 0, 2}
	data := []float64{1, 2, 3, 4, 5}
	a := NewCSR(rt, 3, 3, indptr, indices, data)
	h := a.ExportHost()
	if h.Rows != 3 || h.Cols != 3 {
		t.Fatalf("shape (%d,%d)", h.Rows, h.Cols)
	}
	for i, v := range indptr {
		if h.Indptr[i] != v {
			t.Fatalf("indptr[%d] = %d, want %d", i, h.Indptr[i], v)
		}
	}
	for k := range indices {
		if h.Indices[k] != indices[k] || h.Data[k] != data[k] {
			t.Fatalf("entry %d: (%d,%v), want (%d,%v)", k, h.Indices[k], h.Data[k], indices[k], data[k])
		}
	}
}
