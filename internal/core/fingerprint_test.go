package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestFingerprintTriplesOrderInvariant(t *testing.T) {
	fp1 := FingerprintTriples(3, 3,
		[]int64{0, 1, 2}, []int64{0, 1, 2}, []float64{1, 2, 3})
	fp2 := FingerprintTriples(3, 3,
		[]int64{2, 0, 1}, []int64{2, 0, 1}, []float64{3, 1, 2})
	if fp1 != fp2 {
		t.Error("reordered triples fingerprint differently")
	}
	fp3 := FingerprintTriples(3, 3,
		[]int64{0, 1, 2}, []int64{0, 1, 2}, []float64{1, 2, 4})
	if fp3 == fp1 {
		t.Error("different values fingerprint identically")
	}
	fp4 := FingerprintTriples(4, 3,
		[]int64{0, 1, 2}, []int64{0, 1, 2}, []float64{1, 2, 3})
	if fp4 == fp1 {
		t.Error("different shape fingerprints identically")
	}
}

// TestFingerprintPinned: fingerprints of a sorted, a shuffled and a
// duplicate-bearing triple set (with values that cancel) keep the values
// the sort-always canonicalization gave, and the duplicates sum to the
// same bits.
func TestFingerprintPinned(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, c := range []struct {
		name       string
		rows, cols int64
		r, c       []int64
		v          []float64
		want       Fingerprint
	}{
		{"sorted", 4, 5, []int64{0, 0, 1, 2, 3, 3}, []int64{1, 3, 0, 2, 0, 4},
			[]float64{1.5, -2.25, 3, 0.1, negZero, 1e-300}, 0x06089e8f4fbb50c2},
		{"shuffled", 4, 5, []int64{3, 0, 2, 3, 1, 0}, []int64{4, 3, 2, 0, 0, 1},
			[]float64{1e-300, -2.25, 0.1, negZero, 3, 1.5}, 0x06089e8f4fbb50c2},
		{"duplicates", 3, 3, []int64{1, 0, 1, 2, 1, 0, 2, 1}, []int64{1, 0, 1, 2, 1, 2, 2, 1},
			[]float64{0.1, 2, -0.1, 0.7, 0.3, 1, -0.7, 0.2}, 0xa4976af32e908b03},
	} {
		if got := FingerprintTriples(c.rows, c.cols, c.r, c.c, c.v); got != c.want {
			t.Errorf("%s: fingerprint %#016x, want %#016x", c.name, uint64(got), uint64(c.want))
		}
	}
	r, c, v := CanonicalTriples([]int64{1, 0, 1, 2, 1, 0, 2, 1}, []int64{1, 0, 1, 2, 1, 2, 2, 1},
		[]float64{0.1, 2, -0.1, 0.7, 0.3, 1, -0.7, 0.2})
	if !slices.Equal(r, []int64{0, 0, 1, 2}) || !slices.Equal(c, []int64{0, 2, 1, 2}) ||
		!slices.Equal(bits(v), []uint64{0x4000000000000000, 0x3ff0000000000000, 0x3fe0000000000000, 0}) {
		t.Errorf("canonical form %v %v %v", r, c, v)
	}
}

func bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestCanonicalizeFastPath: over random triples with duplicates, the
// sort's output is returned as it is by canonicalizeCOO (no copy). On
// the raw triples, on the sort's output and on that output with one
// entry repeated, canonicalizeCOO and CanonicalTriples equal the sort
// bit for bit, and CanonicalTriples never aliases its input.
func TestCanonicalizeFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		r, c, v := make([]int64, n), make([]int64, n), make([]float64, n)
		for i := range r {
			r[i], c[i], v[i] = rng.Int63n(6), rng.Int63n(6), rng.NormFloat64()
		}
		sr, sc, sv := sortCOO(r, c, v)
		if fr, fc, fv := canonicalizeCOO(sr, sc, sv); &fr[0] != &sr[0] || &fc[0] != &sc[0] || &fv[0] != &sv[0] {
			t.Fatalf("trial %d: canonical triples were copied", trial)
		}
		k := rng.Intn(len(sr))
		dr, dc, dv := slices.Insert(slices.Clip(sr), k, sr[k]), slices.Insert(slices.Clip(sc), k, sc[k]), slices.Insert(slices.Clip(sv), k, sv[k])
		for _, in := range []struct {
			r, c []int64
			v    []float64
		}{{r, c, v}, {sr, sc, sv}, {dr, dc, dv}} {
			wr, wc, wv := sortCOO(in.r, in.c, in.v)
			fr, fc, fv := canonicalizeCOO(in.r, in.c, in.v)
			cr, cc, cv := CanonicalTriples(in.r, in.c, in.v)
			for _, got := range []struct {
				r, c []int64
				v    []float64
			}{{fr, fc, fv}, {cr, cc, cv}} {
				if !slices.Equal(got.r, wr) || !slices.Equal(got.c, wc) || !slices.Equal(bits(got.v), bits(wv)) {
					t.Fatalf("trial %d: %v %v %v canonicalized to %v %v %v, the sort gives %v %v %v",
						trial, in.r, in.c, in.v, got.r, got.c, got.v, wr, wc, wv)
				}
			}
			if &cr[0] == &in.r[0] || &cc[0] == &in.c[0] || &cv[0] == &in.v[0] {
				t.Fatalf("trial %d: CanonicalTriples aliases its input", trial)
			}
		}
	}
}
