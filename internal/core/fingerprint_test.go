package core

import "testing"

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
