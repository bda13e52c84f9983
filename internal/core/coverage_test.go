package core

import (
	"strings"
	"testing"

	"repro/internal/distal"
)

// TestCoverageInventory checks the §5 taxonomy is populated and its
// proportions resemble the paper's: ported operations are the largest
// class, generated kernels exist for every hot tensor-algebra op — one
// entry per (op, format) the registry compiles — and a hand-written
// class covers structural operations.
func TestCoverageInventory(t *testing.T) {
	entries := Coverage()
	if len(entries) < 25 {
		t.Fatalf("inventory has %d entries; expected a substantial surface", len(entries))
	}
	counts := CoverageCounts()
	if counts[Generated] < 4 {
		t.Errorf("generated kernels = %d, want >= 4 (SpMV/SpMM/SDDMM/row-sum)", counts[Generated])
	}
	pairs := map[string]bool{}
	for _, k := range distal.Standard.Keys() { // op/format/target
		pairs[k[:strings.LastIndex(k, "/")]] = true
	}
	if counts[Generated] != len(pairs) {
		t.Errorf("generated entries = %d, want one per compiled (op, format): %d", counts[Generated], len(pairs))
	}
	if counts[Ported] <= counts[Generated] {
		t.Errorf("ported (%d) should be the largest class, as in the paper (156/176)", counts[Ported])
	}
	if counts[HandWritten] == 0 {
		t.Error("hand-written class must be non-empty")
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.Name == "" || e.Formats == "" {
			t.Errorf("entry %+v incomplete", e)
		}
		if seen[e.Name] {
			t.Errorf("duplicate entry %q", e.Name)
		}
		seen[e.Name] = true
		if e.Kind.String() == "?" {
			t.Errorf("entry %q has invalid kind", e.Name)
		}
	}
}
