package engine

// Direct unit tests for the matrix store: content addressing (the
// fingerprints that key binding caches), re-upload invalidation via
// revisions, and the listing surface.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestStoreFingerprintContentAddressed: the fingerprint is a function
// of canonicalized content, not of triple order or duplicate layout —
// permuted and duplicate-split uploads of the same matrix collide on
// purpose, while any value change separates them.
func TestStoreFingerprintContentAddressed(t *testing.T) {
	s := NewStore()
	a, _ := s.Put("a", 3, 3, []int64{0, 1, 2}, []int64{0, 1, 2}, []float64{1, 2, 3})
	// Same triples, permuted.
	b, _ := s.Put("b", 3, 3, []int64{2, 0, 1}, []int64{2, 0, 1}, []float64{3, 1, 2})
	if a.FP != b.FP {
		t.Fatalf("permuted upload changed the fingerprint: %x vs %x", a.FP, b.FP)
	}
	// Duplicates that sum to the same entries.
	c, _ := s.Put("c", 3, 3, []int64{0, 0, 1, 2}, []int64{0, 0, 1, 2}, []float64{0.5, 0.5, 2, 3})
	if a.FP != c.FP {
		t.Fatalf("dup-summed upload changed the fingerprint: %x vs %x", a.FP, c.FP)
	}
	// A value change must separate.
	d, _ := s.Put("d", 3, 3, []int64{0, 1, 2}, []int64{0, 1, 2}, []float64{1, 2, 4})
	if a.FP == d.FP {
		t.Fatal("different values collided on one fingerprint")
	}
	// Same triples on a different shape must separate too.
	e, _ := s.Put("e", 4, 4, []int64{0, 1, 2}, []int64{0, 1, 2}, []float64{1, 2, 3})
	if a.FP == e.FP {
		t.Fatal("different shapes collided on one fingerprint")
	}
}

// TestStoreReuploadBumpsRevision: replacing a name bumps both the
// definition's revision and the store revision workers watch, and the
// fingerprint tracks the new contents.
func TestStoreReuploadBumpsRevision(t *testing.T) {
	s := NewStore()
	first, replaced := s.Put("m", 2, 2, []int64{0, 1}, []int64{0, 1}, []float64{2, 2})
	if replaced != nil {
		t.Fatal("a new name replaced a definition")
	}
	rev0 := s.Rev()
	if first.Revision != rev0 {
		t.Fatalf("definition revision %d != store revision %d", first.Revision, rev0)
	}
	second, prev := s.Put("m", 2, 2, []int64{0, 1}, []int64{0, 1}, []float64{4, 4})
	if prev != first {
		t.Fatal("re-upload did not return the definition it replaced")
	}
	if second.Revision <= first.Revision || s.Rev() <= rev0 {
		t.Fatalf("re-upload did not advance revisions: %d -> %d (store %d -> %d)",
			first.Revision, second.Revision, rev0, s.Rev())
	}
	if first.FP == second.FP {
		t.Fatal("re-upload with different values kept the old fingerprint")
	}
	got, err := s.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	if got != second {
		t.Fatal("Get returned a stale definition after re-upload")
	}
	// An identical re-upload still bumps the revision (workers re-bind),
	// but the fingerprint is stable.
	third, _ := s.Put("m", 2, 2, []int64{0, 1}, []int64{0, 1}, []float64{4, 4})
	if third.Revision <= second.Revision {
		t.Fatal("identical re-upload did not advance the revision")
	}
	if third.FP != second.FP {
		t.Fatal("identical re-upload changed the fingerprint")
	}
}

// TestStoreUploadIsolation: Put copies its slices — mutating the
// caller's buffers afterwards must not reach stored state.
func TestStoreUploadIsolation(t *testing.T) {
	s := NewStore()
	r := []int64{0, 1}
	c := []int64{0, 1}
	v := []float64{1, 1}
	d, _ := s.Put("m", 2, 2, r, c, v)
	v[0] = 99
	r[0] = 1
	if d.Val[0] != 1 || d.Row[0] != 0 {
		t.Fatal("stored definition aliases the caller's upload buffers")
	}
	if d.FP != core.FingerprintTriples(2, 2, []int64{0, 1}, []int64{0, 1}, []float64{1, 1}) {
		t.Fatal("fingerprint does not match the snapshotted contents")
	}
}

// TestStoreListing: List returns uploads and materialized presets
// sorted by name, with preset/NNZ/fingerprint metadata filled in; Peek
// sees a preset only once Get has materialized it.
func TestStoreListing(t *testing.T) {
	s := NewStore()
	s.Put("zeta", 2, 2, []int64{0}, []int64{0}, []float64{1})
	if s.Peek("eye:4") != nil || len(s.List()) != 1 {
		t.Fatal("Peek materialized a preset")
	}
	d, err := s.Get("eye:4")
	if err != nil {
		t.Fatal(err)
	}
	if s.Peek("eye:4") != d {
		t.Fatal("Peek does not return the materialized preset")
	}
	s.Put("alpha", 2, 2, []int64{1}, []int64{1}, []float64{5})

	list := s.List()
	if len(list) != 3 {
		t.Fatalf("listing has %d rows, want 3: %+v", len(list), list)
	}
	wantNames := []string{"alpha", "eye:4", "zeta"}
	for i, n := range wantNames {
		if list[i].Name != n {
			t.Fatalf("listing order %v, want %v", list, wantNames)
		}
	}
	for _, row := range list {
		if row.Fingerprint == "" || len(row.Fingerprint) != 16 {
			t.Errorf("%s: bad fingerprint %q", row.Name, row.Fingerprint)
		}
	}
	if list[1].Preset != "eye" || list[1].NNZ != 4 || list[1].Rows != 4 {
		t.Errorf("preset row = %+v, want eye preset with 4 diagonal entries", list[1])
	}
	if list[0].Preset != "" {
		t.Errorf("upload row claims preset %q", list[0].Preset)
	}
}

// TestStorePresetMaterializationRace: concurrent first references to
// one preset converge on a single definition (one winner, everyone
// sees the same pointer afterwards).
func TestStorePresetMaterializationRace(t *testing.T) {
	s := NewStore()
	const n = 8
	defs := make([]*MatrixDef, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := s.Get("poisson2d:8")
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			defs[i] = d
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if defs[i] != defs[0] {
			t.Fatal("racing materializations produced distinct definitions")
		}
	}
	if defs[0].Preset != "poisson2d" || defs[0].Rows != 64 {
		t.Fatalf("materialized preset = %+v", defs[0].Info())
	}
}

// TestStorePresetErrors: unknown presets and malformed sizes are
// refused with errors (the engine maps these to not_found/bad_request).
func TestStorePresetErrors(t *testing.T) {
	s := NewStore()
	for _, name := range []string{"hilbert:9", "poisson2d:0", "poisson2d:-3", "poisson2d:x", "eye:"} {
		if _, err := s.Get(name); err == nil {
			t.Errorf("Get(%q) succeeded, want error", name)
		}
	}
	// Deterministic preset content: two stores materialize the same
	// preset to the same fingerprint.
	d1, err := s.Get("banded:32")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewStore().Get("banded:32")
	if err != nil {
		t.Fatal(err)
	}
	if d1.FP != d2.FP {
		t.Fatalf("preset fingerprints differ across stores: %x vs %x", d1.FP, d2.FP)
	}
	if d1.Info().Fingerprint != fmt.Sprintf("%016x", uint64(d1.FP)) {
		t.Fatal("Info fingerprint string does not match FP")
	}
}

// TestRouteRecordsLiveFingerprintsOnly: a request that resolved a
// definition before a re-upload replaced it still routes, but its
// fingerprint gets no owner entry, because no upload will ever delete
// it again.
func TestRouteRecordsLiveFingerprintsOnly(t *testing.T) {
	e, err := New(Config{Pool: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	old, _ := e.store.Put("m", 2, 2, []int64{0, 1}, []int64{0, 1}, []float64{2, 2})
	e.store.Put("m", 2, 2, []int64{0, 1}, []int64{0, 1}, []float64{4, 4})
	wk := e.route(old.FP, time.Time{})
	wk.load.Add(-1)
	if n := e.Metrics().Pool.Owners; n != 0 {
		t.Fatalf("owners = %d after routing a replaced fingerprint, want 0", n)
	}
}
