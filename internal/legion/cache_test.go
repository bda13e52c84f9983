package legion

import (
	"testing"

	"repro/internal/geometry"
	"repro/internal/machine"
)

func cacheTestRuntime(t *testing.T) *Runtime {
	t.Helper()
	m := machine.Summit(2)
	rt := NewRuntime(m, m.Select(machine.CPU, 4))
	t.Cleanup(rt.Shutdown)
	return rt
}

// scratchImageCoord computes the by-coordinate image of part through
// crd index by index, sharing no code with ImageCoord or FromPoints.
func scratchImageCoord(crd []int64, part *Partition) []geometry.IntervalSet {
	subs := make([]geometry.IntervalSet, part.Colors())
	for c := range subs {
		var rects []geometry.Rect
		part.Subspace(c).Each(func(i int64) {
			rects = append(rects, geometry.NewRect(crd[i], crd[i]))
		})
		subs[c] = geometry.NewIntervalSet(rects...)
	}
	return subs
}

func checkSubspaces(t *testing.T, what string, p *Partition, want []geometry.IntervalSet) {
	t.Helper()
	if p.Colors() != len(want) {
		t.Fatalf("%s: %d colors, want %d", what, p.Colors(), len(want))
	}
	for c := range want {
		if !p.Subspace(c).Equal(want[c]) {
			t.Fatalf("%s: color %d = %v, from scratch %v", what, c, p.Subspace(c), want[c])
		}
	}
}

// checkNoDestroyedRefs fails if any cache still holds a partition of, or
// keyed by a partition of, a destroyed region.
func checkNoDestroyedRefs(t *testing.T, rt *Runtime) {
	t.Helper()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, p := range rt.partCache {
		if p.region.destroyed {
			t.Errorf("partCache holds %v of a destroyed region", p)
		}
	}
	for k, p := range rt.alignCache {
		if p.region.destroyed || k.part.region.destroyed {
			t.Errorf("alignCache holds %v -> %v across a destroyed region", k.part, p)
		}
	}
	for _, p := range rt.imageCache {
		if p.region.destroyed {
			t.Errorf("imageCache holds %v of a destroyed region", p)
		}
	}
}

func entryCounts(s CacheStats) [4]int {
	return [4]int{s.PartEntries, s.AlignEntries, s.ImageEntries, s.ImageSetEntries}
}

// TestImageSteadyStateFreshTemporaries is one SpMV's partitioning per
// "solve", in the shape that used to defeat the caches: the root
// partition comes from a fresh output vector (a new object every time),
// is aligned onto the long-lived pos, and drives pos -> crd -> x. The
// tiling is the same every time, so after the first solve nothing is
// rebuilt, the crd image is the very same object, and with the
// temporaries destroyed the caches neither grow nor point at them.
func TestImageSteadyStateFreshTemporaries(t *testing.T) {
	rt := cacheTestRuntime(t)
	pos := rt.CreateRects("pos", []geometry.Rect{
		geometry.NewRect(0, 1), geometry.NewRect(2, 3),
		geometry.NewRect(4, 5), geometry.NewRect(6, 7),
	})
	crd := rt.CreateInt64("crd", []int64{0, 1, 0, 1, 2, 3, 2, 3})
	var crdPart *Partition
	solve := func(i int) CacheStats {
		y := rt.CreateRegion("y", 4, Float64)
		x := rt.CreateRegion("x", 4, Float64)
		posPart := rt.AlignedPartition(rt.BlockPartition(y, 4), pos)
		cp := rt.ImageRange(pos, posPart, crd)
		if crdPart == nil {
			crdPart = cp
		} else if cp != crdPart {
			t.Fatalf("solve %d: crd image is a new partition object", i)
		}
		checkSubspaces(t, "x image", rt.ImageCoord(crd, cp, x), scratchImageCoord(crd.i64, cp))
		rt.Destroy(x)
		rt.Destroy(y)
		checkNoDestroyedRefs(t, rt)
		return rt.CacheStats()
	}
	first, second := solve(1), solve(2)
	last := second
	for i := 3; i <= 50; i++ {
		last = solve(i)
	}
	if first.ImageBuilds != 2 || last.ImageBuilds != 2 {
		t.Errorf("image builds: %d after the first solve, %d after 50, want 2 and 2", first.ImageBuilds, last.ImageBuilds)
	}
	if entryCounts(second) != entryCounts(last) {
		t.Errorf("cache entries (part, align, image, image-set) %v after solve 2, %v after solve 50",
			entryCounts(second), entryCounts(last))
	}
}

// TestImagesNeverSharedAcrossColorings: the cases that must *not* hit.
// A coloring names subspaces, so two tilings of one region, an explicit
// partition (even one that happens to equal the block tiling), and the
// same tiling of another same-size source each get an image of their
// own, equal to a from-scratch computation.
func TestImagesNeverSharedAcrossColorings(t *testing.T) {
	rt := cacheTestRuntime(t)
	crd := rt.CreateInt64("crd", []int64{0, 3, 5, 1, 7, 2, 6, 4})
	other := rt.CreateInt64("crd2", []int64{7, 7, 6, 6, 1, 1, 0, 0})
	dst := rt.CreateRegion("x", 8, Float64)

	block4 := rt.BlockPartition(crd, 4)
	block2 := rt.BlockPartition(crd, 2)
	explicit := rt.PartitionBySets(crd, block4.subspaces)
	balanced := rt.PartitionBySets(crd, []geometry.IntervalSet{
		geometry.NewIntervalSet(geometry.NewRect(0, 0)), geometry.NewIntervalSet(geometry.NewRect(1, 1)),
		geometry.NewIntervalSet(geometry.NewRect(2, 4)), geometry.NewIntervalSet(geometry.NewRect(5, 7)),
	})
	otherBlock4 := rt.BlockPartition(other, 4)
	if otherBlock4.coloring != block4.coloring {
		t.Fatal("block partitions of same-size regions must share a coloring")
	}
	for i, tc := range []struct {
		what string
		src  *Region
		part *Partition
	}{
		{"block, 4 colors", crd, block4},
		{"block, 2 colors", crd, block2},
		{"explicit copy of the block tiling", crd, explicit},
		{"explicit balanced", crd, balanced},
		{"block of another same-size source", other, otherBlock4},
	} {
		img := rt.ImageCoord(tc.src, tc.part, dst)
		checkSubspaces(t, tc.what, img, scratchImageCoord(tc.src.i64, tc.part))
		if s := rt.CacheStats(); s.ImageBuilds != int64(i+1) || s.ImageHits != 0 || s.ImageSetHits != 0 {
			t.Fatalf("%s: shared an earlier image: %+v", tc.what, s)
		}
	}
}

// TestImageSetReuseAcrossRegions is the cross-request scenario
// legate-serve depends on: the same coordinate region and partition,
// imaged onto a *fresh* destination region of the same size, must reuse
// the cached subspace computation instead of rescanning the source.
func TestImageSetReuseAcrossRegions(t *testing.T) {
	rt := cacheTestRuntime(t)
	crd := rt.CreateInt64("crd", []int64{0, 3, 5, 1, 7, 2, 6, 4})
	part := rt.BlockPartition(crd, 4)

	dst1 := rt.CreateRegion("x1", 8, Float64)
	p1 := rt.ImageCoord(crd, part, dst1)
	s0 := rt.CacheStats()
	if s0.ImageBuilds != 1 || s0.ImageSetHits != 0 {
		t.Fatalf("first image: builds=%d setHits=%d, want 1/0", s0.ImageBuilds, s0.ImageSetHits)
	}

	// Same destination again: exact partition-object hit.
	if rt.ImageCoord(crd, part, dst1) != p1 {
		t.Fatal("same-destination image did not return the cached partition object")
	}
	if s := rt.CacheStats(); s.ImageHits != s0.ImageHits+1 {
		t.Fatalf("same-destination image not counted as hit: %+v", s)
	}

	// Fresh same-size destination: new partition object, cached subspaces.
	dst2 := rt.CreateRegion("x2", 8, Float64)
	p2 := rt.ImageCoord(crd, part, dst2)
	s1 := rt.CacheStats()
	if s1.ImageBuilds != 1 {
		t.Fatalf("fresh same-size destination recomputed the image: builds=%d", s1.ImageBuilds)
	}
	if s1.ImageSetHits != 1 {
		t.Fatalf("fresh same-size destination missed the set cache: %+v", s1)
	}
	if p2 == p1 || p2.Region() != dst2 {
		t.Fatal("set-cache hit must still mint a partition of the new region")
	}
	for c := 0; c < p1.Colors(); c++ {
		if !p1.Subspace(c).Equal(p2.Subspace(c)) {
			t.Fatalf("color %d: reused subspaces differ", c)
		}
	}

	// Different-size destination: no set reuse.
	dst3 := rt.CreateRegion("x3", 16, Float64)
	rt.ImageCoord(crd, part, dst3)
	if s := rt.CacheStats(); s.ImageBuilds != 2 {
		t.Fatalf("different-size destination should rebuild: builds=%d", s.ImageBuilds)
	}
}

// TestImageSetRangeReuse covers the rect-valued path (pos→crd images).
func TestImageSetRangeReuse(t *testing.T) {
	rt := cacheTestRuntime(t)
	pos := rt.CreateRects("pos", []geometry.Rect{
		geometry.NewRect(0, 1), geometry.NewRect(2, 3),
		geometry.NewRect(4, 5), geometry.NewRect(6, 7),
	})
	part := rt.BlockPartition(pos, 4)
	d1 := rt.CreateRegion("crd1", 8, Int64)
	d2 := rt.CreateRegion("crd2", 8, Int64)
	rt.ImageRange(pos, part, d1)
	rt.ImageRange(pos, part, d2)
	s := rt.CacheStats()
	if s.ImageBuilds != 1 || s.ImageSetHits != 1 {
		t.Fatalf("range image set reuse: builds=%d setHits=%d, want 1/1", s.ImageBuilds, s.ImageSetHits)
	}
}

// TestImageSetInvalidationOnWrite checks that writing the source region
// (version bump) forces a rebuild rather than serving stale subspaces.
func TestImageSetInvalidationOnWrite(t *testing.T) {
	rt := cacheTestRuntime(t)
	crd := rt.CreateInt64("crd", []int64{0, 1, 2, 3, 4, 5, 6, 7})
	part := rt.BlockPartition(crd, 4)
	dst := rt.CreateRegion("x", 8, Float64)
	p1 := rt.ImageCoord(crd, part, dst)

	// Rewrite crd through a launch: version bumps, images must rebuild.
	l := rt.NewLaunch("rewrite", 4, func(tc *TaskContext) {
		d := tc.Int64(0)
		tc.Subspace(0).Each(func(i int64) { d[i] = 7 - i })
	})
	l.Add(crd, part, ReadWrite)
	l.Execute()
	rt.Fence()

	dst2 := rt.CreateRegion("x2", 8, Float64)
	p2 := rt.ImageCoord(crd, part, dst2)
	if s := rt.CacheStats(); s.ImageBuilds != 2 {
		t.Fatalf("post-write image served stale set cache: builds=%d", s.ImageBuilds)
	}
	// New contents reverse the coordinates; color 0's image moves.
	if p1.Subspace(0).Equal(p2.Subspace(0)) {
		t.Fatal("rebuilt image identical to pre-write image; contents changed")
	}
	checkSubspaces(t, "post-write image", p2, scratchImageCoord(crd.i64, part))
}

// TestInvalidateRegionCaches checks the explicit hook used by the serve
// layer's matrix re-upload path: partitions of, onto, and sourced from
// the region all drop, and the key partition is cleared.
func TestInvalidateRegionCaches(t *testing.T) {
	rt := cacheTestRuntime(t)
	crd := rt.CreateInt64("crd", []int64{0, 1, 2, 3, 4, 5, 6, 7})
	other := rt.CreateFloat64("other", make([]float64, 8))
	part := rt.BlockPartition(crd, 4)
	rt.AlignedPartition(part, other)
	dst := rt.CreateRegion("x", 8, Float64)
	rt.ImageCoord(crd, part, dst)

	s := rt.CacheStats()
	if s.PartEntries == 0 || s.AlignEntries == 0 || s.ImageEntries == 0 || s.ImageSetEntries == 0 {
		t.Fatalf("expected populated caches before invalidation: %+v", s)
	}

	// The hook exists for contents rewritten outside the launch stream:
	// same version, same coloring, new data.
	copy(crd.i64, []int64{7, 6, 5, 4, 3, 2, 1, 0})
	rt.InvalidateRegionCaches(crd)
	s = rt.CacheStats()
	if s.PartEntries != 0 {
		t.Fatalf("block partition of invalidated region survived: %+v", s)
	}
	if s.ImageEntries != 0 {
		t.Fatalf("image sourced from invalidated region survived: %+v", s)
	}
	if s.ImageSetEntries != 0 {
		t.Fatalf("image sets computed from invalidated region survived: %+v", s)
	}
	// The alignment entry transfers a partition of crd, which no longer
	// vouches for anything.
	if s.AlignEntries != 0 {
		t.Fatalf("alignment of an invalidated region's partition survived: %+v", s)
	}

	// After invalidation the same calls rebuild rather than crash.
	part2 := rt.BlockPartition(crd, 4)
	if part2 == part {
		t.Fatal("invalidation did not drop the block partition")
	}
	img := rt.ImageCoord(crd, part2, dst)
	if s := rt.CacheStats(); s.ImageBuilds != 2 {
		t.Fatalf("post-invalidation image did not rebuild: %+v", s)
	}
	checkSubspaces(t, "post-invalidation image", img, scratchImageCoord(crd.i64, part2))
}

// TestPartAndAlignCounters sanity-checks the hit/miss accounting the
// /metrics endpoint reports.
func TestPartAndAlignCounters(t *testing.T) {
	rt := cacheTestRuntime(t)
	r := rt.CreateRegion("r", 64, Float64)
	q := rt.CreateRegion("q", 64, Float64)
	rt.BlockPartition(r, 4)
	rt.BlockPartition(r, 4)
	rt.BroadcastPartition(r, 4)
	p := rt.BlockPartition(r, 8)
	rt.AlignedPartition(p, q)
	rt.AlignedPartition(p, q)
	s := rt.CacheStats()
	if s.PartMisses != 3 || s.PartHits != 1 {
		t.Fatalf("part counters: hits=%d misses=%d, want 1/3", s.PartHits, s.PartMisses)
	}
	if s.AlignMisses != 1 || s.AlignHits != 1 {
		t.Fatalf("align counters: hits=%d misses=%d, want 1/1", s.AlignHits, s.AlignMisses)
	}
}
