package cunumeric

import (
	"testing"
	"time"

	"repro/internal/legion"
)

// TestGatherIndexRewriteBoundsImageCaches rewrites a long-lived index
// region through the launch stream a thousand times, gathering through
// it after every write. Each write bumps the index's version, so each
// gather builds a new image of it; the images of the versions before can
// never be looked up again and must not pile up in the caches. The
// gathered values are checked against the host answer, and the simulated
// clock against the value the same stream produced while every stale
// entry was still kept (captured at c3cb4f9): dropping entries is
// invisible to the modeled machine.
func TestGatherIndexRewriteBoundsImageCaches(t *testing.T) {
	rt := newRT(t, 2)
	const n = 64
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1.5 * float64(i)
	}
	src, dst := FromSlice(rt, vals), Zeros(rt, n)
	idx := rt.CreateRegion("idx", n, legion.Int64)
	part := rt.BlockPartition(idx, 2)
	index := func(i, step int64) int64 { return (7*i + step) % n }

	for step := int64(0); step < 1000; step++ {
		w := rt.NewLaunch("rewrite", 2, func(tc *legion.TaskContext) {
			ix, k := tc.Int64(0), int64(tc.Scalar(0))
			tc.Subspace(0).Each(func(i int64) { ix[i] = index(i, k) })
		})
		w.Add(idx, part, legion.WriteDiscard)
		w.SetScalars(float64(step))
		w.Execute()
		Gather(dst, idx, src)
		if step%100 == 99 {
			for i, got := range dst.ToSlice() {
				if want := vals[index(int64(i), step)]; got != want {
					t.Fatalf("step %d: dst[%d] = %v, want %v", step, i, got, want)
				}
			}
		}
	}

	cs := rt.CacheStats()
	if cs.ImageBuilds < 1000 {
		t.Fatalf("%d image builds: the gathers no longer rebuild the index's image", cs.ImageBuilds)
	}
	if cs.ImageEntries > 2 || cs.ImageSetEntries > 2 {
		t.Errorf("after 1000 rewrites the caches hold %d image and %d image-set entries, want at most 2 each",
			cs.ImageEntries, cs.ImageSetEntries)
	}
	if got, want := rt.SimTime(), time.Duration(248025001); got != want {
		t.Errorf("SimTime = %d, want %d", got, want)
	}
}
