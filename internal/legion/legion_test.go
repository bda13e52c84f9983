package legion

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geometry"
	"repro/internal/machine"
	"repro/internal/prof"
)

func newTestRuntime(t testing.TB, procs int) *Runtime {
	t.Helper()
	m := machine.Summit((procs + 5) / 6)
	rt := NewRuntime(m, m.Select(machine.GPU, procs))
	t.Cleanup(rt.Shutdown)
	return rt
}

func newCPURuntime(t testing.TB, sockets int) *Runtime {
	t.Helper()
	m := machine.Summit((sockets + 1) / 2)
	rt := NewRuntime(m, m.Select(machine.CPU, sockets))
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestRegionCreationAndAccess(t *testing.T) {
	rt := newTestRuntime(t, 1)
	r := rt.CreateFloat64("v", []float64{1, 2, 3})
	if r.Size() != 3 || r.Type() != Float64 || r.Bytes() != 24 {
		t.Fatalf("region metadata wrong: %v", r)
	}
	if !r.Domain().Equal(geometry.NewRect(0, 2)) {
		t.Fatalf("domain = %v", r.Domain())
	}
	if got := r.Float64s()[1]; got != 2 {
		t.Fatalf("data = %v", got)
	}
	empty := rt.CreateRegion("e", 0, Int64)
	if !empty.Domain().Empty() {
		t.Fatal("empty region must have empty domain")
	}
}

func TestRegionTypeMismatchPanics(t *testing.T) {
	rt := newTestRuntime(t, 1)
	r := rt.CreateRegion("v", 4, Float64)
	defer func() {
		if recover() == nil {
			t.Fatal("Int64s on a Float64 region must panic")
		}
	}()
	r.Int64s()
}

func TestBlockPartitionCached(t *testing.T) {
	rt := newTestRuntime(t, 2)
	r := rt.CreateRegion("v", 10, Float64)
	p1 := rt.BlockPartition(r, 2)
	p2 := rt.BlockPartition(r, 2)
	if p1 != p2 {
		t.Fatal("block partitions must be cached per (region, colors)")
	}
	if !p1.Disjoint() || p1.Colors() != 2 {
		t.Fatalf("block partition wrong: %v", p1)
	}
	if !p1.Subspace(0).Equal(geometry.NewIntervalSet(geometry.NewRect(0, 4))) {
		t.Fatalf("subspace 0 = %v", p1.Subspace(0))
	}
	if p3 := rt.BlockPartition(r, 5); p3 == p1 {
		t.Fatal("different colors must give a different partition")
	}
}

// TestImageRangeFig2a reproduces the paper's Figure 2a: a source region
// of ranges {0,2},{3,4},{5,5},{6,8} partitioned into two halves images
// onto a 9-element destination.
func TestImageRangeFig2a(t *testing.T) {
	rt := newTestRuntime(t, 2)
	src := rt.CreateRects("S", []geometry.Rect{
		geometry.NewRect(0, 2), geometry.NewRect(3, 4),
		geometry.NewRect(5, 5), geometry.NewRect(6, 8),
	})
	dst := rt.CreateRegion("D", 9, Float64)
	srcPart := rt.BlockPartition(src, 2)
	img := rt.ImageRange(src, srcPart, dst)
	if !img.Subspace(0).Equal(geometry.NewIntervalSet(geometry.NewRect(0, 4))) {
		t.Errorf("color 0 = %v, want [0,4]", img.Subspace(0))
	}
	if !img.Subspace(1).Equal(geometry.NewIntervalSet(geometry.NewRect(5, 8))) {
		t.Errorf("color 1 = %v, want [5,8]", img.Subspace(1))
	}
	if !img.Disjoint() {
		t.Error("this image should be disjoint")
	}
}

// TestImageCoordFig2b reproduces Figure 2b: coordinates 0,1,2,3 | 1,3,4,5
// image onto a 6-element destination, producing an aliased partition
// (indices 1 and 3 belong to both sub-regions).
func TestImageCoordFig2b(t *testing.T) {
	rt := newTestRuntime(t, 2)
	src := rt.CreateInt64("S", []int64{0, 1, 2, 3, 1, 3, 4, 5})
	dst := rt.CreateRegion("D", 6, Float64)
	srcPart := rt.BlockPartition(src, 2)
	img := rt.ImageCoord(src, srcPart, dst)
	if !img.Subspace(0).Equal(geometry.NewIntervalSet(geometry.NewRect(0, 3))) {
		t.Errorf("color 0 = %v, want [0,3]", img.Subspace(0))
	}
	want1 := geometry.NewIntervalSet(geometry.PointRect(1), geometry.NewRect(3, 5))
	if !img.Subspace(1).Equal(want1) {
		t.Errorf("color 1 = %v, want %v", img.Subspace(1), want1)
	}
	if img.Disjoint() {
		t.Error("this image must be aliased")
	}
}

// TestImageSoundnessProperty checks the image definition from §2.2:
// for every color c and every source index i colored c, S[i] ⊆ P'[c].
func TestImageSoundnessProperty(t *testing.T) {
	rt := newTestRuntime(t, 3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		dstSize := int64(1 + rng.Intn(60))
		rects := make([]geometry.Rect, n)
		for i := range rects {
			if rng.Intn(4) == 0 {
				rects[i] = geometry.EmptyRect
				continue
			}
			lo := rng.Int63n(dstSize)
			rects[i] = geometry.NewRect(lo, min64t(lo+rng.Int63n(5), dstSize-1))
		}
		src := rt.CreateRects("S", rects)
		dst := rt.CreateRegion("D", dstSize, Float64)
		part := rt.BlockPartition(src, 3)
		img := rt.ImageRange(src, part, dst)
		ok := true
		for c := 0; c < 3; c++ {
			part.Subspace(c).Each(func(i int64) {
				if !rects[i].Empty() && !img.Subspace(c).ContainsSet(geometry.NewIntervalSet(rects[i])) {
					ok = false
				}
			})
		}
		rt.Destroy(src)
		rt.Destroy(dst)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestImageCacheHitAndInvalidation(t *testing.T) {
	rt := newTestRuntime(t, 2)
	src := rt.CreateInt64("S", []int64{0, 1, 2, 3})
	dst := rt.CreateRegion("D", 4, Float64)
	part := rt.BlockPartition(src, 2)
	img1 := rt.ImageCoord(src, part, dst)
	img2 := rt.ImageCoord(src, part, dst)
	if img1 != img2 {
		t.Fatal("image must be cached for unchanged source")
	}
	// Writing the source bumps its version and invalidates the cache.
	l := rt.NewLaunch("mutate", 1, func(tc *TaskContext) {
		tc.Int64(0)[0] = 3
	})
	l.AddWhole(src, ReadWrite)
	l.Execute()
	rt.Fence()
	img3 := rt.ImageCoord(src, part, dst)
	if img3 == img1 {
		t.Fatal("image cache must miss after the source is written")
	}
	if !img3.Subspace(0).Contains(3) {
		t.Fatal("recomputed image must reflect new source contents")
	}
}

func TestSimpleLaunchWritesData(t *testing.T) {
	rt := newTestRuntime(t, 3)
	r := rt.CreateRegion("v", 100, Float64)
	part := rt.BlockPartition(r, 3)
	l := rt.NewLaunch("fill", 3, func(tc *TaskContext) {
		out := tc.Float64(0)
		tc.Subspace(0).Each(func(i int64) { out[i] = float64(i) * 2 })
	})
	l.Add(r, part, WriteDiscard)
	l.Execute()
	rt.Fence()
	for i, v := range r.Float64s() {
		if v != float64(i)*2 {
			t.Fatalf("element %d = %v", i, v)
		}
	}
	if r.KeyPartition() != part {
		t.Error("write must set the key partition")
	}
	if r.Version() != 1 {
		t.Errorf("version = %d, want 1", r.Version())
	}
}

// TestSequentialSemantics checks RAW/WAR/WAW ordering across many
// dependent launches under parallel execution.
func TestSequentialSemantics(t *testing.T) {
	rt := newTestRuntime(t, 4)
	const n = 1000
	x := rt.CreateRegion("x", n, Float64)
	part := rt.BlockPartition(x, 4)
	// 50 rounds of x = x + 1 followed by a full-region checksum read;
	// any misordering corrupts the final values.
	for round := 0; round < 50; round++ {
		inc := rt.NewLaunch("inc", 4, func(tc *TaskContext) {
			d := tc.Float64(0)
			tc.Subspace(0).Each(func(i int64) { d[i]++ })
		})
		inc.Add(x, part, ReadWrite)
		inc.Execute()
		sum := rt.NewLaunch("sum", 4, func(tc *TaskContext) {
			d := tc.Float64(0)
			var s float64
			tc.Subspace(0).Each(func(i int64) { s += d[i] })
			tc.Reduce(s)
		})
		sum.Add(x, part, ReadOnly)
		fut := sum.Execute()
		if got, want := fut.GetNoSync(), float64(n*(round+1)); got != want {
			t.Fatalf("round %d: checksum %v, want %v", round, got, want)
		}
	}
}

func TestReductionFuture(t *testing.T) {
	rt := newTestRuntime(t, 4)
	data := make([]float64, 512)
	var want float64
	for i := range data {
		data[i] = float64(i%7) - 3
		want += data[i] * data[i]
	}
	x := rt.CreateFloat64("x", data)
	part := rt.BlockPartition(x, 4)
	dot := rt.NewLaunch("dot", 4, func(tc *TaskContext) {
		d := tc.Float64(0)
		var s float64
		tc.Subspace(0).Each(func(i int64) { s += d[i] * d[i] })
		tc.Reduce(s)
	})
	dot.Add(x, part, ReadOnly)
	got := dot.Execute().Get()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("dot = %v, want %v", got, want)
	}
	if rt.Stats().AllReduces.Load() != 1 {
		t.Error("Get on a multi-proc runtime must charge one all-reduce")
	}
}

func TestReduceAddAtomicity(t *testing.T) {
	rt := newTestRuntime(t, 6)
	acc := rt.CreateRegion("acc", 4, Float64)
	src := rt.CreateRegion("src", 6000, Float64)
	srcPart := rt.BlockPartition(src, 6)
	l := rt.NewLaunch("scatter", 6, func(tc *TaskContext) {
		tc.Subspace(1).Each(func(i int64) {
			tc.ReduceAdd(0, i%4, 1.0)
		})
	})
	l.AddWhole(acc, ReduceSum)
	l.Add(src, srcPart, ReadOnly)
	l.Execute()
	rt.Fence()
	for i, v := range acc.Float64s() {
		if v != 1500 {
			t.Fatalf("acc[%d] = %v, want 1500", i, v)
		}
	}
}

func TestWriteThroughAliasedPartitionPanics(t *testing.T) {
	rt := newTestRuntime(t, 2)
	src := rt.CreateInt64("S", []int64{0, 1, 1, 2})
	dst := rt.CreateRegion("D", 3, Float64)
	img := rt.ImageCoord(src, rt.BlockPartition(src, 2), dst)
	if img.Disjoint() {
		t.Fatal("test setup: image should alias")
	}
	l := rt.NewLaunch("bad", 2, func(tc *TaskContext) {})
	defer func() {
		if recover() == nil {
			t.Fatal("writing through an aliased partition must panic")
		}
	}()
	l.Add(dst, img, WriteDiscard)
}

// TestExecuteTwicePanics: a Launch is one entry of the launch stream, so
// executing it again is a misuse, not a re-run.
func TestExecuteTwicePanics(t *testing.T) {
	rt := newTestRuntime(t, 2)
	x := rt.CreateRegion("x", 4, Float64)
	l := rt.NewLaunch("once", 2, func(tc *TaskContext) {})
	l.Add(x, rt.BlockPartition(x, 2), ReadOnly)
	l.Execute()
	defer func() {
		if recover() == nil {
			t.Fatal("executing a launch twice must panic")
		}
	}()
	l.Execute()
}

func TestOOM(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 1})
	m.Cost().MemCapacity[machine.GPU] = 1024 // 128 floats
	rt := NewRuntime(m, m.Select(machine.GPU, 1))
	defer rt.Shutdown()
	big := rt.CreateRegion("big", 1000, Float64)
	l := rt.NewLaunch("touch", 1, func(tc *TaskContext) {})
	l.AddWhole(big, ReadOnly)
	l.Execute()
	rt.Fence()
	err := rt.Err()
	if err == nil {
		t.Fatal("expected OOM error")
	}
	if _, ok := err.(*OOMError); !ok {
		t.Fatalf("error type = %T, want *OOMError", err)
	}
}

func TestSimTimeAdvancesAndResets(t *testing.T) {
	rt := newCPURuntime(t, 2)
	x := rt.CreateRegion("x", 1<<16, Float64)
	part := rt.BlockPartition(x, 2)
	l := rt.NewLaunch("fill", 2, func(tc *TaskContext) {
		d := tc.Float64(0)
		tc.Subspace(0).Each(func(i int64) { d[i] = 1 })
	})
	l.Add(x, part, WriteDiscard)
	l.Execute()
	rt.Fence()
	if rt.SimTime() <= 0 {
		t.Fatal("sim time must advance")
	}
	rt.ResetMetrics()
	if rt.SimTime() != 0 {
		t.Fatal("ResetMetrics must zero the sim clock")
	}
	if rt.Stats().Tasks.Load() != 0 {
		t.Fatal("ResetMetrics must zero stats")
	}
}

func min64t(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func TestProfileAccumulates(t *testing.T) {
	m := machine.Summit(1)
	rt := NewRuntime(m, m.Select(machine.GPU, 2))
	defer rt.Shutdown()
	sink := prof.NewSink(0)
	rt.EnableProfiling(sink)
	x := rt.CreateRegion("x", 1024, Float64)
	part := rt.BlockPartition(x, 2)
	for i := 0; i < 3; i++ {
		l := rt.NewLaunch("fill", 2, func(tc *TaskContext) {
			d := tc.Float64(0)
			tc.Subspace(0).Each(func(j int64) { d[j] = 1 })
		})
		l.Add(x, part, WriteDiscard)
		l.Execute()
	}
	rt.Fence()
	sum := sink.Summary()
	entries := sum.Tasks
	if len(entries) != 1 || entries[0].Name != "fill" {
		t.Fatalf("profile entries = %+v", entries)
	}
	if entries[0].Launches != 3 || entries[0].Points != 6 {
		t.Fatalf("launches/points = %d/%d, want 3/6", entries[0].Launches, entries[0].Points)
	}
	if entries[0].SimTime <= 0 {
		t.Fatal("profile must accumulate simulated time")
	}
	if sum.String() == "" {
		t.Fatal("profile renders empty")
	}
}
