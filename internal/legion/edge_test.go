package legion

import (
	"sync"
	"testing"
	"time"

	"repro/internal/geometry"
	"repro/internal/machine"
	"repro/internal/prof"
)

// TestLaunchWiderThanMachine: more point tasks than processors map
// round-robin and still produce correct results.
func TestLaunchWiderThanMachine(t *testing.T) {
	rt := newTestRuntime(t, 3)
	x := rt.CreateRegion("x", 100, Float64)
	part := rt.BlockPartition(x, 10) // 10 points on 3 procs
	l := rt.NewLaunch("fill", 10, func(tc *TaskContext) {
		d := tc.Float64(0)
		p := float64(tc.Point())
		tc.Subspace(0).Each(func(i int64) { d[i] = p })
	})
	l.Add(x, part, WriteDiscard)
	l.Execute()
	rt.Fence()
	for c := 0; c < 10; c++ {
		part.Subspace(c).Each(func(i int64) {
			if x.Float64s()[i] != float64(c) {
				t.Fatalf("x[%d] = %v, want %v", i, x.Float64s()[i], float64(c))
			}
		})
	}
	// Verify the round-robin processor assignment.
	if rt.ProcForPoint(0) != rt.ProcForPoint(3) {
		t.Error("points 0 and 3 should share a processor on 3 procs")
	}
}

// TestZeroSizeRegionLaunch: empty regions flow through requirements,
// mapping, and kernels without incident.
func TestZeroSizeRegionLaunch(t *testing.T) {
	rt := newTestRuntime(t, 2)
	e := rt.CreateRegion("empty", 0, Float64)
	x := rt.CreateRegion("x", 10, Float64)
	l := rt.NewLaunch("noop", 2, func(tc *TaskContext) {
		if !tc.Subspace(0).Empty() {
			t.Error("empty region subspace must be empty")
		}
	})
	l.Add(e, rt.BlockPartition(e, 2), ReadOnly)
	l.Add(x, rt.BlockPartition(x, 2), ReadOnly)
	l.Execute()
	rt.Fence()
	if rt.Err() != nil {
		t.Fatal(rt.Err())
	}
}

// TestMultiRectPartitionRequirement: a partition whose colors are
// scattered interval sets maps and executes correctly (the shape of
// factor-row images).
func TestMultiRectPartitionRequirement(t *testing.T) {
	rt := newTestRuntime(t, 2)
	x := rt.CreateRegion("x", 20, Float64)
	evens := geometry.FromPoints([]int64{0, 2, 4, 6, 8, 10, 12, 14, 16, 18})
	odds := geometry.FromPoints([]int64{1, 3, 5, 7, 9, 11, 13, 15, 17, 19})
	part := rt.PartitionBySets(x, []geometry.IntervalSet{evens, odds})
	if !part.Disjoint() {
		t.Fatal("even/odd split must be disjoint")
	}
	l := rt.NewLaunch("stripe", 2, func(tc *TaskContext) {
		d := tc.Float64(0)
		v := float64(tc.Point() + 1)
		tc.Subspace(0).Each(func(i int64) { d[i] = v })
	})
	l.Add(x, part, WriteDiscard)
	l.Execute()
	rt.Fence()
	for i, v := range x.Float64s() {
		want := float64(i%2 + 1)
		if v != want {
			t.Fatalf("x[%d] = %v, want %v", i, v, want)
		}
	}
	// Modeled memory charges the scattered elements, not the bounding
	// extent: 10 elements * 8 bytes per processor.
	for _, p := range rt.Procs()[:2] {
		if used := rt.Mapper().MemUsed(p); used != 80 {
			t.Errorf("proc %d memUsed = %d, want 80 (no bounding-box inflation)", p, used)
		}
	}
}

// TestDestroyDuringInFlightUse: destroying a region immediately after
// launching work on it must not corrupt results or accounting.
func TestDestroyDuringInFlightUse(t *testing.T) {
	rt := newTestRuntime(t, 4)
	out := rt.CreateRegion("out", 1000, Float64)
	outPart := rt.BlockPartition(out, 4)
	for iter := 0; iter < 20; iter++ {
		tmp := rt.CreateRegion("tmp", 1000, Float64)
		tmpPart := rt.BlockPartition(tmp, 4)
		w := rt.NewLaunch("w", 4, func(tc *TaskContext) {
			d := tc.Float64(0)
			tc.Subspace(0).Each(func(i int64) { d[i] = 1 })
		})
		w.Add(tmp, tmpPart, WriteDiscard)
		w.Execute()
		acc := rt.NewLaunch("acc", 4, func(tc *TaskContext) {
			d, s := tc.Float64(0), tc.Float64(1)
			tc.Subspace(0).Each(func(i int64) { d[i] += s[i] })
		})
		acc.Add(out, outPart, ReadWrite)
		acc.Add(tmp, tmpPart, ReadOnly)
		acc.Execute()
		rt.Destroy(tmp) // no Fence
	}
	rt.Fence()
	for i, v := range out.Float64s() {
		if v != 20 {
			t.Fatalf("out[%d] = %v, want 20", i, v)
		}
	}
}

// TestDestroyDoesNotWaitForQueuedUse: the launches that use a region were
// mapped when they were issued, so Destroy pools its allocations at once,
// even while a queued launch reading it is stalled. The whole Outcome —
// modeled memory included, once a same-sized region has reused the
// pool — equals the Fence-then-Destroy order's.
func TestDestroyDoesNotWaitForQueuedUse(t *testing.T) {
	run := func(fenceFirst bool) Outcome {
		rt := newTestRuntime(t, 2)
		rt.inlineGrain = 0 // queue every launch
		sink := prof.NewSink(0)
		rt.EnableProfiling(sink)
		src, dst := rt.CreateRegion("src", 64, Float64), rt.CreateRegion("dst", 64, Float64)
		fill(rt, src, func(i int64) float64 { return float64(i) })
		release := make(chan struct{})
		var once sync.Once
		open := func() { once.Do(func() { close(release) }) }
		// A Destroy that waits for the stalled launch fails, not hangs.
		stall := time.AfterFunc(5*time.Second, open)
		defer stall.Stop()
		l := rt.NewLaunch("double", 2, func(tc *TaskContext) {
			<-release
			d, s := tc.Float64(0), tc.Float64(1)
			tc.Subspace(0).Each(func(i int64) { d[i] = 2 * s[i] })
		})
		l.Add(dst, rt.BlockPartition(dst, 2), WriteDiscard)
		l.Add(src, rt.BlockPartition(src, 2), ReadOnly)
		l.Execute()
		if fenceFirst {
			open()
			rt.Fence()
		}
		rt.Destroy(src)
		select {
		case <-release:
			if !fenceFirst {
				t.Error("Destroy waited for the stalled launch that reads the region")
			}
		default:
		}
		open()
		fill(rt, rt.CreateRegion("next", 64, Float64), func(int64) float64 { return 1 })
		return Capture(rt, sink, nil, nil, dst)
	}
	if diff := Diff(run(false), run(true)); diff != "" {
		t.Errorf("Destroy while the launch is stalled differs from Fence, then Destroy: %s", diff)
	}
}

// TestSimDeterminism: the outcome of a fixed program, its simulated
// time included, is identical across repeated runs (required for the
// benchmark harness).
func TestSimDeterminism(t *testing.T) {
	run := func() Outcome {
		m := machine.Summit(1)
		rt := NewRuntime(m, m.Select(machine.GPU, 4))
		defer rt.Shutdown()
		x := rt.CreateRegion("x", 4096, Float64)
		part := rt.BlockPartition(x, 4)
		for i := 0; i < 30; i++ {
			l := rt.NewLaunch("inc", 4, func(tc *TaskContext) {
				d := tc.Float64(0)
				tc.Subspace(0).Each(func(j int64) { d[j]++ })
			})
			l.Add(x, part, ReadWrite)
			l.Execute()
		}
		return Capture(rt, nil, nil, nil, x)
	}
	first := run()
	for i := 0; i < 3; i++ {
		if diff := Diff(run(), first); diff != "" {
			t.Fatalf("run %d differs from the first: %s", i+2, diff)
		}
	}
}
