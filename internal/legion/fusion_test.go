package legion

import (
	"testing"
	"time"

	"repro/internal/prof"
)

// chainStep issues one fusable elementwise launch: dst[i] = f(dst[i], src[i]).
func chainStep(rt *Runtime, name string, dst, src *Region, parts map[*Region]*Partition,
	dstPriv Privilege, f func(d, s float64) float64) {
	l := rt.NewLaunch(name, parts[dst].Colors(), func(tc *TaskContext) {
		d := tc.Float64(0)
		s := tc.Float64(1)
		tc.Subspace(0).Each(func(i int64) { d[i] = f(d[i], s[i]) })
	})
	l.Add(dst, parts[dst], dstPriv)
	l.Add(src, parts[src], ReadOnly)
	l.SetFusable(true)
	l.Execute()
}

// runChain executes a representative solver-style chain — WriteDiscard
// producers feeding ReadWrite consumers across three regions — and
// returns the final contents of all three.
func runChain(t *testing.T, procs, window int) ([]float64, []float64, []float64, int64) {
	t.Helper()
	rt := newTestRuntime(t, procs)
	rt.SetFusionWindow(window)
	const n = 96
	x := rt.CreateRegion("x", n, Float64)
	y := rt.CreateRegion("y", n, Float64)
	z := rt.CreateRegion("z", n, Float64)
	parts := map[*Region]*Partition{
		x: rt.BlockPartition(x, procs),
		y: rt.BlockPartition(y, procs),
		z: rt.BlockPartition(z, procs),
	}
	// Seed x.
	init := rt.NewLaunch("init", procs, func(tc *TaskContext) {
		d := tc.Float64(0)
		tc.Subspace(0).Each(func(i int64) { d[i] = float64(i%7) + 0.5 })
	})
	init.Add(x, parts[x], WriteDiscard)
	init.SetFusable(true)
	init.Execute()

	for iter := 0; iter < 5; iter++ {
		// y <- x*2 (WD producer), z <- y+x (WD consumer of the window's
		// own writes), x <- x + 0.25*z (RW), y <- y*z (RW).
		chainStep(rt, "scale", y, x, parts, WriteDiscard, func(_, s float64) float64 { return 2 * s })
		chainStep(rt, "add", z, y, parts, WriteDiscard, func(_, s float64) float64 { return s })
		chainStep(rt, "axpy", x, z, parts, ReadWrite, func(d, s float64) float64 { return d + 0.25*s })
		chainStep(rt, "mul", y, z, parts, ReadWrite, func(d, s float64) float64 { return d * s / (1 + s*s) })
	}
	rt.Fence()
	sim := int64(rt.SimTime())
	return append([]float64(nil), x.Float64s()...),
		append([]float64(nil), y.Float64s()...),
		append([]float64(nil), z.Float64s()...), sim
}

// TestFusionBitIdentical: fused execution must produce bit-identical
// results to unfused across processor counts and window sizes.
func TestFusionBitIdentical(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		x0, y0, z0, _ := runChain(t, procs, 0)
		for _, window := range []int{2, 3, 16} {
			x1, y1, z1, _ := runChain(t, procs, window)
			for i := range x0 {
				if x0[i] != x1[i] || y0[i] != y1[i] || z0[i] != z1[i] {
					t.Fatalf("procs=%d window=%d: fused results differ at %d: (%v,%v,%v) vs (%v,%v,%v)",
						procs, window, i, x1[i], y1[i], z1[i], x0[i], y0[i], z0[i])
				}
			}
		}
	}
}

// TestFusionReducesSimTime: fusing an analysis-bound chain must cut
// simulated time — one LaunchOverhead per window instead of per launch.
func TestFusionReducesSimTime(t *testing.T) {
	_, _, _, unfused := runChain(t, 2, 0)
	_, _, _, fused := runChain(t, 2, 16)
	if fused >= unfused {
		t.Fatalf("fusion did not reduce simulated time: fused %d >= unfused %d", fused, unfused)
	}
	if float64(fused) > 0.8*float64(unfused) {
		t.Errorf("analysis-bound chain should fuse >20%% sim-time away: fused %d vs unfused %d", fused, unfused)
	}
}

// TestFusionProfileCounts: the sink's summary must report how many
// launches the fuser absorbed.
func TestFusionProfileCounts(t *testing.T) {
	rt := newTestRuntime(t, 2)
	sink := prof.NewSink(0)
	rt.EnableProfiling(sink)
	rt.SetFusionWindow(8)
	r := rt.CreateRegion("r", 32, Float64)
	part := rt.BlockPartition(r, 2)
	for k := 0; k < 4; k++ {
		l := rt.NewLaunch("inc", 2, func(tc *TaskContext) {
			d := tc.Float64(0)
			tc.Subspace(0).Each(func(i int64) { d[i]++ })
		})
		l.Add(r, part, ReadWrite)
		l.SetFusable(true)
		l.Execute()
	}
	rt.Fence()
	if sum := sink.Summary(); sum.FusedGroups != 1 || sum.FusedMembers != 4 {
		t.Fatalf("fused counts = (%d, %d), want (1, 4)", sum.FusedGroups, sum.FusedMembers)
	}
	if got := r.Float64s()[5]; got != 4 {
		t.Fatalf("fused increments lost: r[5] = %v, want 4", got)
	}
}

// TestFusionWindowFlushesOnConflict: a launch that writes a region the
// window already touches through a DIFFERENT partition must not join the
// window — program order requires a flush first.
func TestFusionWindowFlushesOnConflict(t *testing.T) {
	rt := newTestRuntime(t, 2)
	sink := prof.NewSink(0)
	rt.EnableProfiling(sink)
	rt.SetFusionWindow(8)
	r := rt.CreateRegion("r", 32, Float64)
	p2 := rt.BlockPartition(r, 2)
	for k := 0; k < 2; k++ {
		l := rt.NewLaunch("a", 2, func(tc *TaskContext) {
			d := tc.Float64(0)
			tc.Subspace(0).Each(func(i int64) { d[i] += 1 })
		})
		l.Add(r, p2, ReadWrite)
		l.SetFusable(true)
		l.Execute()
	}
	// Same region through a different partition object (different color
	// count) — must break the window.
	single := rt.NewLaunch("b", 1, func(tc *TaskContext) {
		d := tc.Float64(0)
		tc.Subspace(0).Each(func(i int64) { d[i] *= 10 })
	})
	single.Add(r, rt.BlockPartition(r, 1), ReadWrite)
	single.SetFusable(true)
	single.Execute()
	rt.Fence()
	if sum := sink.Summary(); sum.FusedGroups != 1 || sum.FusedMembers != 2 {
		t.Fatalf("conflicting launch joined the window: counts (%d, %d), want (1, 2)", sum.FusedGroups, sum.FusedMembers)
	}
	if got := r.Float64s()[0]; got != 20 {
		t.Fatalf("r[0] = %v, want 20 (two +1 then x10)", got)
	}
}

// TestFutureResolutionFlushesWindow: reading a buffered reduction future
// must flush the window and return the correct value.
func TestFutureResolutionFlushesWindow(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.SetFusionWindow(8)
	r := rt.CreateRegion("r", 16, Float64)
	part := rt.BlockPartition(r, 2)
	fill := rt.NewLaunch("fill", 2, func(tc *TaskContext) {
		d := tc.Float64(0)
		tc.Subspace(0).Each(func(i int64) { d[i] = 3 })
	})
	fill.Add(r, part, WriteDiscard)
	fill.SetFusable(true)
	fill.Execute()
	sum := rt.NewLaunch("sum", 2, func(tc *TaskContext) {
		d := tc.Float64(0)
		var s float64
		tc.Subspace(0).Each(func(i int64) { s += d[i] })
		tc.Reduce(s)
	})
	sum.Add(r, part, ReadOnly)
	sum.SetFusable(true)
	fut := sum.Execute()
	if got := fut.GetNoSync(); got != 48 {
		t.Fatalf("buffered reduction = %v, want 48", got)
	}
}

// TestDispatchWakesMappedProc is the regression test for the dispatch
// bug: waking workers by point index instead of by the point's actual
// processor. A launch whose single point is mapped to proc 1 must run
// even when its dependency completes on proc 0 — the old loop woke only
// worker 0 and the launch hung forever.
func TestDispatchWakesMappedProc(t *testing.T) {
	rt := newTestRuntime(t, 3)
	r := rt.CreateRegion("r", 30, Float64)
	whole := rt.BlockPartition(r, 1)

	producer := rt.NewLaunch("slow-producer", 1, func(tc *TaskContext) {
		time.Sleep(20 * time.Millisecond)
		d := tc.Float64(0)
		tc.Subspace(0).Each(func(i int64) { d[i] = 7 })
	})
	producer.Add(r, whole, WriteDiscard)
	producer.Execute()

	// Non-identity mapping: the dependent launch's only point runs on
	// proc 2, a worker the old dispatch loop never woke.
	consumer := rt.NewLaunch("mapped-consumer", 1, func(tc *TaskContext) {
		d := tc.Float64(0)
		tc.Subspace(0).Each(func(i int64) { d[i] += 1 })
	})
	consumer.Add(r, whole, ReadWrite)
	consumer.MapPoints(func(point int) int { return 2 })
	consumer.Execute()

	done := make(chan struct{})
	go func() { rt.Fence(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("dispatch never woke the mapped worker; launch hung")
	}
	if got := r.Float64s()[3]; got != 8 {
		t.Fatalf("r[3] = %v, want 8", got)
	}
}

// TestDispatchManyPointsNonIdentityMap exercises dispatch with a
// many-point launch whose points all map to the last two procs.
func TestDispatchManyPointsNonIdentityMap(t *testing.T) {
	rt := newTestRuntime(t, 4)
	r := rt.CreateRegion("r", 40, Float64)
	part := rt.BlockPartition(r, 8)
	l := rt.NewLaunch("packed", 8, func(tc *TaskContext) {
		d := tc.Float64(0)
		tc.Subspace(0).Each(func(i int64) { d[i] = float64(tc.Point()) })
	})
	l.Add(r, part, WriteDiscard)
	l.MapPoints(func(point int) int { return 2 + point%2 })
	l.Execute()
	rt.Fence()
	data := r.Float64s()
	for p := 0; p < 8; p++ {
		if data[p*5] != float64(p) {
			t.Fatalf("point %d did not run: r[%d] = %v", p, p*5, data[p*5])
		}
	}
}

// BenchmarkFusionChain measures real wall-clock time of an AXPY-style
// chain with the fusion window on and off: fused pays one dependence
// analysis and one worker round trip per window instead of per launch.
func BenchmarkFusionChain(b *testing.B) {
	run := func(b *testing.B, window int) {
		rt := newTestRuntime(b, 2)
		rt.SetFusionWindow(window)
		const n = 1 << 10
		x := rt.CreateRegion("x", n, Float64)
		y := rt.CreateRegion("y", n, Float64)
		parts := map[*Region]*Partition{
			x: rt.BlockPartition(x, 2),
			y: rt.BlockPartition(y, 2),
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 8; k++ {
				l := rt.NewLaunch("axpy", 2, func(tc *TaskContext) {
					d := tc.Float64(0)
					s := tc.Float64(1)
					tc.Subspace(0).Each(func(j int64) { d[j] += 0.5 * s[j] })
				})
				l.Add(y, parts[y], ReadWrite)
				l.Add(x, parts[x], ReadOnly)
				l.SetFusable(true)
				l.Execute()
			}
			rt.Fence()
		}
	}
	b.Run("fused", func(b *testing.B) { run(b, 16) })
	b.Run("unfused", func(b *testing.B) { run(b, 0) })
}
