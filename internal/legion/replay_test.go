package legion

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/prof"
)

const fusedReduceRounds = 10

// runFusedReduce issues rounds of a reduction fused with a non-reducing
// update of what it read: each round's two launches share one fusion
// window (the norm's Get flushes it), so both members' Futures resolve
// to the same fused launch. The update comes second, so replay runs it
// after the reduction it must leave alone. Its outcome's data are each
// round's norm read right after it was issued, every member's Get and
// GetNoSync after the final fence, and x.
func runFusedReduce(rt *Runtime) (Outcome, error) {
	const n = 400
	x := rt.CreateRegion("x", n, Float64)
	part := rt.BlockPartition(x, 4)
	var inRound, get, noSync []float64
	var futs []*Future
	for round := 0; round < fusedReduceRounds; round++ {
		norm := rt.NewLaunch("norm", 4, func(tc *TaskContext) {
			d := tc.Float64(0)
			var s float64
			tc.Subspace(0).Each(func(i int64) { s += d[i] * d[i] })
			tc.Reduce(s)
		})
		norm.Add(x, part, ReadOnly)
		norm.SetFusable(true)
		scale := rt.NewLaunch("scale", 4, func(tc *TaskContext) {
			d := tc.Float64(0)
			tc.Subspace(0).Each(func(i int64) { d[i] = d[i]*1.5 + float64(i%7) + 0.1 })
		})
		scale.Add(x, part, ReadWrite)
		scale.SetFusable(true)
		nf := norm.Execute()
		futs = append(futs, nf, scale.Execute())
		inRound = append(inRound, nf.Get())
	}
	rt.Fence()
	for _, f := range futs {
		get = append(get, f.Get())
		noSync = append(noSync, f.GetNoSync())
	}
	return Capture(rt, nil, [][]float64{inRound, get, noSync}, nil, x), rt.Err()
}

// TestFusedReductionRecovery: a point killed inside a fused window whose
// members are a reduction and a non-reducing update is recovered by
// replaying the members individually, and the reduction the replay
// recomputes reaches the Futures the application already holds — every
// member's Future reads the fault-free bits. Replay counts its points
// apart from the application's, so the task counters match a clean run.
func TestFusedReductionRecovery(t *testing.T) {
	clean := newTestRuntime(t, 4)
	clean.EnableCheckpointing(8)
	want, err := runFusedReduce(clean)
	if err != nil {
		t.Fatalf("fault-free run errored: %v", err)
	}

	faulty := newTestRuntime(t, 4)
	sink := prof.NewSink(0)
	faulty.EnableProfiling(sink)
	faulty.EnableCheckpointing(8)
	// Stream 8 is round 4's scale (the non-reducing member), stream 13
	// round 7's norm (the reducing one).
	inj := fault.New(1).KillPoint(8, 1).KillPoint(13, 2)
	faulty.SetFaultInjector(inj)
	got, err := runFusedReduce(faulty)
	if err != nil {
		t.Fatalf("faulty run errored: %v", err)
	}
	if inj.PointFaults() != 2 {
		t.Fatalf("point faults fired = %d, want 2", inj.PointFaults())
	}
	if groups := sink.Summary().FusedGroups; groups != fusedReduceRounds {
		t.Fatalf("fused launches = %d, want one per round (%d)", groups, fusedReduceRounds)
	}

	if diff := Diff(got, want, recovered...); diff != "" {
		t.Fatalf("faulty run differs from the clean one: %s", diff)
	}
	fs := faulty.Stats()
	// Every logged launch has 4 points, so the replayed points are four
	// per replayed launch.
	launches, points := fs.ReplayedLaunches.Load(), fs.ReplayedPoints.Load()
	if launches == 0 || points != 4*launches {
		t.Fatalf("replayed %d launches and %d points, want > 0 and 4 points each", launches, points)
	}
}

// runTwoSums fills a 100-element region with ones, then issues two
// fusable sums over it in one fusion window of a 2-point domain, one
// scaled by 1 and one by 2. It returns what each sum's Future reads,
// whether the two were fused, and their launch-stream positions.
func runTwoSums(rt *Runtime) (got [2]float64, fused bool, streams [2]int64) {
	rt.SetFusionWindow(8)
	x := rt.CreateRegion("ones", 100, Float64)
	part := rt.BlockPartition(x, 2)
	fill := rt.NewLaunch("fill", 2, func(tc *TaskContext) {
		d := tc.Float64(0)
		tc.Subspace(0).Each(func(i int64) { d[i] = 1 })
	})
	fill.Add(x, part, WriteDiscard)
	fill.Execute()
	var futs [2]*Future
	for i, scale := range []float64{1, 2} {
		sum := rt.NewLaunch("sum", 2, func(tc *TaskContext) {
			d := tc.Float64(0)
			var s float64
			tc.Subspace(0).Each(func(i int64) { s += scale * d[i] })
			tc.Reduce(s)
		})
		sum.Add(x, part, ReadOnly)
		sum.SetFusable(true)
		futs[i] = sum.Execute()
		streams[i] = sum.stream
	}
	for i, f := range futs {
		got[i] = f.Get()
	}
	fused = futs[0].launch == futs[1].launch && len(futs[0].launch.l.fused) == 2
	return got, fused, streams
}

// TestFusedReductionRecoveryPerMember: two reductions fused into one launch
// each read their own sum — 100 and 200 over a region of ones, not
// their total — both fault-free and when a point of either member is
// killed and the window is replayed from a checkpoint.
func TestFusedReductionRecoveryPerMember(t *testing.T) {
	want := [2]float64{100, 200}
	clean := newTestRuntime(t, 2)
	got, fused, streams := runTwoSums(clean)
	if !fused {
		t.Fatal("the two sums were not fused into one launch")
	}
	if got != want {
		t.Fatalf("fault-free: Futures read %v, want %v", got, want)
	}
	for member, stream := range streams {
		rt := newTestRuntime(t, 2)
		rt.EnableCheckpointing(8)
		inj := fault.New(1).KillPoint(stream, member)
		rt.SetFaultInjector(inj)
		got, _, _ := runTwoSums(rt)
		if err := rt.Err(); err != nil {
			t.Fatalf("member %d killed: %v", member, err)
		}
		if inj.PointFaults() != 1 || rt.Stats().ReplayedLaunches.Load() == 0 {
			t.Fatalf("member %d killed: %d faults fired, %d launches replayed; want 1 and some",
				member, inj.PointFaults(), rt.Stats().ReplayedLaunches.Load())
		}
		if got != want {
			t.Fatalf("member %d killed at point %d: Futures read %v, want %v", member, member, got, want)
		}
	}
}
