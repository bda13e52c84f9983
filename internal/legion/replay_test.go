package legion

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/prof"
)

// fusedReduceResult is the observable outcome of runFusedReduce.
type fusedReduceResult struct {
	inRound []float64 // each round's norm, read right after it was issued
	get     []float64 // every member's Future.Get after the final fence
	noSync  []float64 // every member's Future.GetNoSync after the final fence
	x       []float64
	err     error
}

const fusedReduceRounds = 10

// runFusedReduce issues rounds of a reduction fused with a non-reducing
// update of what it read: each round's two launches share one fusion
// window (the norm's Get flushes it), so both members' Futures resolve
// to the same fused launch. The update comes second, so replay runs it
// after the reduction it must leave alone.
func runFusedReduce(rt *Runtime) fusedReduceResult {
	const n = 400
	x := rt.CreateRegion("x", n, Float64)
	part := rt.BlockPartition(x, 4)
	var out fusedReduceResult
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
		out.inRound = append(out.inRound, nf.Get())
	}
	rt.Fence()
	for _, f := range futs {
		out.get = append(out.get, f.Get())
		out.noSync = append(out.noSync, f.GetNoSync())
	}
	out.x = append(out.x, x.Float64s()...)
	out.err = rt.Err()
	return out
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
	want := runFusedReduce(clean)
	if want.err != nil {
		t.Fatalf("fault-free run errored: %v", want.err)
	}

	faulty := newTestRuntime(t, 4)
	sink := prof.NewSink(0)
	faulty.EnableProfiling(sink)
	faulty.EnableCheckpointing(8)
	// Stream 8 is round 4's scale (the non-reducing member), stream 13
	// round 7's norm (the reducing one).
	inj := fault.New(1).KillPoint(8, 1).KillPoint(13, 2)
	faulty.SetFaultInjector(inj)
	got := runFusedReduce(faulty)
	if got.err != nil {
		t.Fatalf("faulty run errored: %v", got.err)
	}
	if inj.PointFaults() != 2 {
		t.Fatalf("point faults fired = %d, want 2", inj.PointFaults())
	}
	if groups := sink.Summary().FusedGroups; groups != fusedReduceRounds {
		t.Fatalf("fused launches = %d, want one per round (%d)", groups, fusedReduceRounds)
	}

	same := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d]: faulty %v != clean %v (must be bit-identical)", what, i, got[i], want[i])
			}
		}
	}
	same("in-round norm", got.inRound, want.inRound)
	same("Get", got.get, want.get)
	same("GetNoSync", got.noSync, want.noSync)
	same("x", got.x, want.x)

	cs, fs := clean.Stats(), faulty.Stats()
	if c, f := cs.Tasks.Load(), fs.Tasks.Load(); c != f {
		t.Fatalf("Tasks: faulty %d != clean %d", f, c)
	}
	if c, f := cs.PointTasks.Load(), fs.PointTasks.Load(); c != f {
		t.Fatalf("PointTasks: faulty %d != clean %d", f, c)
	}
	// Every logged launch has 4 points, so the replayed points are four
	// per replayed launch.
	launches, points := fs.ReplayedLaunches.Load(), fs.ReplayedPoints.Load()
	if launches == 0 || points != 4*launches {
		t.Fatalf("replayed %d launches and %d points, want > 0 and 4 points each", launches, points)
	}
}
