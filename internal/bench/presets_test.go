package bench

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/machine"
	"repro/internal/prof"
	"repro/internal/solvers"
)

// TestRunPresetSmoke: every legate-prof preset runs to completion on a
// tiny problem, publishes a non-empty trace satisfying the timeline
// invariant, and yields a report whose bounds are consistent.
func TestRunPresetSmoke(t *testing.T) {
	for _, name := range Presets() {
		t.Run(name, func(t *testing.T) {
			opt := SmallOptions()
			opt.UnitsPerProc = 256
			sink := prof.NewSink(0)
			if err := RunPreset(name, machine.GPU, 2, opt, sink); err != nil {
				t.Fatalf("preset %q: %v", name, err)
			}
			tr := sink.Snapshot()
			if len(tr.Spans) == 0 || len(tr.Launches) == 0 || len(tr.Deps) == 0 {
				t.Fatalf("preset %q: empty trace (%d spans, %d launches, %d deps)",
					name, len(tr.Spans), len(tr.Launches), len(tr.Deps))
			}
			if err := tr.CheckSpans(); err != nil {
				t.Fatalf("preset %q: %v", name, err)
			}
			rep := tr.BuildReport()
			if len(rep.Runs) != 1 {
				t.Fatalf("preset %q: %d report runs, want 1", name, len(rep.Runs))
			}
			rr := rep.Runs[0]
			if rr.CriticalPath <= 0 || rr.CriticalPath > rr.Makespan {
				t.Fatalf("preset %q: critical path %v vs makespan %v", name, rr.CriticalPath, rr.Makespan)
			}
			if rr.SpeedupBound+1e-9 < rr.Parallelism {
				t.Fatalf("preset %q: speedup bound %.3f below parallelism %.3f",
					name, rr.SpeedupBound, rr.Parallelism)
			}
		})
	}
}

// TestRunPresetUnknown: an unrecognized preset name is an error, not a
// silent no-op.
func TestRunPresetUnknown(t *testing.T) {
	if err := RunPreset("nope", machine.GPU, 2, SmallOptions(), prof.NewSink(0)); err == nil {
		t.Fatal("unknown preset must return an error")
	}
}

// TestCGPresetSimTimePinned pins the cg preset's simulated clock and
// copy counters, on 4 GPUs at the small options, to the values the
// runtime produced at 486a303 — before the mapper stopped rebuilding
// validity sets that do not change — and checks five runs agree: the
// mapper's shortcuts may change how long a mapping decision takes, never
// the decision.
func TestCGPresetSimTimePinned(t *testing.T) {
	const (
		wantSim     = time.Duration(449880)
		wantCopies  = 166
		wantRealloc = 524288
	)
	wantBytes := [4]int64{0, 6799360, 307200, 0}
	wantCounts := [4]int64{0, 16, 150, 0}
	opt := SmallOptions()
	for run := 0; run < 5; run++ {
		rt := legateRuntime(machine.GPU, 4, scaled(machine.LegateCost(), opt.OverheadScale))
		nx := gridFor(cgUnits(opt) * 4)
		a := core.Poisson2D(rt, nx)
		b := cunumeric.Full(rt, nx*nx, 1)
		solvers.CG(a, b, cgIters, 0).X.Destroy()
		rt.Fence()
		st := rt.Stats()
		var bytes, counts [4]int64
		for i := range bytes {
			bytes[i], counts[i] = st.CopiedBytes[i].Load(), st.CopyCounts[i].Load()
		}
		if got := rt.SimTime(); got != wantSim {
			t.Errorf("run %d: SimTime = %d, want %d", run, got, wantSim)
		}
		if got, realloc := st.Copies.Load(), st.ReallocCopy.Load(); got != wantCopies || realloc != wantRealloc || bytes != wantBytes || counts != wantCounts {
			t.Errorf("run %d: copies = %d realloc %d bytes %v counts %v, want %d %d %v %v",
				run, got, realloc, bytes, counts, wantCopies, wantRealloc, wantBytes, wantCounts)
		}
		rt.Shutdown()
	}
}
