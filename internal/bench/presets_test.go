package bench

import (
	"fmt"
	"runtime"
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

// TestPresetsDeterministic: every profiling preset on 4 GPUs publishes
// the same spans, coherence copies and memory events on every run, at
// GOMAXPROCS 1 and 2. The quantum and pagerank presets queue launches
// whose points read overlapping images; each launch is mapped at issue,
// in point order, so which point fetched a shared piece first cannot
// move a copy, a span or the clock.
func TestPresetsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range Presets() {
		t.Run(name, func(t *testing.T) {
			var want *prof.Trace
			for _, cpus := range []int{1, 2} {
				runtime.GOMAXPROCS(cpus)
				for run := 0; run < 2; run++ {
					sink := prof.NewSink(0)
					if err := RunPreset(name, machine.GPU, 4, SmallOptions(), sink); err != nil {
						t.Fatalf("preset %q: %v", name, err)
					}
					got := sink.Snapshot()
					if got.DroppedSpans+got.DroppedCopies != 0 {
						t.Fatalf("sink dropped %d spans and %d copies", got.DroppedSpans, got.DroppedCopies)
					}
					if want == nil {
						want = got
						continue
					}
					if d := firstDiff("spans", got.Spans, want.Spans) + firstDiff("copies", got.Copies, want.Copies) +
						firstDiff("mem events", got.Mem, want.Mem); d != "" {
						t.Fatalf("GOMAXPROCS=%d run %d differs from the first run: %s", cpus, run, d)
					}
				}
			}
		})
	}
}

// firstDiff describes the first element where got and want differ, or
// their lengths if one is a prefix of the other; "" when equal.
func firstDiff[T comparable](name string, got, want []T) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("%s[%d] = %+v, want %+v; ", name, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d %s, want %d; ", len(got), name, len(want))
	}
	return ""
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
