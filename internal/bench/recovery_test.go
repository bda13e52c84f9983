package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/fault"
	"repro/internal/legion"
	"repro/internal/machine"
	"repro/internal/solvers"
)

// chaosCG runs a fixed-iteration CG solve on the 2-D Poisson problem
// and returns the solve result, the final solution values, and the
// runtime (still open — caller's cleanup closes it).
func chaosCG(t *testing.T, opt Options, configure func(rt *legion.Runtime)) (*solvers.Result, []float64, *legion.Runtime) {
	t.Helper()
	rt := legateRuntime(machine.GPU, 4, scaled(machine.LegateCost(), opt.OverheadScale))
	t.Cleanup(rt.Shutdown)
	if configure != nil {
		configure(rt)
	}
	nx := int64(32)
	a := core.Poisson2D(rt, nx)
	b := cunumeric.Full(rt, nx*nx, 1)
	res := solvers.CG(a, b, 20, 0)
	rt.Fence()
	return res, res.X.ToSlice(), rt
}

// TestChaosCGRecovery is the acceptance test of the fault-tolerance
// work: a seeded schedule that kills several point tasks AND one whole
// processor mid-run must leave CG on the 2-D Poisson problem with a
// solution and residual history bit-identical to the fault-free run.
// Task fusion stays at its default (enabled), so recovery is also
// exercised against fused launches.
func TestChaosCGRecovery(t *testing.T) {
	opt := SmallOptions()
	every := opt.checkpointEvery()

	base, baseX, _ := chaosCG(t, opt, func(rt *legion.Runtime) {
		rt.EnableCheckpointing(every)
	})
	if base.Err != nil {
		t.Fatalf("fault-free run errored: %v", base.Err)
	}

	var inj *fault.Injector
	faulted, faultedX, rt := chaosCG(t, opt, func(frt *legion.Runtime) {
		frt.EnableCheckpointing(every)
		inj = fault.New(opt.seed()).
			SetRate(1.0/64, 6).
			KillProc(frt.Procs()[3], 1)
		frt.SetFaultInjector(inj)
	})
	if faulted.Err != nil {
		t.Fatalf("faulted run errored: %v", faulted.Err)
	}
	if inj.PointFaults() < 1 {
		t.Fatal("schedule fired no point faults; the test exercised nothing")
	}
	if inj.ProcKills() != 1 {
		t.Fatal("processor kill did not fire")
	}
	if n := rt.NumProcs(); n != 3 {
		t.Fatalf("NumProcs = %d after the kill, want 3", n)
	}
	if d := rt.LaunchDomain(); d != 4 {
		t.Fatalf("LaunchDomain = %d, want stable 4", d)
	}
	if r := rt.Stats().Restores.Load(); r < 1 {
		t.Fatalf("restores = %d, want >= 1", r)
	}

	if len(faulted.Residuals) != len(base.Residuals) {
		t.Fatalf("residual history lengths differ: %d vs %d", len(faulted.Residuals), len(base.Residuals))
	}
	for i := range base.Residuals {
		if faulted.Residuals[i] != base.Residuals[i] {
			t.Fatalf("residual[%d]: faulted %v != clean %v (must be bit-identical)",
				i, faulted.Residuals[i], base.Residuals[i])
		}
	}
	if !sameF64(baseX, faultedX) {
		t.Fatal("solutions differ; recovery must be bit-exact")
	}
}

// TestRecoveryAblationOverhead checks the fault-free checkpointing
// overhead stays within the 10% budget the recovery design targets
// (snapshots are charged to the analysis pipeline, not the critical
// path).
func TestRecoveryAblationOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("measured ablation")
	}
	opt := SmallOptions()
	opt.Runs = 1
	res := AblationRecovery(opt)
	if res.With <= 0 || res.Without <= 0 {
		t.Fatalf("degenerate ablation: %+v", res)
	}
	if res.With < res.Without*0.90 {
		t.Fatalf("fault-free checkpointing costs more than 10%%: with=%.1f without=%.1f", res.With, res.Without)
	}
}

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files")

// goldenSchedules are the fault.Parse schedules the recovery golden pins
// through AblationRecoveryFaulted: a scheduled point fault with a
// processor kill, and random point faults at three densities.
var goldenSchedules = []string{
	"point@40:2,proc@1:500us,rate:0.001:3",
	"rate:0.02:7",
	"rate:0.05:11",
}

// replayFaultSchedule is dense enough that faults fire while recovery is
// replaying the log, not only during normal execution.
const replayFaultSchedule = "rate:0.05:30"

// replayFaultCounter wraps an injector and counts the faults it fires
// during recovery replay. The injector is consulted as each launch is
// issued, after the runtime has counted it: an issued launch in Tasks, a
// replayed one in ReplayedLaunches. So the calls that follow a move of
// ReplayedLaunches, up to the next move of Tasks, are replayed points.
type replayFaultCounter struct {
	legion.FaultInjector
	stats *machine.Stats

	mu             sync.Mutex
	tasks, replays int64
	inReplay       bool
	fired          int
}

func (c *replayFaultCounter) ShouldFail(stream int64, point int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.stats.ReplayedLaunches.Load(); n != c.replays {
		c.replays, c.inReplay = n, true
	}
	if n := c.stats.Tasks.Load(); n != c.tasks {
		c.tasks, c.inReplay = n, false
	}
	fail := c.FaultInjector.ShouldFail(stream, point)
	if fail && c.inReplay {
		c.fired++
	}
	return fail
}

// recoveryGolden renders the recovery experiments at a reduced size:
// the fault-free checkpointing ablation, the faulted ablation under its
// built-in schedule and under each of goldenSchedules, the MTBF sweep,
// and one run whose faults also fire during replay. The size keeps
// every launch's footprint under the inline grain, so every point runs
// on the issuing goroutine and a failure is noticed at the same
// synchronization point in every run; at a size where SpMV goes to the
// worker queues, when a failure surfaces — and so how many restores and
// replayed launches it costs — depends on thread timing under load.
// Every value is then a deterministic function of the simulation, so
// the text is stable across runs, machine load and GOMAXPROCS settings.
func recoveryGolden(t *testing.T) string {
	opt := SmallOptions()
	opt.UnitsPerProc = 128
	opt.Runs = 1
	var sb strings.Builder
	ablation := func(spec string, res AblationResult) {
		fmt.Fprintf(&sb, "%s [%s]\n  %s\n  with: %v   without: %v\n",
			res.Name, spec, res.Metric, res.With, res.Without)
	}
	ablation("", AblationRecovery(opt))
	ablation("built-in", AblationRecoveryFaulted(opt))
	for _, spec := range goldenSchedules {
		o := opt
		o.FaultSpec = spec
		ablation(spec, AblationRecoveryFaulted(o))
	}
	sb.WriteString(FigRecovery(opt).FormatFigure())

	base := cgRecoveryRun(4, cgIters, opt, func(rt *legion.Runtime) {
		rt.EnableCheckpointing(opt.checkpointEvery())
	})
	var counter *replayFaultCounter
	var inj *fault.Injector
	r := cgRecoveryRun(4, cgIters, opt, func(rt *legion.Runtime) {
		rt.EnableCheckpointing(opt.checkpointEvery())
		var err error
		if inj, err = fault.Parse(replayFaultSchedule, opt.seed()); err != nil {
			t.Fatal(err)
		}
		counter = &replayFaultCounter{FaultInjector: inj, stats: rt.Stats()}
		rt.SetFaultInjector(counter)
	})
	if counter.fired == 0 {
		t.Errorf("schedule %s fired no fault during replay", replayFaultSchedule)
	}
	identical := sameF64(base.x, r.x) && sameF64(base.residuals, r.residuals) && r.err == nil
	fmt.Fprintf(&sb, "replay faults [%s]\n  sim=%v faults=%d during-replay=%d restores=%d replayed=%d bit-identical=%v\n",
		replayFaultSchedule, r.sim, inj.PointFaults(), counter.fired, r.restores, r.replayed, identical)
	return sb.String()
}

// TestRecoveryGolden pins the recovery experiments' rows — throughputs,
// restore and replay counts, bit-identity verdicts — against
// testdata/recovery.golden, so a change to the checkpoint/replay path
// that moves any of them shows up as a diff. Run with -update to
// rewrite the file.
func TestRecoveryGolden(t *testing.T) {
	checkGolden(t, "testdata/recovery.golden", recoveryGolden(t))
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("rows differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
