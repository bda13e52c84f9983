package legion

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
)

// TestKernelPanicBecomesStickyErr: without checkpointing, a panicking
// kernel must not kill the process — it becomes the runtime's sticky
// error, naming the task and point.
func TestKernelPanicBecomesStickyErr(t *testing.T) {
	rt := newTestRuntime(t, 4)
	r := rt.CreateRegion("v", 64, Float64)
	part := rt.BlockPartition(r, 4)
	l := rt.NewLaunch("boom", 4, func(tc *TaskContext) {
		if tc.Point() == 2 {
			panic("kaboom")
		}
	})
	l.Add(r, part, ReadWrite)
	l.Execute()
	rt.Fence()
	err := rt.Err()
	if err == nil {
		t.Fatal("kernel panic must surface as a sticky error")
	}
	var pe *TaskPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error type = %T, want *TaskPanicError", err)
	}
	if pe.Task != "boom" || pe.Point != 2 {
		t.Fatalf("error = %v, want task boom point 2", err)
	}
	// The runtime must remain usable for shutdown: another fence returns.
	rt.Fence()
}

// TestInjectedFaultInFusedLaunch: fault injection addresses launches by
// their original stream positions, so a fault aimed at a launch that
// was fused into a larger one still fires (members keep their stream
// numbers) and surfaces at the next fence.
func TestInjectedFaultInFusedLaunch(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.SetFaultInjector(fault.New(1).KillPoint(2, 0))
	r := rt.CreateRegion("v", 64, Float64)
	part := rt.BlockPartition(r, 2)
	for i := 0; i < 3; i++ { // fusable chain: same shape, ReadWrite on r
		l := rt.NewLaunch("inc", 2, func(tc *TaskContext) {
			d := tc.Float64(0)
			tc.Subspace(0).Each(func(j int64) { d[j]++ })
		})
		l.Add(r, part, ReadWrite)
		l.Execute()
	}
	rt.Fence()
	err := rt.Err()
	if err == nil {
		t.Fatal("injected fault must surface at Fence")
	}
	var pe *TaskPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error type = %T, want *TaskPanicError", err)
	}
	if _, ok := pe.Value.(InjectedFault); !ok {
		t.Fatalf("panic value = %T (%v), want InjectedFault", pe.Value, pe.Value)
	}
}

// TestStickyErrSurfacesFromFusionWindow: an error raised while launches
// sit buffered in the fusion window (here a modeled OOM during mapping)
// must surface at the next Fence, and a Future read afterwards must
// return rather than deadlock.
func TestStickyErrSurfacesFromFusionWindow(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 1})
	m.Cost().MemCapacity[machine.GPU] = 1024 // 128 floats
	rt := NewRuntime(m, m.Select(machine.GPU, 1))
	defer rt.Shutdown()
	big := rt.CreateRegion("big", 1000, Float64)
	for i := 0; i < 3; i++ { // buffered in the fusion window until Fence
		l := rt.NewLaunch("touch", 1, func(tc *TaskContext) {
			tc.Float64(0)[0]++
		})
		l.AddWhole(big, ReadWrite)
		l.Execute()
	}
	rt.Fence()
	err := rt.Err()
	if err == nil {
		t.Fatal("OOM inside the fusion window must surface at Fence")
	}
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("error type = %T, want *OOMError", err)
	}
	// A future read after the sticky error must not hang.
	done := make(chan float64, 1)
	go func() {
		l := rt.NewLaunch("sum", 1, func(tc *TaskContext) { tc.Reduce(1) })
		l.AddWhole(big, ReadOnly)
		done <- l.Execute().Get()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Future.Get deadlocked after a sticky error")
	}
	if rt.Err() == nil {
		t.Fatal("sticky error must persist")
	}
}

// TestOOMAtIssue: a launch is mapped when it is issued, so one whose
// requirements do not fit fails inside Execute even while it is queued
// behind a stalled launch — the sticky error is an OOMError when Execute
// returns, none of the launch's kernels runs, and Fence still returns.
func TestOOMAtIssue(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 1})
	m.Cost().MemCapacity[machine.GPU] = 1024 // 128 floats
	rt := NewRuntime(m, m.Select(machine.GPU, 2))
	defer rt.Shutdown()
	rt.inlineGrain = 0 // queue every launch
	small, big := rt.CreateRegion("small", 16, Float64), rt.CreateRegion("big", 1000, Float64)
	release := make(chan struct{})
	stalled := rt.NewLaunch("stalled", 2, func(*TaskContext) { <-release })
	stalled.Add(small, rt.BlockPartition(small, 2), ReadWrite)
	stalled.Execute()
	var ran atomic.Int64
	over := rt.NewLaunch("over", 2, func(*TaskContext) { ran.Add(1) })
	over.Add(small, rt.BlockPartition(small, 2), ReadOnly)
	over.AddWhole(big, ReadOnly)
	over.Execute()
	err := rt.Err()
	close(release)
	rt.Fence()
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("Err when Execute returned = %v, want *OOMError", err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d kernels of the launch that did not fit ran", n)
	}
}

// runFaultLoop executes 30 rounds of increment+dot on a runtime,
// reading every future as it goes, and captures its outcome.
func runFaultLoop(rt *Runtime) (Outcome, error) {
	const n = 1000
	x := rt.CreateRegion("x", n, Float64)
	part := rt.BlockPartition(x, 4)
	var dots []float64
	for round := 0; round < 30; round++ {
		inc := rt.NewLaunch("inc", 4, func(tc *TaskContext) {
			d := tc.Float64(0)
			tc.Subspace(0).Each(func(i int64) { d[i] += float64(i%13) + 0.25 })
		})
		inc.Add(x, part, ReadWrite)
		inc.Execute()
		dot := rt.NewLaunch("dot", 4, func(tc *TaskContext) {
			d := tc.Float64(0)
			var s float64
			tc.Subspace(0).Each(func(i int64) { s += d[i] * d[i] })
			tc.Reduce(s)
		})
		dot.Add(x, part, ReadOnly)
		dots = append(dots, dot.Execute().GetNoSync())
	}
	return Capture(rt, nil, Contents(rt, x), dots), rt.Err()
}

// recovered leaves out of a comparison with a fault-free run what
// recovery may change.
var recovered = []Omit{
	{"Sim", "restoring a checkpoint and replaying its epoch take simulated time"},
	{"Analysis", "replayed launches pay their analysis again"},
	{"Stats.PointFailures", "the faults are the difference"},
	{"Stats.Restores", "recovery restores"},
	{"Stats.RestoredBytes", "recovery restores"},
	{"Stats.ReplayedLaunches", "recovery replays"},
	{"Stats.ReplayedPoints", "recovery replays"},
}

// TestPointFaultRecoveryBitIdentical: killed point tasks are recovered
// by checkpoint restore + replay, and the recovered run's futures and
// final data match a fault-free run bit for bit.
func TestPointFaultRecoveryBitIdentical(t *testing.T) {
	clean := newTestRuntime(t, 4)
	clean.EnableCheckpointing(16)
	want, err := runFaultLoop(clean)
	if err != nil {
		t.Fatalf("fault-free run errored: %v", err)
	}

	faulty := newTestRuntime(t, 4)
	faulty.EnableCheckpointing(16)
	inj := fault.New(7).KillPoint(21, 2).KillPoint(40, 0).KillPoint(40, 3)
	faulty.SetFaultInjector(inj)
	got, err := runFaultLoop(faulty)
	if err != nil {
		t.Fatalf("faulty run errored: %v", err)
	}
	if inj.PointFaults() != 3 {
		t.Fatalf("point faults fired = %d, want 3", inj.PointFaults())
	}
	if r := faulty.Stats().Restores.Load(); r < 1 {
		t.Fatalf("restores = %d, want >= 1", r)
	}
	if diff := Diff(got, want, recovered...); diff != "" {
		t.Fatalf("faulty run differs from the clean one: %s", diff)
	}
}

// TestProcDeathRecoveryBitIdentical: losing a whole processor mid-run
// degrades onto the survivors without changing any result — the launch
// domain (and with it the grouping of reduction partials) is stable.
func TestProcDeathRecoveryBitIdentical(t *testing.T) {
	clean := newTestRuntime(t, 4)
	clean.EnableCheckpointing(16)
	want, err := runFaultLoop(clean)
	if err != nil {
		t.Fatalf("fault-free run errored: %v", err)
	}

	faulty := newTestRuntime(t, 4)
	faulty.EnableCheckpointing(16)
	victim := faulty.Procs()[3]
	inj := fault.New(7).KillProc(victim, 1) // fires at the first boundary past t=1ns
	faulty.SetFaultInjector(inj)
	got, err := runFaultLoop(faulty)
	if err != nil {
		t.Fatalf("faulty run errored: %v", err)
	}
	if inj.ProcKills() != 1 {
		t.Fatal("processor kill did not fire")
	}
	if n := faulty.NumProcs(); n != 3 {
		t.Fatalf("NumProcs = %d after death, want 3", n)
	}
	if d := faulty.LaunchDomain(); d != 4 {
		t.Fatalf("LaunchDomain = %d after death, want stable 4", d)
	}
	if n := faulty.Stats().ProcsLost.Load(); n != 1 {
		t.Fatalf("ProcsLost = %d, want 1", n)
	}
	died := append([]Omit{
		{"Stats.ProcsLost", "the death is the difference"},
		{"MemUsed", "the dead processor's memory is evicted"},
		{"Stats.Copies", "the survivors copy in what only the dead processor held"},
		{"Stats.CopyCounts[1]", "the same copies, within the node"},
		{"Stats.CopiedBytes[1]", "the same copies' bytes"},
	}, recovered...)
	if diff := Diff(got, want, died...); diff != "" {
		t.Fatalf("faulty run differs from the clean one: %s", diff)
	}
}

// TestProcDeathWithoutCheckpointing: with no checkpointing at all,
// processor loss is pure degradation — later launches run on the
// survivors and results stay correct (the quiesce before retirement
// means no in-flight work is lost).
func TestProcDeathWithoutCheckpointing(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.SetFaultInjector(fault.New(1).KillProc(rt.Procs()[1], 1))
	r := rt.CreateRegion("v", 100, Float64)
	part := rt.BlockPartition(r, 2)
	for round := 0; round < 5; round++ {
		l := rt.NewLaunch("inc", 2, func(tc *TaskContext) {
			d := tc.Float64(0)
			tc.Subspace(0).Each(func(i int64) { d[i]++ })
		})
		l.Add(r, part, ReadWrite)
		l.Execute()
		rt.Fence()
	}
	if err := rt.Err(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if n := rt.NumProcs(); n != 1 {
		t.Fatalf("NumProcs = %d, want 1", n)
	}
	for i, v := range r.Float64s() {
		if v != 5 {
			t.Fatalf("v[%d] = %v, want 5", i, v)
		}
	}
}

// TestRecoveryAbandonedOnPersistentFault: a kernel that fails
// deterministically on every replay must not loop forever — after
// maxRecoveryAttempts restores the runtime gives up with a sticky error.
func TestRecoveryAbandonedOnPersistentFault(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.EnableCheckpointing(8)
	r := rt.CreateRegion("v", 16, Float64)
	l := rt.NewLaunch("alwaysboom", 2, func(tc *TaskContext) {
		panic("deterministic bug")
	})
	l.Add(r, rt.BlockPartition(r, 2), ReadWrite)
	l.Execute()
	rt.Fence()
	err := rt.Err()
	if err == nil {
		t.Fatal("persistent fault must become a sticky error")
	}
	if !strings.Contains(err.Error(), "recovery abandoned") {
		t.Fatalf("error = %v, want recovery-abandoned", err)
	}
	if n := rt.Stats().Restores.Load(); n != maxRecoveryAttempts {
		t.Fatalf("restores = %d, want %d (bounded attempts)", n, maxRecoveryAttempts)
	}
}

// TestCheckpointEpochDiscardsLog: epochs cap the replay log — after
// `every` launches the log and snapshots reset, so memory stays bounded
// and replay never reaches past the last checkpoint.
func TestCheckpointEpochDiscardsLog(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.EnableCheckpointing(4)
	r := rt.CreateRegion("v", 32, Float64)
	part := rt.BlockPartition(r, 2)
	for i := 0; i < 20; i++ {
		l := rt.NewLaunch("inc", 2, func(tc *TaskContext) {
			d := tc.Float64(0)
			tc.Subspace(0).Each(func(j int64) { d[j]++ })
		})
		l.Add(r, part, ReadWrite)
		l.Execute()
	}
	rt.Fence()
	if err := rt.Err(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if n := rt.Stats().Checkpoints.Load(); n < 4 {
		t.Fatalf("checkpoints = %d, want >= 4 (20 launches / epoch of 4)", n)
	}
	if got := len(rt.ft.log); got > 4 {
		t.Fatalf("log length = %d, want <= 4 (bounded by the epoch)", got)
	}
}
