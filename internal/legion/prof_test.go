package legion

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/prof"
)

// profStep issues one two-point launch: dst += src (ReadWrite dst,
// ReadOnly src), giving a known dependence structure.
func profStep(rt *Runtime, name string, dst, src *Region, pd, ps *Partition) {
	l := rt.NewLaunch(name, pd.Colors(), func(tc *TaskContext) {
		d := tc.Float64(0)
		s := tc.Float64(1)
		tc.Subspace(0).Each(func(i int64) { d[i] += s[i] })
	})
	l.Add(dst, pd, ReadWrite)
	l.Add(src, ps, ReadOnly)
	l.Execute()
}

// TestProfilingDisabledByDefault: a runtime without a sink publishes
// nothing and reports a nil profiler.
func TestProfilingDisabledByDefault(t *testing.T) {
	rt := newTestRuntime(t, 2)
	if rt.Profiler() != nil {
		t.Fatal("fresh runtime must have no sink attached")
	}
}

// TestProfilingSpansAndDeps: the sink captures every launch with its
// dynamic dependence edges, one span per point on the right processor,
// and the timeline invariant (no overlap within a processor) holds.
func TestProfilingSpansAndDeps(t *testing.T) {
	rt := newTestRuntime(t, 2)
	sink := prof.NewSink(0)
	rt.EnableProfiling(sink)
	const n = 64
	x := rt.CreateRegion("x", n, Float64)
	y := rt.CreateRegion("y", n, Float64)
	px := rt.BlockPartition(x, 2)
	py := rt.BlockPartition(y, 2)
	profStep(rt, "a", x, y, px, py) // no deps (first touch)
	profStep(rt, "b", y, x, py, px) // RAW+WAR on a
	profStep(rt, "c", x, y, px, py) // deps on a (RW x) and b (reads y)
	rt.Fence()

	tr := sink.Snapshot()
	if len(tr.Launches) != 3 {
		t.Fatalf("launches = %d, want 3", len(tr.Launches))
	}
	if len(tr.Spans) != 6 {
		t.Fatalf("spans = %d, want 6 (3 launches x 2 points)", len(tr.Spans))
	}
	if err := tr.CheckSpans(); err != nil {
		t.Fatalf("span overlap: %v", err)
	}
	// Dependence edges: b depends on a; c depends on a and b.
	type edge struct{ from, to int64 }
	got := map[edge]bool{}
	for _, d := range tr.Deps {
		got[edge{d.From, d.To}] = true
	}
	name2seq := map[string]int64{}
	for _, li := range tr.Launches {
		name2seq[li.Name] = li.Seq
	}
	for _, want := range []struct{ from, to string }{{"a", "b"}, {"a", "c"}, {"b", "c"}} {
		if !got[edge{name2seq[want.from], name2seq[want.to]}] {
			t.Fatalf("missing dependence %s -> %s in %v", want.from, want.to, tr.Deps)
		}
	}
	// Spans carry processor and node placement, and reference launches.
	for _, sp := range tr.Spans {
		if sp.Run != 1 || sp.Dur <= 0 {
			t.Fatalf("bad span %+v", sp)
		}
		if _, ok := name2seq[sp.Task]; !ok {
			t.Fatalf("span task %q not among launches", sp.Task)
		}
		if rt.Machine().Proc(rt.Procs()[sp.Point%2]).Node != sp.Node {
			t.Fatalf("span node = %d, inconsistent with proc %d", sp.Node, sp.Proc)
		}
	}
}

// TestProfilingCopyEvents: coherence copies surface in the sink with
// link class and bytes matching the Stats counters.
func TestProfilingCopyEvents(t *testing.T) {
	rt := newTestRuntime(t, 2)
	sink := prof.NewSink(0)
	rt.EnableProfiling(sink)
	const n = 64
	x := rt.CreateRegion("x", n, Float64)
	y := rt.CreateRegion("y", n, Float64)
	px := rt.BlockPartition(x, 2)
	py := rt.BlockPartition(y, 2)
	profStep(rt, "a", x, y, px, py)
	rt.Fence()
	tr := sink.Snapshot()
	if len(tr.Copies) == 0 {
		t.Fatal("first-touch reads must record coherence copies")
	}
	var bytes int64
	for _, c := range tr.Copies {
		if c.Dst < 0 {
			t.Fatalf("copy with bad dst: %+v", c)
		}
		bytes += c.Bytes
	}
	if got := rt.Stats().TotalBytes(); got != bytes {
		t.Fatalf("sink copies total %d bytes, Stats %d", bytes, got)
	}
	if len(tr.Mem) == 0 {
		t.Fatal("allocations must record mapper memory events")
	}
}

// TestProfilingReplayTags: spans re-executed by checkpoint recovery are
// tagged Replay, carry the original launch's seq and the checkpoint
// epoch they were replayed in, and the fault/restore marks bracket them.
// The marks, times included, are the same whether the failing launch was
// queued or ran inline.
func TestProfilingReplayTags(t *testing.T) {
	queued := profilingReplayTags(t, 0)
	if inline := profilingReplayTags(t, math.MaxInt64); !reflect.DeepEqual(inline, queued) {
		t.Fatalf("marks with every launch inline\n%v\ndiffer from every launch queued\n%v", inline, queued)
	}
}

func profilingReplayTags(t *testing.T, grain int64) []prof.Mark {
	rt := newTestRuntime(t, 2)
	rt.inlineGrain = grain
	sink := prof.NewSink(0)
	rt.EnableProfiling(sink)
	// Launch 3 opens the second epoch (epoch 1) and is the one that fails.
	rt.EnableCheckpointing(2)
	rt.SetFaultInjector(fault.New(1).KillPoint(3, 0))
	r := rt.CreateRegion("v", 64, Float64)
	part := rt.BlockPartition(r, 2)
	for i := 0; i < 3; i++ {
		l := rt.NewLaunch("inc", 2, func(tc *TaskContext) {
			d := tc.Float64(0)
			tc.Subspace(0).Each(func(j int64) { d[j]++ })
		})
		l.Add(r, part, ReadWrite)
		l.Execute()
	}
	rt.Fence()
	if err := rt.Err(); err != nil {
		t.Fatalf("recovery should succeed: %v", err)
	}
	tr := sink.Snapshot()
	var failedSeq int64
	for _, li := range tr.Launches {
		if li.Stream == 3 {
			failedSeq = li.Seq
		}
	}
	var replayed int
	for _, sp := range tr.Spans {
		if !sp.Replay {
			continue
		}
		replayed++
		if sp.Launch != failedSeq || sp.CkptEpoch != 1 {
			t.Fatalf("replay span of launch %d in epoch %d, want launch %d in epoch 1",
				sp.Launch, sp.CkptEpoch, failedSeq)
		}
	}
	if replayed != 2 {
		t.Fatalf("recovery replay emitted %d Replay-tagged spans, want the failed launch's 2", replayed)
	}
	var faults, restores int
	for _, m := range tr.Marks {
		switch m.Kind {
		case prof.MarkFault:
			faults++
		case prof.MarkRestore:
			restores++
		}
	}
	if faults == 0 || restores == 0 {
		t.Fatalf("marks: faults=%d restores=%d, want both > 0", faults, restores)
	}
	if err := tr.CheckSpans(); err != nil {
		t.Fatalf("replay spans must not overlap normal spans: %v", err)
	}
	return tr.Marks
}

// TestProfileCountersStableAcrossRecovery is the double-counting audit:
// the sink summary's launch/point counters and fusion totals after a
// faulted run that recovered by restore+replay must equal a clean run's —
// replayEntry re-runs logged launches without Execute or the fuser, and
// runPoint counts replayed points apart, so nothing is recorded twice.
func TestProfileCountersStableAcrossRecovery(t *testing.T) {
	run := func(inject bool) Outcome {
		rt := newTestRuntime(t, 2)
		sink := prof.NewSink(0)
		rt.EnableProfiling(sink)
		rt.SetFusionWindow(4)
		rt.EnableCheckpointing(8)
		if inject {
			rt.SetFaultInjector(fault.New(1).KillPoint(3, 1))
		}
		r := rt.CreateRegion("v", 64, Float64)
		part := rt.BlockPartition(r, 2)
		for i := 0; i < 6; i++ {
			l := rt.NewLaunch("inc", 2, func(tc *TaskContext) {
				d := tc.Float64(0)
				tc.Subspace(0).Each(func(j int64) { d[j]++ })
			})
			l.Add(r, part, ReadWrite)
			l.SetFusable(true)
			l.Execute()
		}
		rt.Fence()
		if err := rt.Err(); err != nil {
			t.Fatalf("inject=%v: %v", inject, err)
		}
		if got := r.Float64s()[7]; got != 6 {
			t.Fatalf("inject=%v: r[7] = %v, want 6", inject, got)
		}
		return Capture(rt, sink, nil, nil, r)
	}
	omit := append([]Omit{
		{"Summary.Tasks[*].SimTime", "the point that failed charged no work"},
		{"Trace", "recovery adds its marks and replayed spans"},
	}, recovered...)
	if diff := Diff(run(true), run(false), omit...); diff != "" {
		t.Fatalf("recovery changed the profile: %s", diff)
	}
}

// TestSummaryAgreesWithSnapshot: the sink's summary, folded in as
// records arrive, equals its recomputation from a snapshot that dropped
// nothing. Under fusion, a rate fault schedule and checkpoint replay,
// each task name's summary launches, points and simulated time equal
// the snapshot's launch count, summed launch points and summed
// non-replay span durations, and the fused counts equal the launches'
// Members.
func TestSummaryAgreesWithSnapshot(t *testing.T) {
	rt := newTestRuntime(t, 2)
	sink := prof.NewSink(1 << 16)
	rt.EnableProfiling(sink)
	rt.SetFusionWindow(4)
	rt.EnableCheckpointing(8)
	inj, err := fault.Parse("rate:0.05:4", 3)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetFaultInjector(inj)
	x := rt.CreateRegion("x", 64, Float64)
	y := rt.CreateRegion("y", 64, Float64)
	px, py := rt.BlockPartition(x, 2), rt.BlockPartition(y, 2)
	for i := 0; i < 24; i++ {
		for _, name := range []string{"scale", "shift"} {
			l := rt.NewLaunch(name, 2, func(tc *TaskContext) {
				d := tc.Float64(0)
				tc.Subspace(0).Each(func(j int64) { d[j] = 0.5*d[j] + 1 })
			})
			l.Add(x, px, ReadWrite)
			l.SetFusable(true)
			l.Execute()
		}
		profStep(rt, "axpy", y, x, py, px)
	}
	rt.Fence()
	if err := rt.Err(); err != nil {
		t.Fatalf("recovery should succeed: %v", err)
	}
	if inj.PointFaults() == 0 || rt.Stats().ReplayedLaunches.Load() == 0 {
		t.Fatal("test setup: the schedule must fail a point and recovery replay it")
	}
	sum := sink.Summary()
	if sum.FusedGroups == 0 {
		t.Fatal("test setup: the stream must fuse")
	}

	tr := sink.Snapshot()
	if tr.DroppedSpans+tr.DroppedLaunches > 0 {
		t.Fatalf("sink dropped %d spans and %d launches", tr.DroppedSpans, tr.DroppedLaunches)
	}
	want := map[string]prof.TaskStat{}
	var groups, members int64
	for _, li := range tr.Launches {
		e := want[li.Name]
		e.Name = li.Name
		e.Launches++
		e.Points += int64(li.Points)
		want[li.Name] = e
		if len(li.Members) > 0 {
			groups++
			members += int64(len(li.Members))
		}
	}
	for _, sp := range tr.Spans {
		if !sp.Replay {
			e := want[sp.Task]
			e.SimTime += sp.Dur
			want[sp.Task] = e
		}
	}
	if len(sum.Tasks) != len(want) {
		t.Fatalf("summary has %d task names, the snapshot %d", len(sum.Tasks), len(want))
	}
	for _, e := range sum.Tasks {
		if e != want[e.Name] {
			t.Fatalf("task %q: summary %+v, snapshot %+v", e.Name, e, want[e.Name])
		}
	}
	if sum.FusedGroups != groups || sum.FusedMembers != members {
		t.Fatalf("summary fused (%d, %d), snapshot Members (%d, %d)", sum.FusedGroups, sum.FusedMembers, groups, members)
	}
}

// TestProfilingCheckpointEpochTags: launches issued after a checkpoint
// commit carry the incremented epoch.
func TestProfilingCheckpointEpochTags(t *testing.T) {
	rt := newTestRuntime(t, 2)
	sink := prof.NewSink(0)
	rt.EnableProfiling(sink)
	rt.EnableCheckpointing(3)
	r := rt.CreateRegion("v", 64, Float64)
	part := rt.BlockPartition(r, 2)
	for i := 0; i < 8; i++ {
		l := rt.NewLaunch("inc", 2, func(tc *TaskContext) {
			d := tc.Float64(0)
			tc.Subspace(0).Each(func(j int64) { d[j]++ })
		})
		l.Add(r, part, ReadWrite)
		l.Execute()
	}
	rt.Fence()
	tr := sink.Snapshot()
	epochs := map[int64]int{}
	for _, li := range tr.Launches {
		epochs[li.CkptEpoch]++
	}
	if len(epochs) < 2 {
		t.Fatalf("8 launches with epoch length 3 must span >=2 checkpoint epochs, got %v", epochs)
	}
	var commits int
	for _, m := range tr.Marks {
		if m.Kind == prof.MarkCheckpoint {
			commits++
		}
	}
	if commits == 0 {
		t.Fatal("checkpoint commits must record marks")
	}
}

// BenchmarkProfilingSink measures the per-launch cost of an attached
// sink against the nil-sink fast path (one pointer compare per event
// site); the acceptance bar is that the disabled case stays at the
// unprofiled baseline.
func BenchmarkProfilingSink(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			rt := newTestRuntime(b, 2)
			if mode == "on" {
				rt.EnableProfiling(prof.NewSink(0))
			}
			r := rt.CreateRegion("v", 1<<10, Float64)
			part := rt.BlockPartition(r, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := rt.NewLaunch("inc", 2, func(tc *TaskContext) {
					d := tc.Float64(0)
					tc.Subspace(0).Each(func(j int64) { d[j]++ })
				})
				l.Add(r, part, ReadWrite)
				l.Execute()
			}
			rt.Fence()
			b.StopTimer()
		})
	}
}
