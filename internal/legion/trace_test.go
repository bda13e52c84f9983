package legion

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/prof"
)

// TestTraceReplayReducesAnalysisTime: a repeated launch sequence inside
// a trace replays with a fraction of the analysis cost, leaving results
// unchanged.
func TestTraceReplayReducesAnalysisTime(t *testing.T) {
	run := func(traced bool) Outcome {
		m := machine.Summit(1)
		rt := NewRuntime(m, m.Select(machine.GPU, 2))
		defer rt.Shutdown()
		x := rt.CreateRegion("x", 64, Float64)
		part := rt.BlockPartition(x, 2)
		step := func() {
			l := rt.NewLaunch("inc", 2, func(tc *TaskContext) {
				d := tc.Float64(0)
				tc.Subspace(0).Each(func(i int64) { d[i]++ })
			})
			l.Add(x, part, ReadWrite)
			l.Execute()
		}
		// Warm, then measure 10 iterations of a 5-launch "loop body".
		step()
		rt.Fence()
		rt.ResetMetrics()
		for iter := 0; iter < 10; iter++ {
			if traced {
				rt.BeginTrace(42)
			}
			for k := 0; k < 5; k++ {
				step()
			}
			if traced {
				rt.EndTrace()
			}
		}
		return Capture(rt, nil, nil, nil, x)
	}
	plain, traced := run(false), run(true)
	if diff := Diff(traced, plain, Omit{"Sim", "the replays' analysis is cheaper"}, Omit{"Analysis", "by the replay factor"}); diff != "" {
		t.Fatalf("tracing changed the outcome: %s", diff)
	}
	plainTime, tracedTime := plain.Sim, traced.Sim
	// The workload is tiny, so launches are analysis-bound; replaying 9
	// of 10 trace iterations should cut simulated time well below the
	// untraced run.
	if float64(tracedTime) > 0.5*float64(plainTime) {
		t.Errorf("tracing should cut analysis-bound time >2x: %d vs %d", tracedTime, plainTime)
	}
}

func TestTraceMisuse(t *testing.T) {
	m := machine.Summit(1)
	rt := NewRuntime(m, m.Select(machine.GPU, 1))
	defer rt.Shutdown()
	rt.BeginTrace(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nested BeginTrace must panic")
			}
		}()
		rt.BeginTrace(2)
	}()
	rt.EndTrace()
	defer func() {
		if recover() == nil {
			t.Error("EndTrace without BeginTrace must panic")
		}
	}()
	rt.EndTrace()
}

// TestTraceFirstRecordingPaysFullCost: the first execution of a trace id
// records at full cost; only subsequent replays are cheap.
func TestTraceFirstRecordingPaysFullCost(t *testing.T) {
	m := machine.Summit(1)
	rt := NewRuntime(m, m.Select(machine.GPU, 1))
	defer rt.Shutdown()
	x := rt.CreateRegion("x", 8, Float64)
	launch := func() {
		l := rt.NewLaunch("t", 1, func(tc *TaskContext) {})
		l.AddWhole(x, ReadOnly)
		l.Execute()
	}
	rt.BeginTrace(7)
	launch()
	rt.EndTrace()
	rt.Fence()
	first := rt.SimTime()
	rt.ResetMetrics()
	rt.BeginTrace(7)
	launch()
	rt.EndTrace()
	rt.Fence()
	replay := rt.SimTime()
	if float64(replay) > 0.5*float64(first) {
		t.Errorf("replay (%v) should be much cheaper than recording (%v)", replay, first)
	}
}

// TestTraceFusionComposition is the property test for fusion x tracing:
// a solver-style fusable chain run (a) plain, (b) traced, (c) traced
// with fusion must give bit-identical results, and the traced+fused
// replay iterations must each pay strictly less analysis time than the
// unfused first (recording) iteration.
func TestTraceFusionComposition(t *testing.T) {
	// run returns the outcome and the analysis time charged per iteration.
	run := func(traced bool, window int) (Outcome, []time.Duration) {
		m := machine.Summit(1)
		rt := NewRuntime(m, m.Select(machine.GPU, 2))
		defer rt.Shutdown()
		rt.SetFusionWindow(window)
		x := rt.CreateRegion("x", 64, Float64)
		y := rt.CreateRegion("y", 64, Float64)
		px := rt.BlockPartition(x, 2)
		py := rt.BlockPartition(y, 2)
		step := func(name string, dst *Region, dp *Partition, src *Region, sp *Partition,
			f func(d, s float64) float64) {
			l := rt.NewLaunch(name, 2, func(tc *TaskContext) {
				d, s := tc.Float64(0), tc.Float64(1)
				tc.Subspace(0).Each(func(i int64) { d[i] = f(d[i], s[i]) })
			})
			l.Add(dst, dp, ReadWrite)
			l.Add(src, sp, ReadOnly)
			l.SetFusable(true)
			l.Execute()
		}
		var perIter []time.Duration
		for iter := 0; iter < 6; iter++ {
			before := rt.AnalysisTime()
			if traced {
				rt.BeginTrace(99)
			}
			for k := 0; k < 4; k++ {
				step("ax", y, py, x, px, func(d, s float64) float64 { return d + 0.5*s + 1 })
				step("xy", x, px, y, py, func(d, s float64) float64 { return d*0.75 + 0.1*s })
			}
			if traced {
				rt.EndTrace()
			}
			perIter = append(perIter, rt.AnalysisTime()-before)
		}
		return Capture(rt, nil, nil, nil, x, y), perIter
	}

	plain, plainIters := run(false, 0)
	traced, tracedIters := run(true, 0)
	tracedFused, fusedIters := run(true, 16)
	for _, got := range []Outcome{traced, tracedFused} {
		if diff := Diff(got, plain, Omit{"Sim", "replays and fused launches cost less"}, Omit{"Analysis", "the same"},
			Omit{"Stats.Tasks", "a fused launch is one task"}, Omit{"Stats.PointTasks", "of one point per processor"}); diff != "" {
			t.Fatalf("results diverge from the plain run: %s", diff)
		}
	}
	// Property: every replayed+fused iteration is strictly cheaper in
	// analysis time than the unfused, untraced first iteration.
	first := plainIters[0]
	for i, d := range fusedIters[1:] {
		if d >= first {
			t.Errorf("traced+fused iter %d analysis time %v not below unfused first iter %v", i+1, d, first)
		}
	}
	// And fusion stacks on top of tracing: replays with fusion cost no
	// more than replays without.
	var fusedReplay, plainReplay time.Duration
	for _, d := range fusedIters[1:] {
		fusedReplay += d
	}
	for _, d := range tracedIters[1:] {
		plainReplay += d
	}
	if fusedReplay > plainReplay {
		t.Errorf("fused replay total %v exceeds unfused replay total %v", fusedReplay, plainReplay)
	}
}

// TestProfilingTraceFusionComposition: with a sink attached, an open
// fusion window, and an active trace, every published span and launch
// must carry mutually consistent composition tags — the trace id, a
// monotonically increasing trace epoch (1 = recording, >1 = replay),
// the replay flag only on replay epochs, and fused-carrier annotations
// that survive into traced iterations.
func TestProfilingTraceFusionComposition(t *testing.T) {
	m := machine.Summit(1)
	rt := NewRuntime(m, m.Select(machine.GPU, 2))
	defer rt.Shutdown()
	rt.SetFusionWindow(16)
	sink := prof.NewSink(0)
	rt.EnableProfiling(sink)

	x := rt.CreateRegion("x", 64, Float64)
	part := rt.BlockPartition(x, 2)
	const traceID, iters = 55, 4
	for iter := 0; iter < iters; iter++ {
		rt.BeginTrace(traceID)
		for k := 0; k < 4; k++ {
			l := rt.NewLaunch("step", 2, func(tc *TaskContext) {
				d := tc.Float64(0)
				tc.Subspace(0).Each(func(i int64) { d[i] += 0.25 })
			})
			l.Add(x, part, ReadWrite)
			l.SetFusable(true)
			l.Execute()
		}
		rt.EndTrace()
	}
	rt.Fence()
	tr := sink.Snapshot()
	if err := tr.CheckSpans(); err != nil {
		t.Fatalf("composition broke the timeline invariant: %v", err)
	}

	epochs := map[int64]bool{}
	var fusedTraced int
	for _, sp := range tr.Spans {
		if sp.TraceID != traceID {
			t.Fatalf("span %s launch %d: trace id %d, want %d", sp.Task, sp.Launch, sp.TraceID, traceID)
		}
		if sp.TraceEpoch < 1 || sp.TraceEpoch > iters {
			t.Fatalf("span %s: trace epoch %d outside [1,%d]", sp.Task, sp.TraceEpoch, iters)
		}
		if want := sp.TraceEpoch > 1; sp.TraceReplay != want {
			t.Fatalf("span %s epoch %d: TraceReplay = %v, want %v (epoch 1 records, later epochs replay)",
				sp.Task, sp.TraceEpoch, sp.TraceReplay, want)
		}
		epochs[sp.TraceEpoch] = true
		if sp.FusedMembers > 0 {
			fusedTraced++
		}
	}
	for e := int64(1); e <= iters; e++ {
		if !epochs[e] {
			t.Fatalf("no spans published for trace epoch %d (saw %v)", e, epochs)
		}
	}
	if fusedTraced == 0 {
		t.Fatal("fusion window open during trace must yield fused carrier spans with trace tags")
	}

	// Launch records agree with their spans and annotate fused members.
	bySeq := map[int64]LaunchTags{}
	var fusedLaunches int
	for _, li := range tr.Launches {
		bySeq[li.Seq] = LaunchTags{li.TraceID, li.TraceEpoch, li.TraceReplay}
		if len(li.Members) > 0 {
			fusedLaunches++
			if li.TraceID != traceID {
				t.Fatalf("fused launch %q lost its trace tag", li.Name)
			}
		}
	}
	if fusedLaunches == 0 {
		t.Fatal("no fused carrier launches recorded")
	}
	for _, sp := range tr.Spans {
		tags, ok := bySeq[sp.Launch]
		if !ok {
			t.Fatalf("span %s references unrecorded launch %d", sp.Task, sp.Launch)
		}
		if tags != (LaunchTags{sp.TraceID, sp.TraceEpoch, sp.TraceReplay}) {
			t.Fatalf("span %s tags %+v disagree with launch %d tags %+v",
				sp.Task, sp, sp.Launch, tags)
		}
	}
}

// LaunchTags is a comparable triple for the composition test.
type LaunchTags struct {
	ID     int64
	Epoch  int64
	Replay bool
}
