package prof

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

func us(n int64) time.Duration { return time.Duration(n) * time.Microsecond }

// TestRingWrapDrop: the sink's rings drop oldest events past capacity
// and count the drops; a snapshot preserves insertion order.
func TestRingWrapDrop(t *testing.T) {
	s := NewSink(4)
	run := s.AttachRun()
	if run != 1 {
		t.Fatalf("first AttachRun = %d, want 1", run)
	}
	for i := 0; i < 10; i++ {
		s.RecordSpan(Span{Run: run, Launch: int64(i), Start: us(int64(i)), Dur: us(1)})
	}
	tr := s.Snapshot()
	if len(tr.Spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(tr.Spans))
	}
	if tr.DroppedSpans != 6 {
		t.Fatalf("DroppedSpans = %d, want 6", tr.DroppedSpans)
	}
	for i, sp := range tr.Spans {
		if want := int64(6 + i); sp.Launch != want {
			t.Fatalf("span %d is launch %d, want %d (insertion order)", i, sp.Launch, want)
		}
	}
}

// TestLaunchDropCounted: launches past capacity are counted, not stored.
func TestLaunchDropCounted(t *testing.T) {
	s := NewSink(2)
	run := s.AttachRun()
	for i := 1; i <= 5; i++ {
		s.RecordLaunch(LaunchInfo{Run: run, Seq: int64(i), Name: "t"}, nil)
	}
	tr := s.Snapshot()
	if len(tr.Launches) != 2 || tr.DroppedLaunches != 3 {
		t.Fatalf("launches=%d dropped=%d, want 2/3", len(tr.Launches), tr.DroppedLaunches)
	}
}

// TestSummarySurvivesOverflow: a sink whose rings overflow many times
// over still counts every launch, point, non-replay span and fused
// member in its summary, and folding in an already-seen task name
// allocates nothing.
func TestSummarySurvivesOverflow(t *testing.T) {
	s := NewSink(4)
	run := s.AttachRun()
	const n = 100
	members := []string{"a", "b", "c"}
	for i := int64(1); i <= n; i++ {
		s.RecordLaunch(LaunchInfo{Run: run, Seq: 2 * i, Name: "spmv", Points: 3}, []int64{2*i - 1})
		s.RecordLaunch(LaunchInfo{Run: run, Seq: 2*i + 1, Name: "fused[a+b+c]", Points: 2, Members: members}, nil)
		for p := 0; p < 3; p++ {
			s.RecordSpan(Span{Run: run, Task: "spmv", Launch: 2 * i, Point: p, Dur: us(2)})
		}
		for p := 0; p < 2; p++ {
			s.RecordSpan(Span{Run: run, Task: "fused[a+b+c]", Launch: 2*i + 1, Point: p, Dur: us(1)})
		}
		s.RecordSpan(Span{Run: run, Task: "spmv", Launch: 2 * i, Dur: us(50), Replay: true})
	}
	tr := s.Snapshot()
	if tr.DroppedSpans == 0 || tr.DroppedLaunches == 0 || tr.DroppedDeps == 0 {
		t.Fatalf("test setup: dropped spans=%d launches=%d deps=%d, want all > 0",
			tr.DroppedSpans, tr.DroppedLaunches, tr.DroppedDeps)
	}
	want := Summary{
		Tasks: []TaskStat{
			{Name: "spmv", Launches: n, Points: 3 * n, SimTime: us(6 * n)},
			{Name: "fused[a+b+c]", Launches: n, Points: 2 * n, SimTime: us(2 * n)},
		},
		FusedGroups: n, FusedMembers: 3 * n,
	}
	got := s.Summary()
	if len(got.Tasks) != 2 || got.Tasks[0] != want.Tasks[0] || got.Tasks[1] != want.Tasks[1] ||
		got.FusedGroups != want.FusedGroups || got.FusedMembers != want.FusedMembers {
		t.Fatalf("summary after overflow\n%+v\nwant\n%+v", got, want)
	}
	if !strings.HasSuffix(got.String(), "fusion: 100 fused launches replaced 300 originals\n") {
		t.Fatalf("summary table lacks the fusion line:\n%s", got)
	}

	li := LaunchInfo{Run: run, Seq: 1, Name: "spmv", Points: 3, Members: members}
	sp := Span{Run: run, Task: "spmv", Dur: us(1)}
	if allocs := testing.AllocsPerRun(100, func() {
		s.RecordLaunch(li, nil)
		s.RecordSpan(sp)
	}); allocs != 0 {
		t.Fatalf("recording a seen task name: %v allocs per event pair, want 0", allocs)
	}
}

// sampleTrace builds a two-processor trace with a fused span, a trace-
// replay span, and a mark.
func sampleTrace() *Trace {
	s := NewSink(0)
	run := s.AttachRun()
	s.RecordLaunch(LaunchInfo{Run: run, Seq: 1, Name: "load", Points: 2}, nil)
	s.RecordLaunch(LaunchInfo{Run: run, Seq: 2, Name: "fused[a+b]", Points: 2,
		Members: []string{"a", "b"}}, []int64{1})
	s.RecordLaunch(LaunchInfo{Run: run, Seq: 3, Name: "dot", Points: 2,
		TraceID: 7, TraceEpoch: 2, TraceReplay: true}, []int64{2})
	s.RecordSpan(Span{Run: run, Task: "load", Launch: 1, Point: 0, Proc: 0, Start: 0, Dur: us(10)})
	s.RecordSpan(Span{Run: run, Task: "load", Launch: 1, Point: 1, Proc: 1, Start: 0, Dur: us(12)})
	s.RecordSpan(Span{Run: run, Task: "fused[a+b]", Launch: 2, Point: 0, Proc: 0,
		Start: us(12), Dur: us(5), FusedMembers: 2})
	s.RecordSpan(Span{Run: run, Task: "fused[a+b]", Launch: 2, Point: 1, Proc: 1,
		Start: us(12), Dur: us(4), FusedMembers: 2})
	s.RecordSpan(Span{Run: run, Task: "dot", Launch: 3, Point: 0, Proc: 0,
		Start: us(17), Dur: us(3), TraceID: 7, TraceEpoch: 2, TraceReplay: true})
	s.RecordSpan(Span{Run: run, Task: "dot", Launch: 3, Point: 1, Proc: 1,
		Start: us(17), Dur: us(2), TraceID: 7, TraceEpoch: 2, TraceReplay: true})
	s.RecordCopy(Copy{Run: run, Src: 0, Dst: 1, Link: machine.NVLink, Bytes: 1024})
	s.RecordCopy(Copy{Run: run, Src: HostProc, Dst: 0, Link: machine.IntraNode, Bytes: 4096})
	s.RecordMark(Mark{Run: run, Kind: MarkCheckpoint, At: us(20)})
	return s.Snapshot()
}

// TestChromeTraceParses: the Chrome export is valid Trace Event Format
// JSON whose span events carry the composition tags.
func TestChromeTraceParses(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	var spans, meta, marks int
	sawReplayTag := false
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			if e.Name == "dot" {
				if e.Args["trace_id"] != float64(7) || e.Args["trace_replay"] != true {
					t.Fatalf("dot span args = %v, want trace tags", e.Args)
				}
				sawReplayTag = true
			}
		case "M":
			meta++
		case "i":
			marks++
		}
	}
	if spans != 6 || marks != 1 || meta == 0 {
		t.Fatalf("events: spans=%d marks=%d meta=%d", spans, marks, meta)
	}
	if !sawReplayTag {
		t.Fatal("trace-replay tags missing from span args")
	}
}

// TestCheckSpans: non-overlap passes per processor; overlap on one
// processor is reported; negative durations are reported.
func TestCheckSpans(t *testing.T) {
	if err := sampleTrace().CheckSpans(); err != nil {
		t.Fatalf("sample trace must pass: %v", err)
	}
	s := NewSink(0)
	run := s.AttachRun()
	s.RecordSpan(Span{Run: run, Task: "a", Proc: 3, Start: 0, Dur: us(10)})
	s.RecordSpan(Span{Run: run, Task: "b", Proc: 3, Start: us(5), Dur: us(10)})
	if err := s.Snapshot().CheckSpans(); err == nil {
		t.Fatal("overlapping spans on one proc must fail")
	} else if !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("error = %v, want overlap report", err)
	}
	s2 := NewSink(0)
	run = s2.AttachRun()
	s2.RecordSpan(Span{Run: run, Task: "a", Proc: 0, Start: 0, Dur: us(10)})
	s2.RecordSpan(Span{Run: run, Task: "b", Proc: 1, Start: us(5), Dur: us(10)})
	if err := s2.Snapshot().CheckSpans(); err != nil {
		t.Fatalf("spans on distinct procs may overlap in time: %v", err)
	}
	s3 := NewSink(0)
	run = s3.AttachRun()
	s3.RecordSpan(Span{Run: run, Task: "a", Proc: 0, Start: us(5), Dur: -us(1)})
	if err := s3.Snapshot().CheckSpans(); err == nil {
		t.Fatal("negative duration must fail")
	}
}

// TestCriticalPathDiamond: on a hand-built diamond DAG
// (A -> B, A -> C, B -> D, C -> D) the critical path is
// A + max(B, C) + D with each launch weighted by its slowest point.
func TestCriticalPathDiamond(t *testing.T) {
	s := NewSink(0)
	run := s.AttachRun()
	// Weights: A=10, B=20, C=5, D=8 -> critical path 10+20+8 = 38.
	s.RecordLaunch(LaunchInfo{Run: run, Seq: 1, Name: "A", Points: 2}, nil)
	s.RecordLaunch(LaunchInfo{Run: run, Seq: 2, Name: "B", Points: 1}, []int64{1})
	s.RecordLaunch(LaunchInfo{Run: run, Seq: 3, Name: "C", Points: 1}, []int64{1})
	s.RecordLaunch(LaunchInfo{Run: run, Seq: 4, Name: "D", Points: 1}, []int64{2, 3})
	s.RecordSpan(Span{Run: run, Task: "A", Launch: 1, Point: 0, Proc: 0, Start: 0, Dur: us(10)})
	s.RecordSpan(Span{Run: run, Task: "A", Launch: 1, Point: 1, Proc: 1, Start: 0, Dur: us(7)})
	s.RecordSpan(Span{Run: run, Task: "B", Launch: 2, Point: 0, Proc: 0, Start: us(10), Dur: us(20)})
	s.RecordSpan(Span{Run: run, Task: "C", Launch: 3, Point: 0, Proc: 1, Start: us(10), Dur: us(5)})
	s.RecordSpan(Span{Run: run, Task: "D", Launch: 4, Point: 0, Proc: 0, Start: us(30), Dur: us(8)})
	rep := s.Snapshot().BuildReport()
	if len(rep.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(rep.Runs))
	}
	rr := rep.Runs[0]
	if rr.CriticalPath != us(38) {
		t.Fatalf("critical path = %v, want 38µs", rr.CriticalPath)
	}
	if rr.PathLaunches != 3 {
		t.Fatalf("path launches = %d, want 3 (A, B, D)", rr.PathLaunches)
	}
	if rr.TotalWork != us(50) {
		t.Fatalf("total work = %v, want 50µs", rr.TotalWork)
	}
	if rr.Makespan != us(38) {
		t.Fatalf("makespan = %v, want 38µs", rr.Makespan)
	}
	// Consistency bounds the CLI's -check also enforces.
	if rr.CriticalPath > rr.Makespan {
		t.Fatal("critical path must never exceed makespan")
	}
	if rr.SpeedupBound < rr.Parallelism {
		t.Fatal("speedup bound must be at least achieved parallelism")
	}
	if len(rr.TopPathTasks) == 0 || rr.TopPathTasks[0].Name != "B" {
		t.Fatalf("top path task = %+v, want B first (20µs)", rr.TopPathTasks)
	}
}

// TestReportComms: the comms matrix aggregates per link class and the
// pair list sorts by bytes.
func TestReportComms(t *testing.T) {
	rep := sampleTrace().BuildReport()
	if len(rep.Links) != 2 {
		t.Fatalf("links = %+v, want intra-node and nvlink", rep.Links)
	}
	if rep.Links[0].Link != machine.IntraNode.String() || rep.Links[0].Bytes != 4096 {
		t.Fatalf("links[0] = %+v", rep.Links[0])
	}
	if rep.Pairs[0].Src != HostProc || rep.Pairs[0].Bytes != 4096 {
		t.Fatalf("pairs[0] = %+v, want host->0 first (most bytes)", rep.Pairs[0])
	}
	if rep.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", rep.Checkpoints)
	}
	text := rep.String()
	for _, want := range []string{"comms matrix", "nvlink", "host", "speedup bound"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report text missing %q:\n%s", want, text)
		}
	}
}

// TestDOTExport: the DOT export names launches, draws dependence edges,
// and annotates fused members and trace epochs.
func TestDOTExport(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	for _, want := range []string{
		"digraph deps", "subgraph cluster_run1",
		"l1_1", "l1_2", "l1_3",
		"l1_1 -> l1_2", "l1_2 -> l1_3",
		"fused: a+b", "trace 7 epoch 2",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}
