package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"testing"
	"time"
)

// The test binary doubles as a benchmark-owned child: with
// BENCH_FAKE_CHILD set it speaks the child protocol and then either
// reports a window or blocks forever. It starts no legion.Runtime.
func TestMain(m *testing.M) {
	switch os.Getenv("BENCH_FAKE_CHILD") {
	case "":
		os.Exit(m.Run())
	case "hang":
		fmt.Println("hb setup 1 0 0 0")
		fmt.Println("hb run 2 10 0 1000000") // 10 ops done, median op 1 ms
		select {}                            // the deadlock: no further progress, no exit
	case "probe-hang":
		fakeWindow()
		fmt.Println("hb layers 9 40 0 1000000")
		select {}
	case "ok":
		fakeWindow()
	case "crash":
		fmt.Println("hb run 2 3 0 1000000")
		fmt.Fprintln(os.Stderr, "panic: boom")
		os.Exit(2)
	}
	os.Exit(0)
}

func fakeWindow() {
	win := windowResult{SetupS: 0.25, WallS: 2, Ops: 40, LatMS: [][]float64{make([]float64, 40)},
		ComputeMS: 80, FloorMS: 10, PeakRSSMB: 64, Layer: layerValues{"run.aging_x": 1.2}}
	for i := range win.LatMS[0] {
		win.LatMS[0][i] = float64(i + 1)
	}
	buf, _ := json.Marshal(win)
	fmt.Printf("hb run 3 40 0 1000000\nwin %s\n", buf)
}

func fakeChild(mode string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "BENCH_FAKE_CHILD="+mode)
	return cmd
}

func TestStallLimitClamps(t *testing.T) {
	cases := []struct {
		phase  string
		median time.Duration
		want   time.Duration
	}{
		{"run", time.Millisecond, 500 * time.Millisecond}, // 20 ms, raised to the floor
		{"run", 100 * time.Millisecond, 2 * time.Second},
		{"run", time.Second, 5 * time.Second}, // 20 s, cut to the ceiling
		{"run", 0, 5 * time.Second},           // no op finished yet
		{"prime", 100 * time.Millisecond, 2 * time.Second},
		{"prime", 0, 5 * time.Second}, // the first op binds and may be slow
		{"setup", time.Millisecond, 5 * time.Second},
		{"layers", time.Millisecond, 5 * time.Second},
	}
	for _, c := range cases {
		if got := stallLimit(c.phase, int64(c.median)); got != c.want {
			t.Errorf("stallLimit(%s, %v) = %v, want %v", c.phase, c.median, got, c.want)
		}
	}
}

func TestWatchdogKillsAChildThatBlocksForever(t *testing.T) {
	start := time.Now()
	e := runEpoch(fakeChild("hang"), false)
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("a hang stalled the parent for %v; the limit is 5 s", took)
	}
	if !e.Hung || e.Win != nil || e.Done != 10 {
		t.Errorf("epoch = %+v; want Hung with 10 ops done", e)
	}
	if e.Dur < stallMin {
		t.Errorf("killed after %v, before the %v floor", e.Dur, stallMin)
	}
}

func TestCrashedChildIsAFailedEpochWithItsStderr(t *testing.T) {
	e := runEpoch(fakeChild("crash"), false)
	if !e.Hung || e.Done != 3 || len(e.Errs) != 1 {
		t.Fatalf("epoch = %+v", e)
	}
	if want := "boom"; !contains(e.Errs[0], want) {
		t.Errorf("error %q does not carry the child's stderr", e.Errs[0])
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestAccountingOfAKilledEpoch(t *testing.T) {
	one := &workload{Clients: 1, Ops: 800}
	two := &workload{Clients: 2, Ops: 300}
	cases := []struct {
		w                      *workload
		e                      epoch
		answered, failed, hung int
	}{
		{one, epoch{Hung: true, Done: 427}, 427, 0, 1},
		{two, epoch{Hung: true, Done: 100, Failed: 2}, 100, 2, 2},
		{two, epoch{Hung: true, Done: 599}, 599, 0, 1}, // only one op was left to be in flight
		{one, epoch{Win: &windowResult{Ops: 800, Failed: 3}}, 800, 3, 0},
	}
	for _, c := range cases {
		a, f, h := account(&c.e, c.w)
		if a != c.answered || f != c.failed || h != c.hung {
			t.Errorf("account(done %d) = %d answered, %d failed, %d hung; want %d, %d, %d", c.e.Done, a, f, h, c.answered, c.failed, c.hung)
		}
	}
}

// A run with a hung child still completes; the hung epoch is counted,
// its op in flight is hung (not failed: the next epoch retries the
// list), and it is left out of every timing.
func TestRunSurvivesHangsAndCountsThem(t *testing.T) {
	w := &workload{Name: "fake", Clients: 1, Ops: 40}
	modes := []string{"ok", "hang", "ok", "probe-hang", "ok"}
	n := 0
	launch := func(*workload, int64, bool) *exec.Cmd {
		mode := modes[n%len(modes)]
		n++
		return fakeChild(mode)
	}
	r := measure([]*workload{w}, 1, passOpts{Seconds: 60, Traced: true, MaxEpochs: len(modes)}, launch)[0]
	if len(r.Epochs) != len(modes) {
		t.Fatalf("%d epochs, want %d", len(r.Epochs), len(modes))
	}
	layer := func(name string) float64 { return r.Layer[name].Value }
	if layer("run.epochs_ok") != 4 || layer("run.epochs_hung") != 1 || layer("run.hung_ops") != 1 || layer("run.probe_hangs") != 1 {
		t.Errorf("ok %v hung %v hung_ops %v probe_hangs %v; want 4, 1, 1, 1",
			layer("run.epochs_ok"), layer("run.epochs_hung"), layer("run.hung_ops"), layer("run.probe_hangs"))
	}
	if r.Attempted != 4*40+10 || r.Failed != 0 || r.Hung != 1 || !r.Correct {
		t.Errorf("attempted %d failed %d hung %d correct %v; want 170, 0, 1, true", r.Attempted, r.Failed, r.Hung, r.Correct)
	}
	// Epochs 1, 3, 5 are untraced (even index); 2 and 4 traced. The hung
	// one contributes no timing sample.
	if got := len(r.E2E["ops_per_s"].Epochs); got != 3 {
		t.Errorf("%d timing samples, want 3", got)
	}
	if got, want := r.E2E["ok_share"].Value, 1-1.0/171; math.Abs(got-want) > 1e-12 {
		t.Errorf("ok_share = %v, want %v", got, want)
	}
	if got := r.E2E["ops_per_s"].Value; got != 20 {
		t.Errorf("ops_per_s = %v, want 20", got)
	}
	if got := r.E2E["overhead_x"].Value; got != 8 {
		t.Errorf("overhead_x = %v, want 8", got)
	}
	if got := r.E2E["op_p90_ms"].Value; got != 36 {
		t.Errorf("median of the epochs' p90 = %v, want 36", got)
	}
	if layer("run.aging_x") != 1.2 || layer("run.trace_overhead_x") != 1 {
		t.Errorf("aging %v trace overhead %v", layer("run.aging_x"), layer("run.trace_overhead_x"))
	}
	if layer("run.op_tail_pct") != 90 {
		t.Errorf("tail percentile of 120 samples = %v, want 90", layer("run.op_tail_pct"))
	}
	line := driverReport(r, false)
	if !line.Correct || line.Attempted != 170 || line.Failed != 0 || len(line.Metrics) != len(endToEnd) {
		t.Errorf("driver line = %+v", line)
	}
	if traced := driverReport(r, true); len(traced.Metrics) != len(perLayer) || traced.Metrics["seq.op_ms"].Value != notMeasured {
		t.Errorf("traced driver line must list every per-layer metric, unmeasured ones as %d", notMeasured)
	}
}

func TestWrongAnswerMakesTheRunIncorrect(t *testing.T) {
	r := &runResult{Workload: &workload{Clients: 1, Ops: 40}, Epochs: []epoch{
		{Win: &windowResult{WallS: 1, Ops: 40, Failed: 2, LatMS: [][]float64{{1}}, ComputeMS: 1, FloorMS: 1, Errors: []string{"not bit-identical"}}},
	}}
	aggregate(r)
	if r.Correct || r.Failed != 2 || len(r.Notes) != 1 {
		t.Errorf("correct %v failed %d notes %v", r.Correct, r.Failed, r.Notes)
	}
	if driverReport(r, false).Correct {
		t.Error("driver line says correct")
	}
}
