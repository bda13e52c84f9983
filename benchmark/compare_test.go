package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func findMetric(name string) *metric {
	for i := range endToEnd {
		if endToEnd[i].Name == name {
			return &endToEnd[i]
		}
	}
	return nil
}

func e2eRow(name string, samples ...float64) row {
	m := findMetric(name)
	r := row{Workload: "lib_cg_small", Metric: name, Unit: m.Unit, Better: m.Better, Bound: m.Bound,
		Median: median(samples), N: len(samples), Samples: samples}
	r.Q1, r.Q3 = quartiles(samples)
	return r
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdicts(t *testing.T) {
	tight := []float64{98, 99, 100, 100, 100, 101, 102, 100, 99, 101} // spread 2 %
	noisy := []float64{60, 70, 100, 100, 100, 130, 140, 100, 80, 120} // spread 50 %
	cases := []struct {
		metric string
		a, b   []float64
		want   string
	}{
		{"op_p50_ms", tight, scaled(tight, 1.05), verdictWithin},
		{"op_p50_ms", tight, scaled(tight, 1.40), verdictWorse},
		{"op_p50_ms", tight, scaled(tight, 0.60), verdictBetter},
		{"ops_per_s", tight, scaled(tight, 0.60), verdictWorse}, // higher is better: a drop is worse
		{"ops_per_s", tight, scaled(tight, 1.40), verdictBetter},
		{"op_p50_ms", noisy, scaled(noisy, 1.40), verdictUnresolved}, // spread wider than the bound
		{"op_p50_ms", tight, scaled(noisy, 1.00), verdictUnresolved}, // either side's spread counts
		{"op_p50_ms", tight[:1], tight, verdictUnresolved},           // one sample has no spread
		{"ok_share", []float64{1, 1, 0.999, 1}, []float64{0.97, 0.97, 0.97, 0.97}, verdictWorse},
	}
	for _, c := range cases {
		got, _ := verdict(e2eRow(c.metric, c.a...), e2eRow(c.metric, c.b...))
		if got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.metric, c.a[0], c.b[0], got, c.want)
		}
	}
}

func TestCompareReportsWorseAndDifferingCounts(t *testing.T) {
	tight := []float64{98, 99, 100, 100, 100, 101, 102, 100, 99, 101}
	count := func(v float64) row {
		return row{Workload: "lib_cg_small", Metric: "legion.launches_per_op", Unit: "count", Median: v, Q1: v, Q3: v, N: 3}
	}
	a := &resultsFile{Rows: []row{e2eRow("op_p50_ms", tight...), e2eRow("setup_s", tight...), count(42)}}
	same := &resultsFile{Rows: []row{e2eRow("op_p50_ms", tight...), e2eRow("setup_s", tight...), count(42)}}
	slow := &resultsFile{Rows: []row{e2eRow("op_p50_ms", scaled(tight, 2)...), e2eRow("setup_s", tight...), count(30)}}

	var out bytes.Buffer
	if compare(&out, a, same) {
		t.Errorf("identical results compared as worse:\n%s", out.String())
	}
	if strings.Contains(out.String(), "count differs") || strings.Count(out.String(), verdictWithin) != 2 {
		t.Errorf("unexpected report:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, a, slow) {
		t.Errorf("a doubled latency did not compare as worse:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "count differs: 42 vs 30") {
		t.Errorf("a changed count was not reported:\n%s", out.String())
	}
}

func TestResultsFileRoundTrip(t *testing.T) {
	ctx := newContext(3, 24, 1)
	r := &runResult{Workload: workloads[0], Epochs: []epoch{
		{Win: &windowResult{SetupS: 0.1, WallS: 1, Ops: 10, LatMS: [][]float64{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}, ComputeMS: 55, FloorMS: 5, PeakRSSMB: 50}},
		{Win: &windowResult{SetupS: 0.3, WallS: 2, Ops: 10, LatMS: [][]float64{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}, ComputeMS: 55, FloorMS: 11, PeakRSSMB: 70}},
		{Hung: true, Done: 4},
	}}
	aggregate(r)
	rf := &resultsFile{Rows: buildRows(&ctx, [][]*runResult{{r}}), Context: ctx}
	if ctx.SampleKind != "epoch" || ctx.EpochsOK[r.Workload.Name] != 2 || ctx.EpochsHung[r.Workload.Name] != 1 || ctx.HungOps[r.Workload.Name] != 1 {
		t.Errorf("context = %+v", ctx)
	}
	path := filepath.Join(t.TempDir(), "sub", "results.json")
	if err := writeResults(path, rf); err != nil {
		t.Fatal(err)
	}
	back, err := readResults(path)
	if err != nil {
		t.Fatal(err)
	}
	rf.Context = ctx
	if !reflect.DeepEqual(rf, back) {
		t.Errorf("round trip changed the results:\n%+v\n%+v", rf, back)
	}
	var setup *row
	for i := range back.Rows {
		if back.Rows[i].Metric == "setup_s" {
			setup = &back.Rows[i]
		}
	}
	if setup == nil || setup.N != 2 || setup.Median != 0.2 || setup.Bound != findMetric("setup_s").Bound {
		t.Errorf("setup_s row = %+v", setup)
	}
}
