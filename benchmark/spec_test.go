package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON is BENCHMARK.json with exactly the keys the driver's
// contract allows.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONRestatesTheTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(buf))
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(bj.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bj.RunSeconds)
	}
	// 4 + 22 runs per workload, each with about 3 s of build check and
	// child start-up on top, and two cold builds, must fit in 3420 s.
	if total := (4+22*len(workloads))*(bj.RunSeconds+3) + 2*90; total > 3420 {
		t.Errorf("the driver's runs would take about %d s, over 3420", total)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(bj.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d differs: %+v", i, bj.Workloads[i])
		}
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.Clients > 2 {
			t.Errorf("%s: %d clients, more than nproc", w.Name, w.Clients)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(bj.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range endToEnd {
		name(m.Name)
		got := bj.EndToEnd[i]
		if got.Bound == nil || got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || *got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d differs: %+v", i, got)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v unit %q better %q", m.Name, m.Bound, m.Unit, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		name(m.Name)
		got := bj.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d differs: %+v", i, got)
		}
		if m.Bound != 0 || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v unit %q better %q", m.Name, m.Bound, m.Unit, m.Better)
		}
	}
}
