package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// driverLine is the one JSON object the benchmark driver reads from the
// last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverReport turns a run into the driver's line: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one.
func driverReport(r *runResult, traced bool) driverLine {
	list, values := endToEnd, r.E2E
	if traced {
		list, values = perLayer, r.Layer
	}
	line := driverLine{Correct: r.Correct, Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			if !traced { // an end-to-end metric must exist; without one the run has no result
				line.Correct = false
			}
			v.Value = notMeasured
		}
		line.Metrics[m.Name] = driverValue{Value: v.Value, Unit: m.Unit}
	}
	return line
}

// row is one (metric, workload) cell of a results file: the samples,
// their median and quartiles, and the metric's contract.
type row struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound,omitempty"` // end-to-end metrics only
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	N        int       `json:"n"`
	Samples  []float64 `json:"samples"`
}

// runContext records where and how a results file was measured.
type runContext struct {
	NProc      int            `json:"nproc"`
	GoMaxProcs int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Runs       int            `json:"runs"`
	SampleKind string         `json:"sample_kind"` // "run": one sample per run; "epoch": one per epoch of the single run
	EpochsOK   map[string]int `json:"epochs_ok"`
	EpochsHung map[string]int `json:"epochs_hung"`
	HungOps    map[string]int `json:"hung_ops"`
}

// resultsFile is what a measurement writes and -compare reads.
type resultsFile struct {
	Context runContext `json:"context"`
	Rows    []row      `json:"rows"`
}

func newContext(seed int64, seconds float64, runs int) runContext {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return runContext{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: seed, Seconds: seconds, Runs: runs,
		EpochsOK: map[string]int{}, EpochsHung: map[string]int{}, HungOps: map[string]int{},
	}
}

// buildRows folds the runs of every workload into rows. With two or
// more runs a sample is one run's value, which is the spread the driver
// judges; a single run falls back to its per-epoch values.
func buildRows(ctx *runContext, runs [][]*runResult) []row {
	ctx.SampleKind = "run"
	if len(runs) < 2 {
		ctx.SampleKind = "epoch"
	}
	var rows []row
	for _, w := range workloads {
		var mine []*runResult
		for _, set := range runs {
			for _, r := range set {
				if r.Workload == w {
					mine = append(mine, r)
				}
			}
		}
		if len(mine) == 0 {
			continue
		}
		for _, r := range mine {
			for i := range r.Epochs {
				if r.Epochs[i].Hung {
					ctx.EpochsHung[w.Name]++
				} else {
					ctx.EpochsOK[w.Name]++
				}
			}
			ctx.HungOps[w.Name] += int(r.Layer["run.hung_ops"].Value)
		}
		for _, list := range [][]metric{endToEnd, perLayer} {
			for _, m := range list {
				var samples []float64
				for _, r := range mine {
					s, ok := r.E2E[m.Name]
					if !ok {
						s, ok = r.Layer[m.Name]
					}
					if !ok || math.IsNaN(s.Value) {
						continue
					}
					if len(runs) < 2 {
						samples = append(samples, s.Epochs...)
					} else {
						samples = append(samples, s.Value)
					}
				}
				if len(samples) == 0 {
					continue
				}
				rw := row{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound,
					Median: median(samples), N: len(samples), Samples: samples}
				if len(runs) < 2 { // the reported value of a single run (ok_share is a share of all ops, not a median of epochs)
					if s, ok := mine[0].E2E[m.Name]; ok {
						rw.Median = s.Value
					}
				}
				rw.Q1, rw.Q3 = rw.Median, rw.Median // a single sample has no spread; -compare looks at N
				if rw.N >= 2 {
					rw.Q1, rw.Q3 = quartiles(samples)
				}
				rows = append(rows, rw)
			}
		}
	}
	return rows
}

// printTable prints every metric by name with its unit, one workload
// per row, end-to-end metrics first.
func printTable(out io.Writer, rows []row) {
	for _, block := range []struct {
		title string
		list  []metric
	}{{"end to end", endToEnd}, {"per layer", perLayer}} {
		printed := false
		for _, w := range workloads {
			var cells []string
			for _, m := range block.list {
				for _, r := range rows {
					if r.Workload == w.Name && r.Metric == m.Name {
						cells = append(cells, fmt.Sprintf("%s=%.4g %s", m.Name, r.Median, m.Unit))
					}
				}
			}
			if len(cells) == 0 {
				continue
			}
			if !printed {
				fmt.Fprintf(out, "\n%s (median; spread and samples are in the results file)\n", block.title)
				printed = true
			}
			fmt.Fprintf(out, "%-16s %s\n", w.Name, strings.Join(cells, "  "))
		}
	}
}

func writeResults(path string, rf *resultsFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := &resultsFile{}
	if err := json.Unmarshal(buf, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}
