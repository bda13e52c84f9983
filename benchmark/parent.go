package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"
)

// epoch is what the parent learned from one child process.
type epoch struct {
	Traced bool
	Dur    time.Duration

	// Hung is set when the watchdog killed the child (or it died) before
	// it reported its window: the epoch is discarded from timing, its
	// answered ops count as attempted and its ops in flight as hung.
	// ProbeHang is the milder case of a traced epoch whose window was
	// reported and whose ladder or probes then stalled.
	Hung      bool
	ProbeHang bool

	Done, Failed int // window ops completed / failed, as of the last heartbeat
	Win          *windowResult
	Layer        layerValues // the traced sections' values, merged
	Errs         []string
}

// Watchdog limits. A stalled op-completion heartbeat kills the child
// after 20 x its running median op latency, clamped to [500 ms, 5 s],
// while it primes and while it runs the window; a step of any other
// phase (set-up, ladder, probes) may take 5 s. No single hang therefore
// stalls the benchmark for more than 5 s.
const (
	stallFactor = 20
	stallMin    = 500 * time.Millisecond
	stallMax    = 5 * time.Second
)

func stallLimit(phase string, medianNS int64) time.Duration {
	if (phase != "prime" && phase != "run") || medianNS <= 0 {
		return stallMax
	}
	return min(max(stallFactor*time.Duration(medianNS), stallMin), stallMax)
}

// runEpoch starts cmd as a child, follows its messages, kills it when
// its progress stalls, and returns what it reported.
func runEpoch(cmd *exec.Cmd, traced bool) (e epoch) {
	e = epoch{Traced: traced, Layer: layerValues{}}
	start := time.Now()
	defer func() { e.Dur = time.Since(start) }()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		e.Hung = true
		e.Errs = append(e.Errs, "start child: "+err.Error())
		return e
	}
	lines := make(chan string)
	go func() {
		defer close(lines)
		r := bufio.NewReaderSize(stdout, 1<<20)
		for {
			line, err := r.ReadString('\n')
			if line != "" {
				lines <- strings.TrimSuffix(line, "\n")
			}
			if err != nil {
				return
			}
		}
	}()

	phase, medianNS := "setup", int64(0)
	last := time.Now()
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	killed := false
loop:
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				break loop
			}
			last = time.Now()
			kind, rest, _ := strings.Cut(line, " ")
			switch kind {
			case "hb":
				var progress int64
				fmt.Sscanf(rest, "%s %d %d %d %d", &phase, &progress, &e.Done, &e.Failed, &medianNS)
			case "win":
				e.Win = &windowResult{}
				if err := json.Unmarshal([]byte(rest), e.Win); err != nil {
					e.Win = nil
					e.Errs = append(e.Errs, "bad window report: "+err.Error())
				}
			case "layer":
				var lv layerValues
				if err := json.Unmarshal([]byte(rest), &lv); err == nil {
					for k, v := range lv {
						e.Layer[k] = v
					}
				}
			case "err":
				e.Errs = append(e.Errs, rest)
			}
		case <-tick.C:
			if !killed && time.Since(last) > stallLimit(phase, medianNS) {
				killed = true
				cmd.Process.Kill() // the reader sees EOF and ends the loop
			}
		}
	}
	waitErr := cmd.Wait()
	switch {
	case e.Win == nil:
		e.Hung = true
		if !killed {
			e.Errs = append(e.Errs, fmt.Sprintf("child died (%v): %s", waitErr, lastLines(stderr.String(), 5)))
		}
	case killed:
		e.ProbeHang = true
	case waitErr != nil:
		e.Errs = append(e.Errs, fmt.Sprintf("child exit (%v): %s", waitErr, lastLines(stderr.String(), 5)))
	}
	return e
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// account returns how many ops an epoch answered, how many of those
// answers failed (an error or a wrong answer), and how many ops hung. A
// killed epoch had one op in flight per client (fewer if the list was
// nearly done). Those got no answer, right or wrong: the next epoch runs
// the same list again from its start in a fresh process, as a client
// that restarts a stuck service and retries would. They lower ok_share
// and are counted in run.hung_ops, not among the failed.
func account(e *epoch, w *workload) (answered, failed, hung int) {
	if e.Win != nil {
		return e.Win.Ops, e.Win.Failed, 0
	}
	return e.Done, e.Failed, min(w.Clients, w.Clients*w.Ops-e.Done)
}

// sample is one metric of one run: the reported value and the
// per-epoch values behind it.
type sample struct {
	Value  float64
	Epochs []float64
}

// runResult is one run of one workload: all its epochs and the metrics
// aggregated from them.
type runResult struct {
	Workload  *workload
	Seed      int64
	Epochs    []epoch
	Attempted int  // ops that were answered
	Failed    int  // of those, answered with an error or wrongly
	Hung      int  // ops in flight when the watchdog killed their epoch; retried by the next epoch
	Correct   bool // no op returned an error or a wrong answer; hangs do not count against it
	Notes     []string

	E2E   map[string]sample
	Layer map[string]sample
}

// launcher makes the command of one child; tests substitute their own.
type launcher func(w *workload, seed int64, traced bool) *exec.Cmd

// passOpts says how long and how a set of workloads is measured.
type passOpts struct {
	Seconds   float64 // measuring budget per workload
	Traced    bool    // alternate untraced and traced epochs
	MaxEpochs int     // stop a workload after this many epochs (0 = by time only)
	Log       io.Writer
}

// measure runs the workloads' epochs interleaved round-robin, so that
// drift of the machine hits all workloads alike, until each workload's
// own time budget is used up.
func measure(ws []*workload, seed int64, o passOpts, launch launcher) []*runResult {
	type state struct {
		res  *runResult
		used time.Duration
		durs [2][]float64 // epoch durations, untraced and traced
	}
	var states []*state
	for _, w := range ws {
		states = append(states, &state{res: &runResult{Workload: w, Seed: seed}})
	}
	budget := time.Duration(o.Seconds * float64(time.Second))
	for active := true; active; {
		active = false
		for _, st := range states {
			n := len(st.res.Epochs)
			traced := o.Traced && n%2 == 1
			kind := 0
			if traced {
				kind = 1
			}
			next := time.Duration(0)
			if len(st.durs[kind]) > 0 {
				next = time.Duration(median(st.durs[kind]))
			}
			if (n > 0 && st.used+next > budget) || (o.MaxEpochs > 0 && n >= o.MaxEpochs) {
				continue
			}
			active = true
			w := st.res.Workload
			e := runEpoch(launch(w, seed, traced), traced)
			st.used += e.Dur
			st.durs[kind] = append(st.durs[kind], float64(e.Dur))
			st.res.Epochs = append(st.res.Epochs, e)
			if o.Log != nil {
				fmt.Fprintf(o.Log, "%-16s epoch %2d %s\n", w.Name, n+1, describe(&e))
			}
		}
	}
	var out []*runResult
	for _, st := range states {
		aggregate(st.res)
		out = append(out, st.res)
	}
	return out
}

func describe(e *epoch) string {
	var b strings.Builder
	if e.Traced {
		b.WriteString("traced ")
	}
	switch {
	case e.Hung:
		fmt.Fprintf(&b, "HUNG after %d ops, killed at %.1fs", e.Done, e.Dur.Seconds())
	case e.Win != nil:
		fmt.Fprintf(&b, "%d ops in %.2fs (set-up %.2fs), %.1f ops/s", e.Win.Ops, e.Win.WallS, e.Win.SetupS, float64(e.Win.Ops-e.Win.Failed)/e.Win.WallS)
		if e.Win.Failed > 0 {
			fmt.Fprintf(&b, ", %d FAILED", e.Win.Failed)
		}
		if e.ProbeHang {
			b.WriteString(", ladder/probes HUNG")
		}
	}
	for _, s := range e.Errs {
		b.WriteString("; " + s)
	}
	return b.String()
}

// aggregate derives a run's metrics from its epochs. End-to-end numbers
// come from the untraced epochs only; per-layer numbers from the traced
// ones. Every timing is a median across good epochs, the latency
// percentiles too: a burst of interference from the shared host slows
// some epochs, and would own the pooled tail, but leaves the median
// epoch alone.
func aggregate(r *runResult) {
	w := r.Workload
	r.Correct = true
	r.E2E, r.Layer = map[string]sample{}, map[string]sample{}
	var setup, rate, tracedRate, overhead, compute, floor, rss, okShare, p50s, p90s []float64
	var lat [][]float64 // pooled only for run.op_tail_*
	layer := map[string][]float64{}
	var epochsOK, epochsHung, probeHangs float64
	for i := range r.Epochs {
		e := &r.Epochs[i]
		answered, failed, hung := account(e, w)
		r.Attempted += answered
		r.Failed += failed
		r.Hung += hung
		ok := 1 - float64(failed+hung)/float64(max(answered+hung, 1))
		if len(e.Errs) > 0 || (e.Win != nil && e.Win.Failed > 0) || (e.Hung && e.Failed > 0) {
			r.Correct = false
			r.Notes = append(r.Notes, e.Errs...)
			if e.Win != nil {
				r.Notes = append(r.Notes, e.Win.Errors...)
			}
		}
		if e.ProbeHang {
			probeHangs++
		}
		if e.Hung {
			epochsHung++
			if !e.Traced {
				okShare = append(okShare, ok)
			}
			continue
		}
		epochsOK++
		win := e.Win
		opsPerS := float64(win.Ops-win.Failed) / win.WallS
		if e.Traced {
			tracedRate = append(tracedRate, opsPerS)
			for _, src := range []layerValues{win.Layer, e.Layer} {
				for k, v := range src {
					layer[k] = append(layer[k], v)
				}
			}
			continue
		}
		all := pool(win.LatMS)
		lat = append(lat, all)
		setup = append(setup, win.SetupS)
		rate = append(rate, opsPerS)
		overhead = append(overhead, win.ComputeMS/win.FloorMS)
		compute = append(compute, win.ComputeMS)
		floor = append(floor, win.FloorMS)
		rss = append(rss, win.PeakRSSMB)
		okShare = append(okShare, ok)
		p50s = append(p50s, percentile(all, 50))
		p90s = append(p90s, percentile(all, 90))
	}
	pooled := pool(lat)
	r.E2E["setup_s"] = sample{median(setup), setup}
	r.E2E["ops_per_s"] = sample{median(rate), rate}
	r.E2E["op_p50_ms"] = sample{median(p50s), p50s}
	r.E2E["op_p90_ms"] = sample{median(p90s), p90s}
	// Every epoch runs the same ops, so the floor is one quantity measured
	// once per epoch: its median is steadier than any one reading, and it
	// still follows the machine from run to run as the numerator does.
	r.E2E["overhead_x"] = sample{median(compute) / median(floor), overhead}
	r.E2E["peak_rss_mb"] = sample{median(rss), rss}
	share := math.NaN()
	if r.Attempted > 0 {
		share = 1 - float64(r.Failed+r.Hung)/float64(r.Attempted+r.Hung)
	}
	r.E2E["ok_share"] = sample{share, okShare}

	for k, vs := range layer {
		r.Layer[k] = sample{median(vs), vs}
	}
	one := func(name string, v float64) { r.Layer[name] = sample{v, []float64{v}} }
	one("run.epochs_ok", epochsOK)
	one("run.epochs_hung", epochsHung)
	one("run.hung_ops", float64(r.Hung))
	one("run.probe_hangs", probeHangs)
	if len(tracedRate) > 0 && len(rate) > 0 {
		one("run.trace_overhead_x", median(tracedRate)/median(rate))
	}
	if pct := tailPercentile(len(pooled)); pct > 0 {
		one("run.op_tail_pct", pct)
		one("run.op_tail_ms", percentile(pooled, pct))
	}
}

// childCommand is the launcher of real runs: this executable again,
// with -child.
func childCommand(outDir string, extra ...string) launcher {
	return func(w *workload, seed int64, traced bool) *exec.Cmd {
		exe, err := os.Executable()
		if err != nil {
			exe = os.Args[0]
		}
		args := []string{"-child", "-workload", w.Name, "-seed", fmt.Sprint(seed), "-out", outDir}
		if traced {
			args = append(args, "-trace", "1")
		}
		return exec.Command(exe, append(args, extra...)...)
	}
}
