// Command legate-bench runs the paper-reproduction experiments: the
// weak-scaling figures (SpMV, CG, GMG, quantum) and the matrix
// factorization table of Legate Sparse's evaluation (§6).
//
// Usage:
//
//	legate-bench -exp spmv|cg|gmg|quantum|mf|ablation|recovery|all [-preset small|paper]
//	             [-units N] [-iters N] [-runs N] [-mfscale N]
//	             [-seed N] [-faults SPEC] [-checkpoint-every N]
//
// -exp recovery runs the fault-tolerance experiments: the fault-free
// checkpointing overhead, a faulted run verified bit-identical to the
// baseline, and the MTBF sweep (see internal/fault.Parse for the
// -faults schedule syntax).
//
// The wall-clock benchmark of the served and sharded paths is not here:
// it is benchmark/ (see benchmark/README.md).
//
// Each experiment prints the same rows/series the paper's figure or
// table reports, measured in simulated time on the synthetic machine
// model (see DESIGN.md for the calibration).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/legion"
	"repro/internal/prof"
)

func main() {
	exp := flag.String("exp", "all", "experiment: spmv, cg, gmg, quantum, mf, ablation, recovery, or all")
	preset := flag.String("preset", "small", "option preset: small or paper")
	units := flag.Int64("units", 0, "override units (rows/dimensions) per processor")
	iters := flag.Int("iters", 0, "override timed iterations per run")
	runs := flag.Int("runs", 0, "override repetitions per configuration")
	mfscale := flag.Int64("mfscale", 0, "override MovieLens dataset scale divisor")
	fusion := flag.Bool("fusion", true, "enable the runtime's task-fusion window")
	seed := flag.Uint64("seed", 42, "seed for workload generators and the fault injector")
	faults := flag.String("faults", "", "fault schedule for -exp recovery (e.g. point@40:2,proc@1:500us,rate:0.001:3)")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint interval in launches for -exp recovery (0 = default)")
	profOut := flag.String("prof-out", "", "directory to write observability artifacts (Chrome trace, DOT dependence graph, critical-path report) covering every runtime the experiments create")
	flag.Parse()

	if !*fusion {
		legion.SetDefaultFusionWindow(0)
	}
	var sink *prof.Sink
	if *profOut != "" {
		// Every runtime the bench package creates attaches to this sink;
		// the artifacts separate them by run index (one Chrome-trace
		// process / DOT cluster / report section per runtime).
		sink = prof.NewSink(0)
		legion.SetDefaultProfiler(sink)
		defer writeProfArtifacts(sink, *profOut)
	}

	var opt bench.Options
	switch *preset {
	case "small":
		opt = bench.SmallOptions()
	case "paper":
		opt = bench.PaperOptions()
	default:
		fmt.Fprintf(os.Stderr, "unknown preset %q\n", *preset)
		os.Exit(2)
	}
	if *units > 0 {
		opt.UnitsPerProc = *units
	}
	if *iters > 0 {
		opt.Iters = *iters
	}
	if *runs > 0 {
		opt.Runs = *runs
	}
	if *mfscale > 0 {
		opt.MFScale = *mfscale
	}
	opt.Seed = *seed
	opt.FaultSpec = *faults
	opt.CheckpointEvery = *ckptEvery

	run := func(name string, fig func(bench.Options) *bench.Figure) {
		t0 := time.Now()
		f := fig(opt)
		fmt.Printf("%s\n(generated in %v)\n\n", f.FormatFigure(), time.Since(t0).Round(time.Millisecond))
	}
	runMF := func() {
		t0 := time.Now()
		tab := bench.Fig12MF(opt)
		fmt.Printf("%s\n(generated in %v)\n\n", tab.FormatTable(), time.Since(t0).Round(time.Millisecond))
	}

	runAblation := func(ab func(bench.Options) bench.AblationResult) {
		t0 := time.Now()
		res := ab(opt)
		fmt.Printf("%s\n  %s\n  with: %.3f   without: %.3f\n(generated in %v)\n\n",
			res.Name, res.Metric, res.With, res.Without, time.Since(t0).Round(time.Millisecond))
	}
	runAblations := func() {
		for _, ab := range []func(bench.Options) bench.AblationResult{
			bench.AblationCoalescing,
			bench.AblationTracing,
			bench.AblationFusion,
			bench.AblationAnalysisScaling,
			bench.AblationRecovery,
			bench.AblationRecoveryFaulted,
		} {
			runAblation(ab)
		}
	}
	runRecovery := func() {
		runAblation(bench.AblationRecovery)
		runAblation(bench.AblationRecoveryFaulted)
		run("fig-recovery", bench.FigRecovery)
	}

	switch *exp {
	case "spmv":
		run("fig8", bench.Fig8SpMV)
	case "cg":
		run("fig9", bench.Fig9CG)
	case "gmg":
		run("fig10", bench.Fig10GMG)
	case "quantum":
		run("fig11", bench.Fig11Quantum)
	case "mf":
		runMF()
	case "ablation":
		runAblations()
	case "recovery":
		runRecovery()
	case "all":
		run("fig8", bench.Fig8SpMV)
		run("fig9", bench.Fig9CG)
		run("fig10", bench.Fig10GMG)
		run("fig11", bench.Fig11Quantum)
		runMF()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// writeProfArtifacts snapshots the sink and writes the three exporter
// artifacts under dir.
func writeProfArtifacts(sink *prof.Sink, dir string) {
	legion.SetDefaultProfiler(nil)
	t := sink.Snapshot()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "prof-out: %v\n", err)
		return
	}
	write := func(name string, f func(io.Writer) error) {
		path := filepath.Join(dir, name)
		out, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prof-out: %v\n", err)
			return
		}
		defer out.Close()
		if err := f(out); err != nil {
			fmt.Fprintf(os.Stderr, "prof-out: writing %s: %v\n", path, err)
		}
	}
	write("bench.trace.json", t.WriteChromeTrace)
	write("bench.deps.dot", t.WriteDOT)
	rep := t.BuildReport()
	write("bench.report.json", rep.WriteJSON)
	write("bench.report.txt", func(w io.Writer) error {
		_, err := io.WriteString(w, rep.String())
		return err
	})
	fmt.Printf("prof-out: %d runs, %d spans, %d launches -> %s\n",
		len(rep.Runs), len(t.Spans), len(t.Launches), dir)
}
