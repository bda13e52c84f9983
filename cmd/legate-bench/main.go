// Command legate-bench runs the paper-reproduction experiments: the
// weak-scaling figures (SpMV, CG, GMG, quantum) and the matrix
// factorization table of Legate Sparse's evaluation (§6).
//
// Usage:
//
//	legate-bench -exp spmv|cg|gmg|quantum|mf|ablation|recovery|figures|info|all
//	             [-preset small|paper] [-units N] [-iters N] [-runs N] [-mfscale N]
//	             [-seed N] [-faults SPEC] [-checkpoint-every N] [-fusion=false]
//
// -exp figures prints every figure and table as the markdown embedded
// in EXPERIMENTS.md (experiments-data.md is its -preset paper output).
// -exp info prints the inventory: the 1-node machine model, the
// DISTAL-generated kernel variants, the SciPy Sparse API coverage in the
// taxonomy of §5, and a task-fusion demo with its profile and copies.
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
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/distal"
	"repro/internal/legion"
	"repro/internal/machine"
	"repro/internal/prof"
)

func main() {
	exp := flag.String("exp", "all", "experiment: spmv, cg, gmg, quantum, mf, ablation, recovery, figures, info, or all")
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
	case "figures":
		fmt.Print(figures(opt, *preset))
	case "info":
		info()
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

// figures renders every figure and table as the markdown embedded in
// EXPERIMENTS.md, logging each one's time to stderr.
func figures(opt bench.Options, preset string) string {
	var sb strings.Builder
	start := time.Now()
	for _, f := range []struct {
		paper string
		fn    func(bench.Options) *bench.Figure
	}{
		{"Figure 8", bench.Fig8SpMV},
		{"Figure 9", bench.Fig9CG},
		{"Figure 10", bench.Fig10GMG},
		{"Figure 11", bench.Fig11Quantum},
	} {
		t0 := time.Now()
		fig := f.fn(opt)
		fmt.Fprintf(os.Stderr, "%s done in %v\n", fig.Name, time.Since(t0).Round(time.Millisecond))
		fmt.Fprintf(&sb, "### %s — %s\n\n%s\n", f.paper, fig.Title, fig.Markdown())
	}
	t0 := time.Now()
	tab := bench.Fig12MF(opt)
	fmt.Fprintf(os.Stderr, "fig12 done in %v\n", time.Since(t0).Round(time.Millisecond))
	fmt.Fprintf(&sb, "### Figure 12 — Sparse Matrix Factorization Performance (datasets scaled 1/%d)\n\n%s\n", tab.Scale, tab.Markdown())
	fmt.Fprintf(&sb, "_Generated by `go run ./cmd/legate-bench -exp figures -preset %s` in %v._\n", preset, time.Since(start).Round(time.Second))
	return sb.String()
}

// info prints the inventory and the task-fusion demo.
func info() {
	m := machine.Summit(1)
	fmt.Printf("Simulated machine: %d node(s), %d CPU sockets, %d GPUs\n",
		m.Nodes, m.CountKind(machine.CPU), m.CountKind(machine.GPU))
	cost := machine.LegateCost()
	fmt.Printf("  GPU sparse rate %.2e elem/s, CPU %.2e; NVLink %.0f GB/s, IB %.1f GB/s\n",
		cost.Rate[machine.GPU][machine.SparseIter], cost.Rate[machine.CPU][machine.SparseIter],
		cost.Bandwidth[machine.NVLink]/1e9, cost.Bandwidth[machine.InterNode]/1e9)
	fmt.Printf("  Legate launch overhead %v (+%v/point); PETSc %v; CuPy %v\n\n",
		cost.LaunchOverhead, cost.AnalysisPerPoint,
		machine.PETScCost().LaunchOverhead, machine.CuPyCost().LaunchOverhead)

	fmt.Println("DISTAL-generated kernel variants (op/format/target):")
	for _, k := range distal.Standard.Keys() {
		fmt.Printf("  %s\n", k)
	}

	counts := core.CoverageCounts()
	fmt.Printf("\nSciPy Sparse API coverage (§5 taxonomy): %d generated, %d ported, %d hand-written\n",
		counts[core.Generated], counts[core.Ported], counts[core.HandWritten])
	for _, e := range core.Coverage() {
		fmt.Printf("  %-45s %-18s %s\n", e.Name, e.Formats, e.Kind)
	}

	fmt.Printf("\nTask-fusion window: %d launches (set -fusion=false to disable)\n",
		legion.DefaultFusionWindow())
	fmt.Println("Fusion demo: 8 back-to-back AXPY launches on 2 GPUs:")
	rt := legion.NewRuntime(m, m.Select(machine.GPU, 2))
	defer rt.Shutdown()
	sink := rt.Profiler() // -prof-out's sink, which sees only this runtime
	if sink == nil {
		sink = prof.NewSink(1)
		rt.EnableProfiling(sink)
	}
	x := cunumeric.Full(rt, 1<<12, 1)
	y := cunumeric.Zeros(rt, 1<<12)
	for k := 0; k < 8; k++ {
		cunumeric.AXPY(0.125, x, y)
	}
	rt.Fence()
	sum := sink.Summary()
	fmt.Printf("  fused launches issued: %d (absorbing %d originals); simulated time %v\n",
		sum.FusedGroups, sum.FusedMembers, rt.SimTime())
	fmt.Println("\nDemo run profile:")
	fmt.Print(sum.String())
	fmt.Println("\nDemo run copies by link class:")
	fmt.Printf("  %-12s %10s %14s\n", "link", "copies", "bytes")
	st := rt.Stats()
	for l := machine.SameProc; l <= machine.InterNode; l++ {
		fmt.Printf("  %-12s %10d %14d\n", l, st.LinkCopies(l), st.LinkBytes(l))
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
