// Command benchmark is the repository's one wall-clock benchmark: five
// workloads, seven end-to-end metrics and a ladder of per-layer metrics
// measured against the sequential floor of internal/seq. It times calls
// into public functions of each module from outside and changes nothing
// in them. README.md in this directory is the glossary; BENCHMARK.json
// at the repository root is the contract the benchmark driver reads.
//
// Every workload is measured in epochs. An epoch is a fresh child
// process (this executable with -child) that builds the system under
// test, primes it and has each client execute a fixed number of ops, so
// every epoch sees the same runtime age. The parent kills a child whose
// op-completion heartbeat stalls (the runtime's lost-wakeup deadlock
// does that every few seconds of load), counts the ops in flight as
// hung, and carries on: the next epoch runs the same ops again.
//
// Usage (through run.sh, which builds into .bench_build/ first):
//
//	benchmark -workload W -seed N -seconds S -trace 0|1   one run of one workload; last line is the driver's JSON
//	benchmark [-runs R] [-trace 1] [-json FILE]           every workload, R runs each, interleaved; prints the table
//	benchmark -quick                                      smoke run: 2 epochs per workload, no trace
//	benchmark -compare a.json b.json                      judge results b against results a; exits 1 on "worse"
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "measure this workload only and print the driver's JSON line")
		seed         = flag.Int64("seed", 1, "drives every generated input")
		seconds      = flag.Float64("seconds", 24, "measuring time per workload and run")
		trace        = flag.Int("trace", 0, "1: traced pass (per-layer metrics, span files); 0: end-to-end metrics")
		runs         = flag.Int("runs", 1, "runs per workload when measuring all of them; run i uses seed+i")
		quick        = flag.Bool("quick", false, "smoke run: 2 epochs per workload, no trace")
		cmp          = flag.Bool("compare", false, "compare two results files given as arguments")
		jsonPath     = flag.String("json", "", "where to write the results file (default <out>/results.json)")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for span files and results")

		child      = flag.Bool("child", false, "internal: run one epoch as a child process")
		corruptRef = flag.Bool("corrupt-ref", false, "testing: perturb the seq references; every run must then fail")
		hangAfter  = flag.Int("hang-after", 0, "testing: children block forever after this many ops")
	)
	flag.Parse()

	switch {
	case *child:
		return childMain(childOpts{Workload: *workloadName, Seed: *seed, Trace: *trace == 1, OutDir: *outDir,
			CorruptRef: *corruptRef, HangAfter: *hangAfter})
	case *cmp:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		a, errA := readResults(flag.Arg(0))
		b, errB := readResults(flag.Arg(1))
		if errA != nil || errB != nil {
			fmt.Fprintln(os.Stderr, errors.Join(errA, errB))
			return 2
		}
		if compare(os.Stdout, a, b) {
			return 1
		}
		return 0
	}

	// Testing flags travel to the children.
	var extra []string
	if *corruptRef {
		extra = append(extra, "-corrupt-ref")
	}
	if *hangAfter > 0 {
		extra = append(extra, "-hang-after", fmt.Sprint(*hangAfter))
	}
	launch := childCommand(*outDir, extra...)
	opts := passOpts{Seconds: *seconds, Traced: *trace == 1, Log: os.Stderr}

	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
			return 2
		}
		r := measure([]*workload{w}, *seed, opts, launch)[0]
		for _, n := range r.Notes {
			fmt.Fprintln(os.Stderr, "note:", n)
		}
		line := driverReport(r, opts.Traced)
		buf, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(buf))
		if !line.Correct {
			return 1
		}
		return 0
	}

	if *quick {
		opts.Traced, opts.MaxEpochs = false, 2
	}
	ctx := newContext(*seed, *seconds, *runs)
	var all [][]*runResult
	ok := true
	for i := 0; i < *runs; i++ {
		fmt.Fprintf(os.Stderr, "--- run %d of %d, seed %d\n", i+1, *runs, *seed+int64(i))
		o := opts
		o.Traced = false
		set := measure(workloads, *seed+int64(i), o, launch)
		if opts.Traced { // end-to-end numbers always come from the untraced pass
			traced := measure(workloads, *seed+int64(i), opts, launch)
			for j, r := range traced {
				set[j].Layer = r.Layer
				set[j].Correct = set[j].Correct && r.Correct
				set[j].Notes = append(set[j].Notes, r.Notes...)
			}
		}
		for _, r := range set {
			ok = ok && r.Correct
			for _, n := range r.Notes {
				fmt.Fprintf(os.Stderr, "note: %s: %s\n", r.Workload.Name, n)
			}
		}
		all = append(all, set)
	}
	rows := buildRows(&ctx, all) // also fills in the context's epoch counts
	rf := &resultsFile{Context: ctx, Rows: rows}
	printTable(os.Stdout, rf.Rows)
	path := *jsonPath
	if path == "" {
		path = filepath.Join(*outDir, "results.json")
	}
	if err := writeResults(path, rf); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("\nresults: %s (epochs ok %v, hung %v)\n", path, ctx.EpochsOK, ctx.EpochsHung)
	if !ok {
		fmt.Fprintln(os.Stderr, "FAILED: an op returned an error or a wrong answer")
		return 1
	}
	return 0
}
