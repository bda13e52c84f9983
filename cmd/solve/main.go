// Command solve loads a Matrix Market file and runs one of the
// library's iterative solvers on it — the workflow a SciPy user
// replaces with scipy.io.mmread + scipy.sparse.linalg.
//
// Usage:
//
//	solve -matrix A.mtx [-solver NAME] [-gpus N]
//	      [-format csr|csc|coo|dia|bsr] [-block N]
//	      [-tol 1e-8] [-maxiter 5000] [-profile]
//
// NAME is a method of the solver table the solve service also serves
// (solvers.Lookup); -h lists the names. GMRES restarts every 30 steps.
//
// -format converts the operand before solving; every solver runs
// against the core.SparseMatrix interface, so any storage format's
// compiled kernels drive the same Krylov iteration.
//
// The right-hand side is all ones (pass -rhs-random for a seeded random
// vector). Exit status 1 means the solver did not converge.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/legion"
	"repro/internal/machine"
	"repro/internal/prof"
	"repro/internal/solvers"
)

func main() {
	matrix := flag.String("matrix", "", "Matrix Market file (required)")
	solver := flag.String("solver", "cg", "Krylov method: "+solvers.MethodNames())
	gpus := flag.Int("gpus", 3, "simulated GPUs")
	tol := flag.Float64("tol", 1e-8, "residual tolerance")
	maxiter := flag.Int("maxiter", 5000, "iteration cap")
	rhsRandom := flag.Bool("rhs-random", false, "random right-hand side instead of ones")
	format := flag.String("format", "csr", "operand storage format: "+core.FormatNames())
	block := flag.Int64("block", 2, "BSR block size (with -format bsr)")
	profile := flag.Bool("profile", false, "print the per-task runtime profile")
	flag.Parse()
	if *matrix == "" {
		flag.Usage()
		os.Exit(2)
	}
	solve, err := solvers.Lookup(*solver)
	if err != nil {
		fmt.Fprintf(os.Stderr, "solve: %v\n", err)
		os.Exit(2)
	}

	f, err := os.Open(*matrix)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer f.Close()

	m := machine.Summit((*gpus + 5) / 6)
	rt := legion.NewRuntime(m, m.Select(machine.GPU, *gpus))
	defer rt.Shutdown()
	sink := prof.NewSink(1) // read only for its Summary
	if *profile {
		rt.EnableProfiling(sink)
	}

	csr, err := core.ReadMatrixMarket(rt, f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rows, cols := csr.Shape()
	if rows != cols {
		fmt.Fprintf(os.Stderr, "solve: %s is %dx%d; iterative solvers need a square system\n",
			*matrix, rows, cols)
		os.Exit(2)
	}

	a, err := core.Convert(csr, *format, *block)
	if err != nil {
		fmt.Fprintf(os.Stderr, "solve: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("loaded %v from %s\n", a, *matrix)

	var b *cunumeric.Array
	if *rhsRandom {
		b = cunumeric.Random(rt, rows, 1)
	} else {
		b = cunumeric.Full(rt, rows, 1)
	}

	res := solve(a, b, 30, *maxiter, *tol)
	rt.Fence()

	last := 0.0
	if len(res.Residuals) > 0 {
		last = res.Residuals[len(res.Residuals)-1]
	}
	fmt.Printf("%s: converged=%v iterations=%d residual=%.3e simulated-time=%v\n",
		*solver, res.Converged, res.Iterations, last, rt.SimTime())
	fmt.Printf("data movement: %v\n", rt.Stats())
	if *profile {
		fmt.Printf("\n%s", sink.Summary())
	}
	if res.Err != nil {
		fmt.Fprintf(os.Stderr, "solve: %v\n", res.Err)
		os.Exit(1)
	}
	if !res.Converged {
		os.Exit(1)
	}
}
