// Poisson solves the 2-D Poisson problem -∇²u = f on an nx x nx grid
// with the conjugate gradient method — the workload of the paper's
// Figure 9 — and cross-checks the Krylov solver family (CG, CGS, BiCG,
// BiCGSTAB, GMRES) on the same system.
package main

import (
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/legion"
	"repro/internal/machine"
	"repro/internal/prof"
	"repro/internal/solvers"
)

func main() {
	nx := flag.Int64("nx", 64, "grid edge (nx*nx unknowns)")
	gpus := flag.Int("gpus", 6, "simulated GPUs")
	tol := flag.Float64("tol", 1e-8, "residual tolerance")
	profile := flag.Bool("profile", false, "print the per-task runtime profile")
	flag.Parse()

	m := machine.Summit((*gpus + 5) / 6)
	rt := legion.NewRuntime(m, m.Select(machine.GPU, *gpus))
	defer rt.Shutdown()
	sink := prof.NewSink(1) // read only for its Summary
	if *profile {
		rt.EnableProfiling(sink)
	}

	a := core.Poisson2D(rt, *nx)
	n := *nx * *nx
	b := cunumeric.Full(rt, n, 1)
	fmt.Printf("system: %v (%d unknowns) on %d GPUs\n", a, n, *gpus)

	type entry struct {
		name string
		run  func() *solvers.Result
	}
	for _, s := range []entry{
		{"CG", func() *solvers.Result { return solvers.CG(a, b, 2000, *tol) }},
		{"CGS", func() *solvers.Result { return solvers.CGS(a, b, 2000, *tol) }},
		{"BiCG", func() *solvers.Result { return solvers.BiCG(a, b, 2000, *tol) }},
		{"BiCGSTAB", func() *solvers.Result { return solvers.BiCGSTAB(a, b, 2000, *tol) }},
		{"GMRES(30)", func() *solvers.Result { return solvers.GMRES(a, b, 30, 2000, *tol) }},
	} {
		rt.Fence()
		rt.ResetMetrics()
		res := s.run()
		rt.Fence()
		last := 0.0
		if len(res.Residuals) > 0 {
			last = res.Residuals[len(res.Residuals)-1]
		}
		fmt.Printf("%-10s converged=%-5v iters=%-5d residual=%.3e simtime=%v\n",
			s.name, res.Converged, res.Iterations, last, rt.SimTime())
		res.X.Destroy()
	}
	if *profile {
		fmt.Printf("\nper-task profile (all solvers):\n%s", sink.Summary())
	}
}
