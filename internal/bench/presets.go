package bench

// Profiling presets: single-configuration runs of the paper's workloads
// sized for observability rather than measurement. cmd/legate-prof runs
// one of these with a prof.Sink attached and exports the timeline,
// dependence graph, and critical-path report.

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/legion"
	"repro/internal/machine"
	"repro/internal/prof"
	"repro/internal/quantum"
	"repro/internal/solvers"
)

// Presets lists the available profiling preset names.
func Presets() []string { return []string{"cg", "gmg", "quantum", "pagerank"} }

// pagerankIters is the fixed power-method iteration count of the
// pagerank preset (no convergence check; the profile should be the same
// shape every run).
const pagerankIters = 10

// RunPreset executes one named workload on a freshly built runtime of
// the given kind and processor count, publishing events into sink when
// non-nil. Problem sizes follow the figure experiments (per-processor
// units from opt, capped like Fig 10/11 where the setup is host-bound).
// It returns the runtime's sticky error, if any.
func RunPreset(name string, kind machine.ProcKind, procs int, opt Options, sink *prof.Sink) error {
	cost := scaled(machine.LegateCost(), opt.OverheadScale)
	var rt *legion.Runtime
	if name == "quantum" && kind == machine.GPU {
		rt = quantumRuntime(procs, cost)
	} else {
		rt = legateRuntime(kind, procs, cost)
	}
	defer rt.Shutdown()
	if sink != nil {
		rt.EnableProfiling(sink)
	}

	switch name {
	case "cg":
		nx := gridFor(cgUnits(opt) * int64(procs))
		a := core.Poisson2D(rt, nx)
		b := cunumeric.Full(rt, nx*nx, 1)
		res := solvers.CG(a, b, cgIters, 0)
		res.X.Destroy()
	case "gmg":
		units := gmgUnits(opt) * int64(procs)
		if units > gmgMaxTotalUnits {
			units = gmgMaxTotalUnits
		}
		nx := gridFor(units)
		if nx%2 == 1 {
			nx++
		}
		a := core.Poisson2D(rt, nx)
		b := cunumeric.Full(rt, nx*nx, 1)
		mg := solvers.NewMultigrid(a, nx)
		res := mg.PCG(b, gmgIters, 0)
		res.X.Destroy()
		mg.Destroy()
	case "quantum":
		units := opt.UnitsPerProc * int64(procs)
		if units > quantumMaxTotalUnits {
			units = quantumMaxTotalUnits
		}
		sys := quantum.NewSystem(rt, quantum.Chain{Atoms: atomsFor(units), Omega: 2, Delta: 1})
		rk := sys.NewIntegrator()
		sys.Evolve(rk, 1e-3, quantumSteps)
		rk.Destroy()
		sys.Destroy()
	case "pagerank":
		runPagerank(rt, opt.UnitsPerProc*int64(procs), opt.seed())
	default:
		return fmt.Errorf("bench: unknown preset %q (have: %s)", name, strings.Join(Presets(), ", "))
	}
	rt.Fence()
	return rt.Err()
}

// runPagerank ranks a synthetic scale-free graph with the power method
// (the examples/pagerank workload at a fixed iteration count): transition
// matrix Aᵀ D⁻¹ assembled with transpose/row-sum/gather, then one
// distributed SpMV plus vector ops per iteration.
func runPagerank(rt *legion.Runtime, n int64, seed uint64) {
	const edgesPerNode = 8
	var r, c []int64
	var v []float64
	for i := int64(0); i < n; i++ {
		for e := int64(0); e < edgesPerNode; e++ {
			u := cunumeric.Uniform01(seed, uint64(i*edgesPerNode+e))
			j := int64(u * u * float64(n))
			if j >= n {
				j = n - 1
			}
			if j == i {
				continue
			}
			r = append(r, i)
			c = append(c, j)
			v = append(v, 1)
		}
	}
	adj := core.NewCOO(rt, n, n, r, c, v).ToCSR()

	deg := adj.SumAxis1()
	inv := cunumeric.Zeros(rt, n)
	cunumeric.RecipClamp(inv, deg)
	coo := adj.Copy().ToCOO()
	factors := cunumeric.Zeros(rt, coo.NNZ())
	cunumeric.Gather(factors, coo.Row(), inv)
	cunumeric.MulInto(cunumeric.FromRegion(coo.Vals()), cunumeric.FromRegion(coo.Vals()), factors)
	mt := coo.ToCSR().Transpose()

	const damping = 0.85
	rank := cunumeric.Full(rt, n, 1/float64(n))
	next := cunumeric.Zeros(rt, n)
	teleport := (1 - damping) / float64(n)
	for it := 0; it < pagerankIters; it++ {
		mt.SpMVInto(next, rank)
		next.Scale(damping)
		next.AddScalar(teleport)
		s := cunumeric.Sum(next).Get()
		next.Scale(1 / s)
		cunumeric.Copy(rank, next)
	}
}
