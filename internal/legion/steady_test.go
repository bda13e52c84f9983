package legion_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/fault"
	"repro/internal/legion"
	"repro/internal/machine"
	"repro/internal/prof"
	"repro/internal/solvers"
)

// The runtime shapes a warm solve is measured at: the benchmark's
// lib_cg_* op (two CPU processors of a Summit node) and the service
// engine's pool runtime (four CPU processors of a two-node machine).
var shapes = []struct {
	name  string
	mach  *machine.Machine
	procs int
}{
	{"lib", machine.Summit(1), 2},
	{"engine", machine.New(machine.Config{Nodes: 2}), 4},
}

func shapeRuntime(t testing.TB, m *machine.Machine, procs int) *legion.Runtime {
	t.Helper()
	rt := legion.NewRuntime(m, m.Select(machine.CPU, procs))
	t.Cleanup(rt.Shutdown)
	return rt
}

// trackedSpace is the solvers' Space of cuNumeric arrays on a's runtime
// that keeps a weak pointer to the region of every work vector it
// makes.
type trackedSpace struct {
	a    core.SparseMatrix
	made []weak.Pointer[legion.Region]
}

func (s *trackedSpace) Zeros() *cunumeric.Array {
	v := cunumeric.Zeros(s.a.Runtime(), s.a.Rows())
	s.made = append(s.made, weak.Make(v.Region()))
	return v
}
func (s *trackedSpace) Free(v *cunumeric.Array)          { v.Destroy() }
func (s *trackedSpace) Copy(dst, src *cunumeric.Array)   { cunumeric.Copy(dst, src) }
func (s *trackedSpace) MatVec(dst, src *cunumeric.Array) { s.a.SpMVInto(dst, src) }
func (s *trackedSpace) Dot(a, b *cunumeric.Array) float64 {
	return cunumeric.Dot(a, b).Get()
}
func (s *trackedSpace) AXPY(alpha float64, x, y *cunumeric.Array) { cunumeric.AXPY(alpha, x, y) }
func (s *trackedSpace) AXPBY(alpha float64, x *cunumeric.Array, beta float64, y *cunumeric.Array) {
	cunumeric.AXPBY(alpha, x, beta, y)
}
func (s *trackedSpace) Scale(alpha float64, v *cunumeric.Array) { v.Scale(alpha) }
func (s *trackedSpace) Err() error                              { return s.a.Runtime().Err() }

// TestFinishedLaunchesRetainNoRegion: after a CG at 65,536 rows whose
// launches queue on the workers, Destroy of its result and a Fence, no
// work vector of the solve is reachable. The matrix and b stay live,
// and every SpMV and dot of the solve read them, so a region state that
// kept a finished launch would keep, through its requirements, the
// vectors that launch touched.
func TestFinishedLaunchesRetainNoRegion(t *testing.T) {
	rt := shapeRuntime(t, machine.Summit(1), 2)
	a := core.Poisson2D(rt, 256)
	b := cunumeric.Full(rt, 256*256, 1)
	sp := &trackedSpace{a: a}
	solvers.PCGOn[*cunumeric.Array](sp, "cg", b, nil, 8, 0).X.Destroy()
	rt.Fence()
	runtime.GC()
	runtime.GC()
	if len(sp.made) < 4 {
		t.Fatalf("the solve made %d work vectors, want at least 4", len(sp.made))
	}
	for i, w := range sp.made {
		if r := w.Value(); r != nil {
			t.Errorf("work vector %d (%v) is still reachable after Destroy and Fence", i, r)
		}
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
}

// mapCallsPerCG runs three warm-up solves of an 8-iteration CG on 1,024
// rows and returns the mapRequirement calls of the fourth.
func mapCallsPerCG(rt *legion.Runtime) int64 {
	a := core.Poisson2D(rt, 32)
	b := cunumeric.Full(rt, 32*32, 1)
	solve := func() { solvers.CG(a, b, 8, 0).X.Destroy() }
	for i := 0; i < 3; i++ {
		solve()
	}
	rt.Fence()
	before := legion.MapCalls(rt)
	solve()
	rt.Fence()
	return legion.MapCalls(rt) - before
}

// TestCGMappingBudget bounds the requirement mappings of a warm
// 8-iteration CG: 250 at the lib shape and 500 at the engine's when
// every requirement of every point is mapped, 56 and 112 since a
// mapping whose inputs are unchanged is skipped (Mapper.plan). Over
// the budget, a steady loop is remapping about half its requirements.
func TestCGMappingBudget(t *testing.T) {
	budgets := map[string]int64{"lib": 120, "engine": 240}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			got := mapCallsPerCG(shapeRuntime(t, s.mach, s.procs))
			off := shapeRuntime(t, s.mach, s.procs)
			legion.SetMappingSkip(off, false)
			all := mapCallsPerCG(off)
			t.Logf("%d of %d mappings", got, all)
			if got > budgets[s.name] {
				t.Errorf("warm 8-iteration CG: %d mapRequirement calls (of %d unskipped), budget %d", got, all, budgets[s.name])
			}
		})
	}
}

// solveStream runs three solves of the Poisson problem on 1,024 rows
// with fresh work vectors each, so the later ones run warm.
func solveStream(solve func(a *core.CSR, b *cunumeric.Array) *solvers.Result) legion.Stream {
	return func(t *testing.T, rt *legion.Runtime) ([][]float64, []float64) {
		a := core.Poisson2D(rt, 32)
		b := cunumeric.Full(rt, 32*32, 1)
		var data [][]float64
		var futures []float64
		for i := 0; i < 3; i++ {
			res := solve(a, b)
			if res.Err != nil {
				t.Fatalf("solve %d: %v", i, res.Err)
			}
			data = append(data, res.X.ToSlice())
			futures = append(futures, res.Residuals...)
			res.X.Destroy()
		}
		return data, futures
	}
}

func cgSolve(a *core.CSR, b *cunumeric.Array) *solvers.Result { return solvers.CG(a, b, 8, 0) }

// faultyCG is three CG solves under checkpointing, with the faults inj
// injects.
func faultyCG(inj func(rt *legion.Runtime) *fault.Injector) legion.Stream {
	return func(t *testing.T, rt *legion.Runtime) ([][]float64, []float64) {
		rt.EnableCheckpointing(16)
		rt.SetFaultInjector(inj(rt))
		return solveStream(cgSolve)(t, rt)
	}
}

func restored(min int64) func(rt *legion.Runtime) error {
	return func(rt *legion.Runtime) error {
		if n := rt.Stats().Restores.Load(); n < min {
			return fmt.Errorf("%d restores, want at least %d", n, min)
		}
		return nil
	}
}

// exactStream is a workload of the exactness tests.
type exactStream struct {
	name        string
	skip, reuse bool // run by TestMappingSkipIsExact, by TestStorageReuseIsExact
	run         legion.Stream
	// check names what the stream must have exercised, from the
	// runtime it ran on.
	check func(rt *legion.Runtime) error
}

var exactStreams = []exactStream{
	{name: "cg", skip: true, reuse: true, run: solveStream(cgSolve)},
	{name: "mg-pcg", skip: true, run: solveStream(func(a *core.CSR, b *cunumeric.Array) *solvers.Result {
		mg := solvers.NewMultigrid(a, 32)
		defer mg.Destroy()
		return mg.PCG(b, 6, 0)
	})},
	{name: "bicgstab", skip: true, run: solveStream(func(a *core.CSR, b *cunumeric.Array) *solvers.Result {
		return solvers.BiCGSTAB(a, b, 8, 0)
	})},
	{name: "power", skip: true, run: func(t *testing.T, rt *legion.Runtime) ([][]float64, []float64) {
		a := core.Poisson2D(rt, 32)
		var data [][]float64
		var futures []float64
		for seed := uint64(1); seed <= 3; seed++ {
			lambda, x := solvers.PowerIteration(a, 10, seed)
			data, futures = append(data, x.ToSlice()), append(futures, lambda)
			x.Destroy()
		}
		return data, futures
	}},
	{name: "halo", skip: true, run: legion.HaloStream(6)},
	{name: "halo", reuse: true, run: twiceHalo},
	{name: "checkpoint-fault", skip: true, run: faultyCG(func(*legion.Runtime) *fault.Injector {
		return fault.New(7).KillPoint(30, 1).KillPoint(75, 0).KillPoint(100, 1)
	}), check: restored(2)},
	{name: "rate-faults", reuse: true, run: faultyCG(func(*legion.Runtime) *fault.Injector {
		in, err := fault.Parse("rate:0.02:4", 11)
		if err != nil {
			panic(err)
		}
		return in
	}), check: restored(2)},
	{name: "proc-death", skip: true, reuse: true, run: faultyCG(func(rt *legion.Runtime) *fault.Injector {
		return fault.New(7).KillProc(rt.Procs()[1], 2*time.Millisecond)
	}), check: func(rt *legion.Runtime) error {
		if n := rt.Stats().ProcsLost.Load(); n != 1 {
			return fmt.Errorf("%d processors lost, want 1", n)
		}
		return nil
	}},
	{name: "destroy-replay", reuse: true, run: destroyThenReplay, check: restored(2)},
	{name: "queued-destroy", reuse: true, run: queuedDestroy},
}

// exactlyAlike runs each stream that pick selects at both runtime
// shapes, with set's switch on and then off, and requires the two runs
// to agree on their whole Outcome. took returns an error unless the
// run with the switch on used it.
func exactlyAlike(t *testing.T, pick func(exactStream) bool, set func(*legion.Runtime, bool), took func(on, off *legion.Runtime) error) {
	for _, s := range exactStreams {
		if !pick(s) {
			continue
		}
		for _, sh := range shapes {
			t.Run(s.name+"/"+sh.name, func(t *testing.T) {
				var runs [2]legion.Outcome
				var rts [2]*legion.Runtime
				for i, on := range []bool{true, false} {
					rt := shapeRuntime(t, sh.mach, sh.procs)
					set(rt, on)
					sink := prof.NewSink(0)
					rt.EnableProfiling(sink)
					data, futures := s.run(t, rt)
					rt.Fence()
					if err := rt.Err(); err != nil {
						t.Fatalf("switch on %v: %v", on, err)
					}
					if s.check != nil {
						if err := s.check(rt); err != nil {
							t.Fatalf("switch on %v: %v", on, err)
						}
					}
					runs[i], rts[i] = legion.Capture(rt, sink, data, futures), rt
				}
				if err := took(rts[0], rts[1]); err != nil {
					t.Fatal(err)
				}
				if diff := legion.Diff(runs[0], runs[1]); diff != "" {
					t.Fatalf("switch on differs from off: %s", diff)
				}
			})
		}
	}
}

// TestMappingSkipIsExact: skipping a mapping whose inputs are unchanged
// (Mapper.plan) changes nothing anyone can observe. Each stream runs at
// both runtime shapes with skipping on and off, and the two runs must
// agree on their whole Outcome. The skipping run must also have skipped
// something.
func TestMappingSkipIsExact(t *testing.T) {
	exactlyAlike(t, func(s exactStream) bool { return s.skip }, legion.SetMappingSkip, func(on, off *legion.Runtime) error {
		if a, b := legion.MapCalls(on), legion.MapCalls(off); a >= b {
			return fmt.Errorf("skipping made %d mappings, not skipping %d: nothing was skipped", a, b)
		}
		return nil
	})
}
