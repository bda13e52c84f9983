package legion_test

import (
	"fmt"
	"reflect"
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

// skipOutcome is everything a run lets an observer see.
type skipOutcome struct {
	Data    [][]float64
	Futures []float64
	Sim     time.Duration
	Stats   []int64
	Summary prof.Summary
	Trace   *prof.Trace
}

// counters returns every counter of st, in field order.
func counters(st *machine.Stats) []int64 {
	var out []int64
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int64:
			out = append(out, v.Int())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(st).Elem())
	return out
}

// skipStream is a workload of the differential test: it runs on rt and
// returns the vectors and the scalars it computed.
type skipStream func(t *testing.T, rt *legion.Runtime) (data [][]float64, futures []float64)

// solveStream runs three solves of the Poisson problem on 1,024 rows
// with fresh work vectors each, so the later ones run warm.
func solveStream(solve func(a *core.CSR, b *cunumeric.Array) *solvers.Result) skipStream {
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
func faultyCG(inj func(rt *legion.Runtime) *fault.Injector) skipStream {
	return func(t *testing.T, rt *legion.Runtime) ([][]float64, []float64) {
		rt.EnableCheckpointing(16)
		rt.SetFaultInjector(inj(rt))
		return solveStream(cgSolve)(t, rt)
	}
}

var skipStreams = []struct {
	name string
	run  skipStream
	// check names what the stream must have exercised, from the
	// runtime it ran on.
	check func(rt *legion.Runtime) error
}{
	{name: "cg", run: solveStream(cgSolve)},
	{name: "mg-pcg", run: solveStream(func(a *core.CSR, b *cunumeric.Array) *solvers.Result {
		mg := solvers.NewMultigrid(a, 32)
		defer mg.Destroy()
		return mg.PCG(b, 6, 0)
	})},
	{name: "bicgstab", run: solveStream(func(a *core.CSR, b *cunumeric.Array) *solvers.Result {
		return solvers.BiCGSTAB(a, b, 8, 0)
	})},
	{name: "power", run: func(t *testing.T, rt *legion.Runtime) ([][]float64, []float64) {
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
	{name: "halo", run: func(t *testing.T, rt *legion.Runtime) ([][]float64, []float64) {
		var out legion.StreamOutcome
		regions := legion.HaloStream(6)(rt, &out)
		rt.Fence()
		var data [][]float64
		for _, r := range regions {
			data = append(data, append([]float64(nil), r.Float64s()...))
		}
		return data, out.Futures
	}},
	{name: "checkpoint-fault", run: faultyCG(func(*legion.Runtime) *fault.Injector {
		return fault.New(7).KillPoint(30, 1).KillPoint(75, 0).KillPoint(100, 1)
	}), check: func(rt *legion.Runtime) error {
		if n := rt.Stats().Restores.Load(); n < 2 {
			return fmt.Errorf("%d restores, want at least 2", n)
		}
		return nil
	}},
	{name: "proc-death", run: faultyCG(func(rt *legion.Runtime) *fault.Injector {
		return fault.New(7).KillProc(rt.Procs()[1], 2*time.Millisecond)
	}), check: func(rt *legion.Runtime) error {
		if n := rt.Stats().ProcsLost.Load(); n != 1 {
			return fmt.Errorf("%d processors lost, want 1", n)
		}
		return nil
	}},
}

// TestMappingSkipIsExact: skipping a mapping whose inputs are unchanged
// (Mapper.plan) changes nothing anyone can observe. Each stream runs at
// both runtime shapes with skipping on and off, and the two runs must
// agree on region contents and reduction values bit for bit, on the
// simulated clock, on every statistics counter, and on the profile —
// its per-task summary and every span, dependence, copy, memory event
// and mark. The skipping run must also have skipped something.
func TestMappingSkipIsExact(t *testing.T) {
	for _, s := range skipStreams {
		for _, sh := range shapes {
			t.Run(s.name+"/"+sh.name, func(t *testing.T) {
				var runs [2]skipOutcome
				var calls [2]int64
				for i, on := range []bool{true, false} {
					rt := shapeRuntime(t, sh.mach, sh.procs)
					legion.SetMappingSkip(rt, on)
					sink := prof.NewSink(0)
					rt.EnableProfiling(sink)
					var out skipOutcome
					out.Data, out.Futures = s.run(t, rt)
					rt.Fence()
					if err := rt.Err(); err != nil {
						t.Fatalf("skip %v: %v", on, err)
					}
					if s.check != nil {
						if err := s.check(rt); err != nil {
							t.Fatalf("skip %v: %v", on, err)
						}
					}
					out.Sim, out.Stats = rt.SimTime(), counters(rt.Stats())
					out.Summary, out.Trace = sink.Summary(), sink.Snapshot()
					runs[i], calls[i] = out, legion.MapCalls(rt)
				}
				if calls[0] >= calls[1] {
					t.Fatalf("skipping made %d mappings, not skipping %d: nothing was skipped", calls[0], calls[1])
				}
				if diff := outcomeDiff(runs[0], runs[1]); diff != "" {
					t.Fatalf("skipping on differs from off: %s", diff)
				}
			})
		}
	}
}

// outcomeDiff names the first field of two outcomes that differs, and
// for a list the first element that does.
func outcomeDiff(got, want skipOutcome) string {
	var diff func(name string, g, w reflect.Value) string
	diff = func(name string, g, w reflect.Value) string {
		if reflect.DeepEqual(g.Interface(), w.Interface()) {
			return ""
		}
		switch g.Kind() {
		case reflect.Pointer:
			return diff(name, g.Elem(), w.Elem())
		case reflect.Struct:
			for f := 0; f < g.NumField(); f++ {
				if d := diff(name+"."+g.Type().Field(f).Name, g.Field(f), w.Field(f)); d != "" {
					return d
				}
			}
		case reflect.Slice:
			for i := 0; i < min(g.Len(), w.Len()); i++ {
				if d := diff(fmt.Sprintf("%s[%d]", name, i), g.Index(i), w.Index(i)); d != "" {
					return d
				}
			}
		}
		return fmt.Sprintf("%s = %v, want %v", name, g.Interface(), w.Interface())
	}
	return diff("outcome", reflect.ValueOf(got), reflect.ValueOf(want))
}
