package solvers

import (
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/fault"
	"repro/internal/legion"
	"repro/internal/prof"
)

// krylovEntries are the Krylov entry points on the 16×16 Poisson
// operator. Every one is a loop over a region space and must share its
// lifecycle behaviour. nanIters is the iteration count at which a NaN
// right-hand side stops the solve: GMRES checks its initial residual
// before the first Arnoldi step.
var krylovEntries = []struct {
	name     string
	nanIters int
	build    func(a *core.CSR) func(b *cunumeric.Array, maxIter int, tol float64) *Result
}{
	{"CG", 1, func(a *core.CSR) func(*cunumeric.Array, int, float64) *Result {
		return func(b *cunumeric.Array, it int, tol float64) *Result { return CG(a, b, it, tol) }
	}},
	{"PCGJacobi", 1, func(a *core.CSR) func(*cunumeric.Array, int, float64) *Result {
		return func(b *cunumeric.Array, it int, tol float64) *Result { return PCGJacobi(a, b, it, tol) }
	}},
	{"Multigrid.PCG", 1, func(a *core.CSR) func(*cunumeric.Array, int, float64) *Result {
		return NewMultigrid(a, 16).PCG
	}},
	{"MultilevelMG.PCG", 1, func(a *core.CSR) func(*cunumeric.Array, int, float64) *Result {
		return NewMultilevelMG(a, 16, 3).PCG
	}},
	{"CGS", 1, func(a *core.CSR) func(*cunumeric.Array, int, float64) *Result {
		return func(b *cunumeric.Array, it int, tol float64) *Result { return CGS(a, b, it, tol) }
	}},
	{"BiCG", 1, func(a *core.CSR) func(*cunumeric.Array, int, float64) *Result {
		return func(b *cunumeric.Array, it int, tol float64) *Result { return BiCG(a, b, it, tol) }
	}},
	{"BiCGSTAB", 1, func(a *core.CSR) func(*cunumeric.Array, int, float64) *Result {
		return func(b *cunumeric.Array, it int, tol float64) *Result { return BiCGSTAB(a, b, it, tol) }
	}},
	{"GMRES", 0, func(a *core.CSR) func(*cunumeric.Array, int, float64) *Result {
		return func(b *cunumeric.Array, it int, tol float64) *Result { return GMRES(a, b, 30, it, tol) }
	}},
}

// TestPCGLifecycle: every Krylov entry point stops on cooperative
// cancellation within one iteration and reports it, names a NaN
// right-hand side as a breakdown, and lets a sticky runtime error
// outrank whatever numeric state the solve reached.
func TestPCGLifecycle(t *testing.T) {
	for _, e := range krylovEntries {
		t.Run(e.name+"/cancel", func(t *testing.T) {
			rt := newRT(t, 2)
			solve := e.build(core.Poisson2D(rt, 16))
			b := onesB(rt, 256)
			// Count the cancel polls three whole iterations take, then
			// fire on the next poll: the solve may finish the iteration it
			// is in and must not start another.
			polls, fireAt := 0, -1
			cause := errors.New("deadline exceeded")
			rt.SetCancelCheck(func() error {
				polls++
				if fireAt >= 0 && polls > fireAt {
					return cause
				}
				return nil
			})
			solve(b, 3, 0).X.Destroy()
			rt.Fence()
			polls, fireAt = 0, polls
			res := solve(b, 100, 0)
			var ce *legion.CancelledError
			if !errors.As(res.Err, &ce) || !errors.Is(res.Err, cause) {
				t.Fatalf("Err = %v, want CancelledError wrapping the cause", res.Err)
			}
			if res.Converged {
				t.Fatal("a cancelled solve must not report convergence")
			}
			if res.Iterations < 3 || res.Iterations > 4 {
				t.Fatalf("stopped after %d iterations, want 3 or 4 (cancel fired entering the 4th)", res.Iterations)
			}
			rt.ClearCancel()
		})
		t.Run(e.name+"/nan", func(t *testing.T) {
			rt := newRT(t, 2)
			solve := e.build(core.Poisson2D(rt, 16))
			res := solve(cunumeric.Full(rt, 256, math.NaN()), 50, 1e-8)
			var be *BreakdownError
			if !errors.As(res.Err, &be) {
				t.Fatalf("Err = %v, want BreakdownError", res.Err)
			}
			if res.Converged || res.Iterations != e.nanIters {
				t.Fatalf("converged=%v after %d iterations, want a stop at the first NaN residual (%d iterations)", res.Converged, res.Iterations, e.nanIters)
			}
		})
		t.Run(e.name+"/sticky", func(t *testing.T) {
			rt := newRT(t, 2)
			solve := e.build(core.Poisson2D(rt, 16))
			b := onesB(rt, 256)
			rt.Fence()
			// Without checkpointing an injected point failure is the
			// runtime's sticky error; every later kernel is skipped, so
			// the residual reads as zero — apparent convergence.
			rt.SetFaultInjector(fault.New(1).SetRate(1, 1))
			res := solve(b, 50, 1e-8)
			var pe *legion.TaskPanicError
			if !errors.As(res.Err, &pe) {
				t.Fatalf("Err = %v, want the runtime's TaskPanicError", res.Err)
			}
			if res.Converged {
				t.Fatal("a runtime error must outrank convergence")
			}
		})
	}
}

// launchOrder returns the task names the profiler records while fn
// runs, in issue order (a fused carrier's name lists its members).
func launchOrder(rt *legion.Runtime, fn func()) []string {
	sink := prof.NewSink(0)
	rt.EnableProfiling(sink)
	fn()
	rt.Fence()
	rt.EnableProfiling(nil)
	var names []string
	for _, l := range sink.Snapshot().Launches {
		names = append(names, l.Name)
	}
	return names
}

// TestLaunchOrderPinned pins the launch sequence of an 8-iteration CG,
// a 2-iteration two-level PCG, two iterations each of CGS, BiCG and
// BiCGSTAB, and three of GMRES(2) — one restart — to lists captured
// before each solver was written over Space. The simulated figures are
// a function of this sequence, so a reordering must show up here before
// it shows up there.
func TestLaunchOrderPinned(t *testing.T) {
	rt := newRT(t, 2)
	a := core.Poisson2D(rt, 16)
	b := onesB(rt, 256)
	mg := NewMultigrid(a, 16)
	for _, tc := range []struct {
		golden string
		run    func()
	}{
		{"testdata/cg8.launches", func() { CG(a, b, 8, 0).X.Destroy() }},
		{"testdata/mgpcg2.launches", func() { mg.PCG(b, 2, 0).X.Destroy() }},
		{"testdata/cgs2.launches", func() { CGS(a, b, 2, 0).X.Destroy() }},
		{"testdata/bicg2.launches", func() { BiCG(a, b, 2, 0).X.Destroy() }},
		{"testdata/bicgstab2.launches", func() { BiCGSTAB(a, b, 2, 0).X.Destroy() }},
		{"testdata/gmres3.launches", func() { GMRES(a, b, 2, 3, 0).X.Destroy() }},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		got := strings.Join(launchOrder(rt, tc.run), "\n") + "\n"
		if got != string(want) {
			t.Errorf("launch order differs from %s:\n got:\n%swant:\n%s", tc.golden, got, want)
		}
	}
}
