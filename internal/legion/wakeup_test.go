package legion

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
)

// TestWakeupStress pins the worker wakeup protocol: dispatch publishes a
// launch's readiness and signals its workers, and a signal that lands
// between a worker's readiness test and its cond.Wait must not be lost.
// It issues chains of tiny dependent launches on two processors — eight
// in-place updates, each depending on the one before, then a reduction
// the application blocks on — which is the shape of a Krylov iteration
// and keeps both workers parking and waking every few microseconds.
//
// A lost wakeup parks every goroutine, so the loop runs beside a
// watchdog: when no chain completes for two seconds the test fails with
// a full goroutine dump instead of hanging the package until -timeout.
func TestWakeupStress(t *testing.T) {
	budget := 3 * time.Second
	if testing.Short() {
		budget = 500 * time.Millisecond
	}
	for _, procs := range []int{2, 1} {
		prev := runtime.GOMAXPROCS(procs)
		chains, stalled := wakeupChains(budget)
		runtime.GOMAXPROCS(prev)
		if stalled {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("GOMAXPROCS=%d: no launch completed for 2s after %d chains (%d launches); goroutines:\n%s",
				procs, chains, 9*chains, buf)
		}
		t.Logf("GOMAXPROCS=%d: %d chains (%d launches) in %v", procs, chains, 9*chains, budget)
	}
}

// wakeupChains runs dependent-launch chains for the budget and reports
// how many completed and whether progress stopped. On a stall the
// runtime is abandoned, not shut down: Shutdown would park on the same
// lost launch.
func wakeupChains(budget time.Duration) (chains int64, stalled bool) {
	var done atomic.Int64
	var stop atomic.Bool
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		m := machine.Summit(1)
		rt := NewRuntime(m, m.Select(machine.GPU, 2))
		r := rt.CreateRegion("v", 16, Float64)
		part := rt.BlockPartition(r, 2)
		for !stop.Load() {
			for k := 0; k < 8; k++ {
				incLaunch(rt, r, 2)
			}
			sum := rt.NewLaunch("sum", 2, func(tc *TaskContext) {
				d := tc.Float64(0)
				var s float64
				tc.Subspace(0).Each(func(i int64) { s += d[i] })
				tc.Reduce(s)
			})
			sum.Add(r, part, ReadOnly)
			sum.SetOpClass(machine.Reduction)
			sum.Execute().GetNoSync()
			done.Add(1)
		}
		rt.Shutdown()
	}()

	deadline := time.Now().Add(budget)
	last, lastMove := int64(-1), time.Now()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for now := range tick.C {
		if n := done.Load(); n != last {
			last, lastMove = n, now
		} else if now.Sub(lastMove) > 2*time.Second {
			return last, true
		}
		if now.After(deadline) {
			break
		}
	}
	stop.Store(true)
	select {
	case <-finished:
		return done.Load(), false
	case <-time.After(2 * time.Second):
		return done.Load(), true
	}
}
