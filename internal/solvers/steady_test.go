package solvers

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/legion"
	"repro/internal/machine"
)

// cacheEntries is the part of CacheStats that measures held state.
func cacheEntries(s legion.CacheStats) [4]int {
	return [4]int{s.PartEntries, s.AlignEntries, s.ImageEntries, s.ImageSetEntries}
}

// TestCGSteadyStateCaches: repeated solves on one matrix, each with
// fresh temporaries, are the steady state of the paper's Figure 5 — the
// pos → crd → x images are built by the first solve and replayed by every
// later one, and the caches hold the same number of entries after the
// second solve as after the fiftieth.
func TestCGSteadyStateCaches(t *testing.T) {
	rt := newRT(t, 4)
	a := core.Poisson2D(rt, 32)
	b := onesB(rt, 32*32)
	solve := func() legion.CacheStats {
		CG(a, b, 8, 0).X.Destroy()
		return rt.CacheStats()
	}
	first, second := solve(), solve()
	last := second
	for i := 3; i <= 50; i++ {
		last = solve()
	}
	if first.ImageBuilds == 0 {
		t.Fatal("the first solve built no image: the test no longer exercises the image caches")
	}
	if last.ImageBuilds != first.ImageBuilds {
		t.Errorf("image builds grew from %d after the first solve to %d after 50", first.ImageBuilds, last.ImageBuilds)
	}
	if cacheEntries(second) != cacheEntries(last) {
		t.Errorf("cache entries (part, align, image, image-set) %v after solve 2, %v after solve 50",
			cacheEntries(second), cacheEntries(last))
	}
}

// TestCGRetention: 4000 solves against one small matrix leave the heap
// where a handful do, and the matrix — whose regions were read by every
// one of the 36,000 SpMV launches and never written — is destroyed
// without waiting on a list of them.
func TestCGRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("4000 solves")
	}
	rt := newRT(t, 2)
	a := core.Poisson2D(rt, 32)
	b := onesB(rt, 32*32)
	for i := 0; i < 4000; i++ {
		CG(a, b, 8, 0).X.Destroy()
	}
	rt.Fence()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if mb := float64(ms.HeapInuse) / (1 << 20); mb > 16 {
		t.Errorf("heap in use after 4000 solves: %.1f MB, want under 16", mb)
	}
	start := time.Now()
	a.Destroy()
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("destroying the matrix took %v, want under 50ms", d)
	}
	runtime.KeepAlive(b)
}

// TestCGAllocBudget pins the garbage of the benchmark's lib_cg_small op
// — a warm 8-iteration CG on 1024 rows and two CPU processors, 42
// launches carrying 68 tasks: ROADMAP item 3's bar is 1000 allocations
// (1772 at c3cb4f9); the budget here is what the launch path now needs
// plus slack for sync.Pool misses.
func TestCGAllocBudget(t *testing.T) {
	m := machine.Summit(1)
	rt := legion.NewRuntime(m, m.Select(machine.CPU, 2))
	t.Cleanup(rt.Shutdown)
	a := core.Poisson2D(rt, 32)
	b := onesB(rt, 32*32)
	solve := func() { CG(a, b, 8, 0).X.Destroy() }
	for i := 0; i < 3; i++ {
		solve()
	}
	if got := testing.AllocsPerRun(20, solve); got > 500 {
		t.Errorf("warm 8-iteration CG: %v allocs, budget 500", got)
	}
}
