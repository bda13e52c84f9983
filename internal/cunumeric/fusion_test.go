package cunumeric

import (
	"testing"

	"repro/internal/legion"
)

// TestAXPYChainFusionIdentical: a solver-style AXPY/Scale chain must be
// bit-identical with the fusion window on (the default) and off.
func TestAXPYChainFusionIdentical(t *testing.T) {
	run := func(window int) []float64 {
		rt := newRT(t, 2)
		rt.SetFusionWindow(window)
		x := Full(rt, 128, 1.25)
		y := Zeros(rt, 128)
		for k := 0; k < 6; k++ {
			AXPY(0.5, x, y)
			y.Scale(0.875)
			x.AddScalar(0.0625)
		}
		return y.ToSlice()
	}
	unfused := run(0)
	fused := run(legion.DefaultWindow)
	for i := range unfused {
		if unfused[i] != fused[i] {
			t.Fatalf("fusion changed AXPY chain at %d: %v vs %v", i, fused[i], unfused[i])
		}
	}
}

// TestAXPYChainActuallyFuses: the FusedAXPY fast path must actually
// form fused groups for back-to-back AXPY launches.
func TestAXPYChainActuallyFuses(t *testing.T) {
	rt := newRT(t, 2)
	x := Full(rt, 64, 1)
	y := Zeros(rt, 64)
	for k := 0; k < 8; k++ {
		AXPY(0.25, x, y)
	}
	rt.Fence()
	groups, members := rt.Profile().FusedLaunchCounts()
	if groups == 0 || members < 8 {
		t.Fatalf("AXPY chain did not fuse: groups=%d members=%d", groups, members)
	}
}

// BenchmarkFusionAXPY measures wall-clock time of the FusedAXPY pattern
// — the launch chain every Krylov solver's vector updates emit — with
// the runtime's fusion window on (default) and off.
func BenchmarkFusionAXPY(b *testing.B) {
	run := func(b *testing.B, window int) {
		rt := newRT(b, 2)
		rt.SetFusionWindow(window)
		x := Full(rt, 1<<12, 1.0)
		y := Zeros(rt, 1<<12)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 8; k++ {
				AXPY(0.125, x, y)
			}
			rt.Fence()
		}
	}
	b.Run("fused", func(b *testing.B) { run(b, legion.DefaultWindow) })
	b.Run("unfused", func(b *testing.B) { run(b, 0) })
}

// TestFusedAXPYWindowAllocBudget pins the garbage of the vector-update
// step of a CG iteration — two AXPYs buffered in the fusion window and
// flushed as one launch: two tasks, two launches, two futures and two
// boxed scalars going in; the fused launch, its member list, its name
// and its launch state coming out. At c3cb4f9 this was 58 allocations, now 13.
func TestFusedAXPYWindowAllocBudget(t *testing.T) {
	rt := newRT(t, 2)
	x, y, z := Full(rt, 1024, 1), Zeros(rt, 1024), Zeros(rt, 1024)
	step := func() {
		AXPY(0.5, x, y)
		AXPY(-0.5, x, z)
		rt.FlushFusion()
	}
	step()
	step()
	groups, _ := rt.Profile().FusedLaunchCounts()
	if got := testing.AllocsPerRun(50, step); got > 16 {
		t.Errorf("fused AXPY+AXPY window: %v allocs, budget 16", got)
	}
	if after, _ := rt.Profile().FusedLaunchCounts(); after-groups != 51 {
		t.Fatalf("%d fused launches over 51 steps: the window no longer fuses the pair", after-groups)
	}
}
