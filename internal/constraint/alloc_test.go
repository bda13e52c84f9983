package constraint

import (
	"testing"

	"repro/internal/geometry"
	"repro/internal/legion"
)

// addAligned executes c = a + b over three aligned vars.
func addAligned(rt *legion.Runtime, a, b, c *legion.Region) {
	task := NewTask(rt, "add", func(tc *legion.TaskContext) {
		av, bv, cv := tc.Float64(0), tc.Float64(1), tc.Float64(2)
		tc.Subspace(2).Each(func(i int64) { cv[i] = av[i] + bv[i] })
	})
	va, vb, vc := task.AddInput(a), task.AddInput(b), task.AddOutput(c)
	task.Align(va, vc).Align(vb, vc).Execute()
}

// TestTaskExecuteAllocBudget pins the garbage of one warm launch through
// the constraint layer: building the task, solving three aligned vars,
// building and executing the launch (small enough to run on this
// goroutine). At c3cb4f9 this was 25 allocations, and three were left
// (task, launch, launch state) until the task stayed on its builder's
// stack and the launch state moved into the launch: one remains.
func TestTaskExecuteAllocBudget(t *testing.T) {
	rt := newRT(t, 2)
	a, b := rt.CreateFloat64("a", seq(256)), rt.CreateFloat64("b", seq(256))
	c := rt.CreateRegion("c", 256, legion.Float64)
	run := func() { addAligned(rt, a, b, c) }
	run()
	run()
	if got := testing.AllocsPerRun(50, run); got > 1 {
		t.Errorf("warm Task.Execute with three aligned vars: %v allocs, budget 1", got)
	}
	rt.Fence()
	if rt.Err() != nil || c.Float64s()[255] != 2*255 {
		t.Fatalf("Err = %v, c[255] = %v", rt.Err(), c.Float64s()[255])
	}
}

// TestSolveAllocFree: with its partitions cached, solving a task's
// constraints — alignment classes, a broadcast, an image chain —
// allocates nothing: the working state lives in the task's own vars.
func TestSolveAllocFree(t *testing.T) {
	rt := newRT(t, 2)
	pos := rt.CreateRects("pos", posRects(64, 3))
	crd := rt.CreateInt64("crd", make([]int64, 64*3))
	vals := rt.CreateRegion("vals", 64*3, legion.Float64)
	x, y, w := rt.CreateRegion("x", 64, legion.Float64), rt.CreateRegion("y", 64, legion.Float64), rt.CreateRegion("w", 64, legion.Float64)
	scalar, extra := rt.CreateRegion("s", 1, legion.Float64), rt.CreateRegion("e", 64, legion.Float64)

	task := NewTask(rt, "spmv-like", func(*legion.TaskContext) {})
	vy, vw := task.AddOutput(y), task.AddInput(w)
	vpos, vcrd, vvals, vx := task.AddInput(pos), task.AddInput(crd), task.AddInput(vals), task.AddInput(x)
	vs, ve := task.AddInput(scalar), task.AddInput(extra) // eight vars: past the task's own backing array
	task.Align(vy, vpos).Align(vw, vy).Align(ve, vy)
	task.Image(vpos, vcrd, vvals).Image(vcrd, vx).Broadcast(vs)

	task.solve()
	if got := testing.AllocsPerRun(50, task.solve); got != 0 {
		t.Errorf("warm solve over 8 vars: %v allocs, want 0", got)
	}
	for i, v := range task.vars() {
		if v.part == nil || v.part.Region() != v.region {
			t.Fatalf("var %d unresolved after solve: %v", i, v.part)
		}
	}
}

// posRects gives n rows of k entries each.
func posRects(n, k int64) []geometry.Rect {
	out := make([]geometry.Rect, n)
	for i := range out {
		out[i] = geometry.NewRect(int64(i)*k, int64(i)*k+k-1)
	}
	return out
}
