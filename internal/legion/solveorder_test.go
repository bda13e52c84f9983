package legion_test

import (
	"testing"

	"repro/internal/constraint"
	"repro/internal/legion"
	"repro/internal/machine"
)

// TestRootClassesMintPartitionsInVarOrder: a task with two independent
// alignment classes over fresh regions has the runtime mint one block
// partition — and so one new coloring — per class. Which class goes
// first must be a function of the task (its var order), not of a map's
// iteration order, or coloring numbers, image-cache keys and everything
// that prints them would differ from run to run. Fifty fresh runtimes
// must all number the first class's coloring 1 and the second's 2.
func TestRootClassesMintPartitionsInVarOrder(t *testing.T) {
	m := machine.Summit(1)
	for run := 0; run < 50; run++ {
		rt := legion.NewRuntime(m, m.Select(machine.GPU, 2))
		outA, inA := rt.CreateRegion("outA", 64, legion.Float64), rt.CreateRegion("inA", 64, legion.Float64)
		outB, inB := rt.CreateRegion("outB", 96, legion.Float64), rt.CreateRegion("inB", 96, legion.Float64)
		task := constraint.NewTask(rt, "two-classes", func(*legion.TaskContext) {})
		vOutA, vOutB := task.AddOutput(outA), task.AddOutput(outB)
		task.Align(task.AddInput(inB), vOutB).Align(task.AddInput(inA), vOutA)
		task.Execute()
		rt.Fence()
		a, b := legion.ColoringOf(outA.KeyPartition()), legion.ColoringOf(outB.KeyPartition())
		rt.Shutdown()
		if a != 1 || b != 2 {
			t.Fatalf("run %d: colorings of the first and second class = %d, %d, want 1, 2", run, a, b)
		}
	}
}
