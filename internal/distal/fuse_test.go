package distal

import (
	"math/rand"
	"testing"

	"repro/internal/geometry"
)

// TestComposeKernelsSpMVRowSum fuses spmv (y = A x) with row_sum over y
// interpreted as a 1-nnz-per-row CSR — the producer–consumer pattern the
// runtime's SpMVRowSumInto fast path uses — and checks the composition
// matches running the stages separately.
func TestComposeKernelsSpMVRowSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const rows, cols = 40, 30
	A, _ := randomCSR(rng, rows, cols, 0.2)
	x := denseVec(rng, cols)

	spmv := Standard.MustLookup("spmv", CSR, CPUThread)
	rowSum := Standard.MustLookup("row_sum", CSR, CPUThread)

	// Reference: two separate dispatches.
	yRef := make([]float64, rows)
	spmv.Exec(&Args{Ops: map[string]*Operand{
		"y": {Vals: yRef}, "A": A, "x": x,
	}, Lo: 0, Hi: rows - 1})

	// Fused: spmv writes y, then a second stage scales it via the same
	// loop template; Bind renames the fused launch's operands into the
	// names each compiled stage closed over.
	y := make([]float64, rows)
	s := make([]float64, rows)
	yAsCSR := vecAsCSR(y)
	fused := ComposeKernels("spmv+row_sum",
		Stage{K: spmv, Bind: func(a *Args) *Args {
			return &Args{Ops: map[string]*Operand{
				"y": a.Ops["y"], "A": a.Ops["A"], "x": a.Ops["x"],
			}, Lo: a.Lo, Hi: a.Hi}
		}},
		Stage{K: rowSum, Bind: func(a *Args) *Args {
			return &Args{Ops: map[string]*Operand{
				"y": a.Ops["s"], "A": yAsCSR,
			}, Lo: a.Lo, Hi: a.Hi}
		}},
	)
	if fused.Pattern != "composed" || fused.Target != CPUThread {
		t.Fatalf("fused kernel metadata wrong: %q/%v", fused.Pattern, fused.Target)
	}
	fused.Exec(&Args{Ops: map[string]*Operand{
		"y": {Vals: y}, "A": A, "x": x, "s": {Vals: s},
	}, Lo: 0, Hi: rows - 1})

	if !approxEqual(y, yRef, 1e-12) {
		t.Fatalf("fused spmv output differs:\n got %v\nwant %v", y, yRef)
	}
	// row_sum of the 1-per-row CSR view of y is y itself.
	if !approxEqual(s, yRef, 1e-12) {
		t.Fatalf("fused row_sum output differs:\n got %v\nwant %v", s, yRef)
	}
}

// vecAsCSR views a dense vector as a diagonal-free CSR with one stored
// value per row, so row-oriented kernels can consume it.
func vecAsCSR(v []float64) *Operand {
	op := &Operand{Vals: v, Crd: make([]int64, len(v))}
	for i := range v {
		op.Crd[i] = int64(i)
		op.Pos = append(op.Pos, geometry.NewRect(int64(i), int64(i)))
	}
	return op
}

func TestComposeKernelsNilBindPassesThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const rows, cols = 16, 16
	A, _ := randomCSR(rng, rows, cols, 0.3)
	x := denseVec(rng, cols)
	spmv := Standard.MustLookup("spmv", CSR, CPUThread)

	yRef := make([]float64, rows)
	spmv.Exec(&Args{Ops: map[string]*Operand{"y": {Vals: yRef}, "A": A, "x": x}, Lo: 0, Hi: rows - 1})

	// Running spmv twice with identical bindings is idempotent.
	y := make([]float64, rows)
	twice := ComposeKernels("spmv^2", Stage{K: spmv}, Stage{K: spmv})
	twice.Exec(&Args{Ops: map[string]*Operand{"y": {Vals: y}, "A": A, "x": x}, Lo: 0, Hi: rows - 1})
	if !approxEqual(y, yRef, 1e-12) {
		t.Fatalf("nil-Bind composition differs: %v vs %v", y, yRef)
	}
}

func TestComposeKernelsRejectsBadInputs(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("no stages", func() { ComposeKernels("empty") })
	cpu := Standard.MustLookup("spmv", CSR, CPUThread)
	gpu := Standard.MustLookup("spmv", CSR, GPUThread)
	mustPanic("mixed targets", func() {
		ComposeKernels("mixed", Stage{K: cpu}, Stage{K: gpu})
	})
}
