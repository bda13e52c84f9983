package repro_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/distal"
	"repro/internal/geometry"
	"repro/internal/legion"
	"repro/internal/machine"
)

// benchOptions is a reduced sweep so `go test -bench=.` completes in
// minutes; use cmd/legate-bench for the full ladders.
func benchOptions() bench.Options {
	opt := bench.SmallOptions()
	opt.GPUCounts = []int{1, 3, 6}
	opt.CPUCounts = []int{1, 2, 4}
	opt.Runs = 1
	opt.Iters = 3
	return opt
}

// BenchmarkFig8SpMV regenerates the SpMV microbenchmark weak-scaling
// figure (paper Figure 8).
func BenchmarkFig8SpMV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := bench.Fig8SpMV(benchOptions())
		if i == 0 {
			b.Log("\n" + fig.FormatFigure())
		}
	}
}

// BenchmarkFig9CG regenerates the conjugate gradient weak-scaling
// figure (paper Figure 9).
func BenchmarkFig9CG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := bench.Fig9CG(benchOptions())
		if i == 0 {
			b.Log("\n" + fig.FormatFigure())
		}
	}
}

// BenchmarkFig10GMG regenerates the geometric multigrid weak-scaling
// figure (paper Figure 10).
func BenchmarkFig10GMG(b *testing.B) {
	opt := benchOptions()
	opt.UnitsPerProc = 1 << 10 // the GMG driver multiplies units by 8
	for i := 0; i < b.N; i++ {
		fig := bench.Fig10GMG(opt)
		if i == 0 {
			b.Log("\n" + fig.FormatFigure())
		}
	}
}

// BenchmarkFig11Quantum regenerates the quantum simulation weak-scaling
// figure (paper Figure 11).
func BenchmarkFig11Quantum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := bench.Fig11Quantum(benchOptions())
		if i == 0 {
			b.Log("\n" + fig.FormatFigure())
		}
	}
}

// BenchmarkFig12MF regenerates the sparse matrix factorization table
// (paper Figure 12).
func BenchmarkFig12MF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := bench.Fig12MF(benchOptions())
		if i == 0 {
			b.Log("\n" + tab.FormatTable())
		}
	}
}

// benchFormatRT builds the runtime used by the per-format grid: four
// GPU-variety processors of one Summit node, the same configuration the
// figure benchmarks default to.
func benchFormatRT(b *testing.B) *legion.Runtime {
	b.Helper()
	m := machine.Summit(1)
	rt := legion.NewRuntime(m, m.Select(machine.GPU, 4))
	b.Cleanup(rt.Shutdown)
	return rt
}

// benchFormats converts the 2-D Poisson operator (a realistic banded
// matrix every format stores well) into each supported format. The grid
// edge is even so ToBSR does not pad.
func benchFormats(rt *legion.Runtime, nx int64) map[string]core.SparseMatrix {
	a := core.Poisson2D(rt, nx)
	return map[string]core.SparseMatrix{
		"csr":  a,
		"csc":  a.ToCSC(),
		"coo":  a.ToCOO(),
		"dia":  a.ToDIA(),
		"bsr2": a.ToBSR(2),
	}
}

// BenchmarkFormatSpMV times y = A @ x dispatched through the generic
// launch planner for every format. Compare against
// BenchmarkFormatDirectKernel to see what the planner and runtime add
// on top of the raw compiled kernel.
func BenchmarkFormatSpMV(b *testing.B) {
	rt := benchFormatRT(b)
	nx := int64(64)
	n := nx * nx
	x := cunumeric.FromSlice(rt, make([]float64, n))
	x.Fill(1)
	y := cunumeric.Zeros(rt, n)
	for name, m := range benchFormats(rt, nx) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.SpMVInto(y, x)
			}
			rt.Fence()
			b.SetBytes(m.NNZ() * 8)
		})
	}
}

// BenchmarkFormatDirectKernel times the compiled CSR SpMV kernel
// executed directly on host slices — no tasks, no partitioning, no
// planner. The delta between this and BenchmarkFormatSpMV/csr is the
// dispatch overhead the format-generic planner costs per launch.
func BenchmarkFormatDirectKernel(b *testing.B) {
	rt := benchFormatRT(b)
	nx := int64(64)
	n := nx * nx
	a := core.Poisson2D(rt, nx)
	rt.Fence()
	h := a.ExportHost()
	pos := make([]geometry.Rect, n)
	for i := int64(0); i < n; i++ {
		pos[i] = geometry.NewRect(h.Indptr[i], h.Indptr[i+1]-1)
	}
	args := &distal.Args{
		Ops: map[string]*distal.Operand{
			"y": {Vals: make([]float64, n)},
			"A": {Pos: pos, Crd: h.Indices, Vals: h.Data},
			"x": {Vals: make([]float64, n)},
		},
		Lo: 0, Hi: n - 1,
	}
	for i := range args.Ops["x"].Vals {
		args.Ops["x"].Vals[i] = 1
	}
	k := distal.Standard.MustLookup("spmv", distal.CSR, distal.CPUThread)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Exec(args)
	}
	b.SetBytes(a.NNZ() * 8)
}

// BenchmarkFormatSpMM times Y = A @ X (16 dense columns) through the
// generic entry point. Formats without a compiled SpMM variant pay a
// per-call CSR conversion, and the grid makes that cost visible instead
// of hiding it.
func BenchmarkFormatSpMM(b *testing.B) {
	rt := benchFormatRT(b)
	nx := int64(32)
	n := nx * nx
	x := cunumeric.RandomMatrix(rt, n, 16, 7, 1)
	for name, m := range benchFormats(rt, nx) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				y := core.SpMM(m, x)
				y.Destroy()
			}
			rt.Fence()
		})
	}
}
