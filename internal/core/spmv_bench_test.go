package core

import (
	"math/rand"
	"testing"

	"repro/internal/cunumeric"
	"repro/internal/distal"
	"repro/internal/geometry"
)

// TestSpMVRowSumMatchesSeparate: the composed spmv+row_sum launch must
// equal running SpMV and SumAxis1 as separate operations.
func TestSpMVRowSumMatchesSeparate(t *testing.T) {
	for _, gpus := range []int{1, 3} {
		rt := newRT(t, gpus)
		rng := rand.New(rand.NewSource(11))
		a := Random(rt, 60, 45, 0.15, 3)
		x := cunumeric.FromSlice(rt, randVec(rng, 45))

		yRef := a.SpMV(x).ToSlice()
		sRef := a.SumAxis1().ToSlice()

		y := cunumeric.Zeros(rt, 60)
		s := cunumeric.Zeros(rt, 60)
		a.SpMVRowSumInto(y, s, x)
		if got := y.ToSlice(); !approx(got, yRef, 1e-12) {
			t.Fatalf("gpus=%d: fused spmv differs:\n got %v\nwant %v", gpus, got, yRef)
		}
		if got := s.ToSlice(); !approx(got, sRef, 1e-12) {
			t.Fatalf("gpus=%d: fused row_sum differs:\n got %v\nwant %v", gpus, got, sRef)
		}
	}
}

// tinyCSRArgs builds a small raw CSR operand set for exercising the
// kernel argument pack outside the runtime.
func tinyCSRArgs(rows int64) (pos []geometry.Rect, crd []int64, vals, x, y []float64) {
	pos = make([]geometry.Rect, rows)
	for i := int64(0); i < rows; i++ {
		pos[i] = geometry.NewRect(i, i) // one diagonal entry per row
		crd = append(crd, i)
		vals = append(vals, float64(i+1))
	}
	x = make([]float64, rows)
	y = make([]float64, rows)
	for i := range x {
		x[i] = 1
	}
	return
}

// TestSpMVScratchAllocFree: the pooled argument pack makes the per-point
// kernel invocation allocation-free in steady state.
func TestSpMVScratchAllocFree(t *testing.T) {
	k := distal.Standard.MustLookup("spmv", distal.CSR, distal.CPUThread)
	pos, crd, vals, x, y := tinyCSRArgs(32)
	allocs := testing.AllocsPerRun(200, func() {
		s := getSpMVScratch()
		s.y.Vals = y
		s.A.Pos, s.A.Crd, s.A.Vals = pos, crd, vals
		s.x.Vals = x
		s.args.Lo, s.args.Hi = 0, 31
		k.Exec(&s.args)
		s.release()
	})
	// Allow 1 for pool jitter under the race detector; the old inline
	// construction was 5+ per invocation.
	if allocs > 1 {
		t.Fatalf("pooled SpMV arg pack allocates %.0f objects/op, want <= 1", allocs)
	}
}

// TestPlanKernelAllocFree: resolving a format's kernel slot — done on
// every SpMV launch — builds no key string; the registry is keyed on a
// comparable struct. It was 6 allocations per lookup.
func TestPlanKernelAllocFree(t *testing.T) {
	rt := newRT(t, 1)
	for _, spec := range []*FormatSpec{CSRSpec, CSCSpec, COOSpec, DIASpec, BSRSpec} {
		if _, ok := planKernel(rt, "spmv", spec.Distal); !ok {
			t.Fatalf("no spmv kernel for %v", spec.Distal)
		}
		if allocs := testing.AllocsPerRun(100, func() { planKernel(rt, "spmv", spec.Distal) }); allocs != 0 {
			t.Errorf("planKernel(spmv, %v): %v allocs, want 0", spec.Distal, allocs)
		}
	}
}

// BenchmarkSpMVArgs compares the pooled argument pack against the
// previous inline construction (fresh Args + Ops map + Operands per
// point task). Run with -benchmem: pooled is 0 B/op, fresh is not.
func BenchmarkSpMVArgs(b *testing.B) {
	k := distal.Standard.MustLookup("spmv", distal.CSR, distal.CPUThread)
	pos, crd, vals, x, y := tinyCSRArgs(64)
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := getSpMVScratch()
			s.y.Vals = y
			s.A.Pos, s.A.Crd, s.A.Vals = pos, crd, vals
			s.x.Vals = x
			s.args.Lo, s.args.Hi = 0, 63
			k.Exec(&s.args)
			s.release()
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			args := &distal.Args{
				Ops: map[string]*distal.Operand{
					"y": {Vals: y},
					"A": {Pos: pos, Crd: crd, Vals: vals},
					"x": {Vals: x},
				},
				Lo: 0, Hi: 63,
			}
			k.Exec(args)
		}
	})
}

// BenchmarkCSRSpMV measures a full runtime SpMV launch end to end, with
// allocation reporting covering launch construction, constraint solving,
// and the pooled kernel dispatch.
func BenchmarkCSRSpMV(b *testing.B) {
	rt := newRT(b, 2)
	a := Random(rt, 2000, 2000, 0.01, 5)
	x := cunumeric.FromSlice(rt, randVec(rand.New(rand.NewSource(6)), 2000))
	y := cunumeric.Zeros(rt, 2000)
	a.SpMVInto(y, x) // warm partitions and images
	rt.Fence()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SpMVInto(y, x)
	}
	rt.Fence()
}
