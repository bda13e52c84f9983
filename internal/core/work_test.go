package core

import (
	"math/rand"
	"testing"

	"repro/internal/cunumeric"
	"repro/internal/geometry"
	"repro/internal/prof"
)

// TestDeclaredWork: every sparse launch declares its per-point work as a
// subspace the constraint solve has already computed, and the runtime
// charges exactly that. The work each point's span carries must equal a
// count taken straight from the matrix data — the nonzeros of the point's
// row or column block, its entries, rows × diagonals (two of them clipped
// at the matrix edge), stored blocks × bs², times the dense width for
// SpMM and SDDMM, twice for the fused spmv+row_sum. The middle row block
// holds no nonzeros, so it charges its default: the size of its first
// written subspace.
func TestDeclaredWork(t *testing.T) {
	const n, kk, bs = 30, 4, 2
	rt := newRT(t, 3)
	rt.SetFusionWindow(0)
	sink := prof.NewSink(0)
	rt.EnableProfiling(sink)

	rng := rand.New(rand.NewSource(5))
	var r, c []int64
	var v []float64
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			if (i < 10 || i >= 20) && rng.Float64() < 0.2 {
				r, c, v = append(r, i), append(c, j), append(v, rng.NormFloat64())
			}
		}
	}
	a := FromTriples(rt, n, n, r, c, v)
	tiles := geometry.Tile(geometry.NewRect(0, n-1), 3)
	count := func(in func(i, j int64) bool) int64 {
		var k int64
		for e := range r {
			if in(r[e], c[e]) {
				k++
			}
		}
		return k
	}
	rowNNZ := func(p int) int64 { return count(func(i, _ int64) bool { return tiles[p].Contains(i) }) }
	colNNZ := func(p int) int64 { return count(func(_, j int64) bool { return tiles[p].Contains(j) }) }
	orRows := func(w int64, p int) int64 {
		if w == 0 {
			return tiles[p].Size()
		}
		return w
	}

	// lastLaunch returns the work of each point of the latest launch of task.
	lastLaunch := func(task string) []int64 {
		rt.Fence()
		var seq int64
		spans := sink.Snapshot().Spans
		for _, sp := range spans {
			if sp.Task == task {
				seq = max(seq, sp.Launch)
			}
		}
		work := make([]int64, 3)
		for _, sp := range spans {
			if sp.Task == task && sp.Launch == seq {
				work[sp.Point] = sp.Work
			}
		}
		return work
	}
	check := func(task string, want func(p int) int64) {
		t.Helper()
		got := lastLaunch(task)
		for p := range got {
			if got[p] != want(p) {
				t.Errorf("%s point %d: work %d, want %d", task, p, got[p], want(p))
			}
		}
	}

	x := cunumeric.FromSlice(rt, randVec(rng, n))
	y := cunumeric.Zeros(rt, n)
	s := cunumeric.Zeros(rt, n)
	a.SpMVInto(y, x)
	check("sparse.spmv", func(p int) int64 { return orRows(rowNNZ(p), p) })
	a.SumAxis1()
	check("sparse.row_sum", func(p int) int64 { return orRows(rowNNZ(p), p) })
	a.SpMVRowSumInto(y, s, x)
	check("sparse.spmv_rowsum", func(p int) int64 { return orRows(2*rowNNZ(p), p) })
	a.SumAxis0()
	check("sparse.col_sum", rowNNZ)

	xm := cunumeric.MatrixFromSlice(rt, n, kk, randVec(rng, n*kk))
	a.SpMM(xm)
	check("sparse.spmm", func(p int) int64 { return kk * orRows(rowNNZ(p), p) })
	a.SDDMM(xm, xm)
	check("sparse.sddmm", func(p int) int64 { return kk * rowNNZ(p) })

	a.ToCSC().SpMVInto(y, x)
	check("sparse.spmv_csc", colNNZ)

	coo := a.ToCOO()
	coo.SpMVInto(y, x)
	entries := geometry.Tile(geometry.NewRect(0, int64(len(r))-1), 3)
	check("sparse.spmv_coo", func(p int) int64 { return entries[p].Size() })

	a.ToBSR(bs).SpMVInto(y, x)
	blockTiles := geometry.Tile(geometry.NewRect(0, n/bs-1), 3)
	check("sparse.spmv_bsr", func(p int) int64 {
		blocks := map[[2]int64]bool{}
		for e := range r {
			if blockTiles[p].Contains(r[e] / bs) {
				blocks[[2]int64{r[e] / bs, c[e] / bs}] = true
			}
		}
		if len(blocks) == 0 {
			return blockTiles[p].Size() * bs // y's element rows
		}
		return int64(len(blocks)) * bs * bs
	})

	offsets := []int64{-25, -1, 0, 2, 28}
	dia := NewDIA(rt, n, n, offsets, randVec(rng, int64(len(offsets))*n))
	dia.SpMVInto(y, x)
	check("sparse.spmv_dia", func(p int) int64 { return tiles[p].Size() * int64(len(offsets)) })

	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
}
