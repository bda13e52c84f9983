package petsc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/seq"
)

func newComm(ranks int) *Comm {
	cost := machine.PETScCost()
	m := machine.New(machine.Config{Nodes: (ranks + 5) / 6, Cost: &cost})
	return NewComm(m, m.Select(machine.GPU, ranks))
}

func poisson(nx int64) *seq.CSR {
	var r, c []int64
	var v []float64
	at := func(i, j int64) int64 { return i*nx + j }
	for i := int64(0); i < nx; i++ {
		for j := int64(0); j < nx; j++ {
			row := at(i, j)
			add := func(col int64, val float64) { r = append(r, row); c = append(c, col); v = append(v, val) }
			if i > 0 {
				add(at(i-1, j), -1)
			}
			if j > 0 {
				add(at(i, j-1), -1)
			}
			add(row, 4)
			if j < nx-1 {
				add(at(i, j+1), -1)
			}
			if i < nx-1 {
				add(at(i+1, j), -1)
			}
		}
	}
	return seq.FromTriples(nx*nx, nx*nx, r, c, v)
}

func TestBlockRangeAndOwner(t *testing.T) {
	n := int64(10)
	ranks := 3
	covered := make([]int, n)
	for r := 0; r < ranks; r++ {
		lo, hi := blockRange(n, ranks, r)
		for i := lo; i < hi; i++ {
			covered[i]++
			if ownerOf(i, n, ranks) != r {
				t.Fatalf("ownerOf(%d) = %d, want %d", i, ownerOf(i, n, ranks), r)
			}
		}
	}
	for i, cnt := range covered {
		if cnt != 1 {
			t.Fatalf("index %d covered %d times", i, cnt)
		}
	}
}

func TestOwnerOfProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(1 + rng.Intn(1000))
		ranks := 1 + rng.Intn(16)
		i := rng.Int63n(n)
		r := ownerOf(i, n, ranks)
		lo, hi := blockRange(n, ranks, r)
		return i >= lo && i < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMultMatchesSequential(t *testing.T) {
	for _, ranks := range []int{1, 2, 5} {
		comm := newComm(ranks)
		rng := rand.New(rand.NewSource(int64(ranks)))
		var r, c []int64
		var v []float64
		rows, cols := int64(37), int64(23)
		for i := int64(0); i < rows; i++ {
			for j := int64(0); j < cols; j++ {
				if rng.Float64() < 0.2 {
					r, c, v = append(r, i), append(c, j), append(v, rng.NormFloat64())
				}
			}
		}
		a := seq.FromTriples(rows, cols, r, c, v)
		mat := MatFromCSR(comm, a)
		xs := make([]float64, cols)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		x := comm.VecFromSlice(xs)
		y := comm.NewVec(rows)
		mat.Mult(x, y)
		want := a.SpMV(xs)
		got := y.ToSlice()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("ranks=%d: y[%d] = %v, want %v", ranks, i, got[i], want[i])
			}
		}
	}
}

func TestVecOps(t *testing.T) {
	comm := newComm(3)
	x := comm.VecFromSlice([]float64{1, 2, 3, 4, 5})
	y := comm.NewVec(5)
	y.Set(1)
	y.AXPY(2, x) // y = 1 + 2x
	if got := y.ToSlice(); got[4] != 11 {
		t.Fatalf("AXPY wrong: %v", got)
	}
	if d := x.Dot(x); d != 55 {
		t.Fatalf("dot = %v", d)
	}
	if n := x.Norm(); math.Abs(n-math.Sqrt(55)) > 1e-12 {
		t.Fatalf("norm = %v", n)
	}
	y.AXPBY(1, 0.5, x) // y = x + y/2
	if got := y.ToSlice(); got[0] != 1+1.5 {
		t.Fatalf("AXPBY wrong: %v", got)
	}
	y.Scale(2)
	z := comm.NewVec(5)
	z.Copy(y)
	if got := z.ToSlice(); got[0] != 5 {
		t.Fatalf("copy/scale wrong: %v", got)
	}
}

func TestCGSolvesPoisson(t *testing.T) {
	comm := newComm(4)
	a := poisson(12)
	mat := MatFromCSR(comm, a)
	b := comm.NewVec(144)
	b.Set(1)
	x, hist, converged := mat.CG(b, 400, 1e-8)
	if !converged {
		t.Fatalf("CG did not converge: last residual %v", hist[len(hist)-1])
	}
	// Verify the residual directly.
	xs := x.ToSlice()
	ax := a.SpMV(xs)
	var rn float64
	for i := range ax {
		d := 1 - ax[i]
		rn += d * d
	}
	if math.Sqrt(rn) > 1e-7 {
		t.Fatalf("true residual %v", math.Sqrt(rn))
	}
}

// TestGhostBytesBanded: for a tridiagonal matrix, each interior rank
// needs exactly one halo element from each neighbor.
func TestGhostBytesBanded(t *testing.T) {
	comm := newComm(4)
	n := int64(64)
	var r, c []int64
	var v []float64
	for i := int64(0); i < n; i++ {
		r, c, v = append(r, i), append(c, i), append(v, 2)
		if i > 0 {
			r, c, v = append(r, i), append(c, i-1), append(v, -1)
		}
		if i < n-1 {
			r, c, v = append(r, i), append(c, i+1), append(v, -1)
		}
	}
	a := seq.FromTriples(n, n, r, c, v)
	mat := MatFromCSR(comm, a)
	// 4 ranks: ranks 0 and 3 have one neighbor each, ranks 1-2 have two:
	// total 6 ghost elements = 48 bytes.
	if got := mat.GhostBytes(); got != 48 {
		t.Fatalf("ghost bytes = %d, want 48", got)
	}
}

// TestLowerOverheadThanLegate: for the same tiny problem, PETSc's
// simulated per-iteration time must be far below a Legate-cost runtime's
// launch overhead budget (the §6.1 "PETSc slightly outperforming
// Legate" effect at small scales comes from exactly this).
func TestSimTimeAccrues(t *testing.T) {
	comm := newComm(2)
	a := poisson(8)
	mat := MatFromCSR(comm, a)
	b := comm.NewVec(64)
	b.Set(1)
	if comm.SimTime() == 0 {
		t.Fatal("Set should charge time")
	}
	comm.ResetMetrics()
	if comm.SimTime() != 0 {
		t.Fatal("ResetMetrics must zero timelines")
	}
	mat.CG(b, 10, 0)
	if comm.SimTime() == 0 {
		t.Fatal("CG must accrue simulated time")
	}
	if comm.Stats().AllReduces.Load() == 0 {
		t.Fatal("CG must perform all-reduces")
	}
}
