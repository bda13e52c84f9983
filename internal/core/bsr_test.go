package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cunumeric"
)

func TestBSRRoundTrip(t *testing.T) {
	rt := newRT(t, 2)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int64(4 + rng.Intn(28))
		cols := int64(4 + rng.Intn(28))
		bs := int64(1 + rng.Intn(4))
		a := Random(rt, rows, cols, 0.25, uint64(seed))
		bsr := a.ToBSR(bs)
		back := bsr.ToCSR()
		// The BSR form pads dimensions up to block multiples; compare on
		// the original extent.
		ad := a.ToDense()
		bd := back.ToDense()
		_, bCols := back.Shape()
		for i := int64(0); i < rows; i++ {
			for j := int64(0); j < cols; j++ {
				if ad[i*cols+j] != bd[i*bCols+j] {
					return false
				}
			}
		}
		// Padding must be all zero.
		bRows, _ := back.Shape()
		for i := int64(0); i < bRows; i++ {
			for j := int64(0); j < bCols; j++ {
				if (i >= rows || j >= cols) && bd[i*bCols+j] != 0 {
					return false
				}
			}
		}
		a.Destroy()
		bsr.Destroy()
		back.Destroy()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBSRSpMVMatchesCSR(t *testing.T) {
	for _, procs := range []int{1, 4} {
		rt := newRT(t, procs)
		rng := rand.New(rand.NewSource(int64(procs)))
		rows, cols, bs := int64(36), int64(24), int64(3)
		a := Random(rt, rows, cols, 0.2, 5)
		bsr := a.ToBSR(bs)
		if r, c := bsr.Shape(); r != rows || c != cols {
			t.Fatalf("block-aligned dims changed: %dx%d", r, c)
		}
		xs := randVec(rng, cols)
		x := cunumeric.FromSlice(rt, xs)
		want := a.SpMV(x).ToSlice()
		got := bsr.SpMV(x).ToSlice()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("procs=%d: BSR SpMV[%d] = %v, want %v", procs, i, got[i], want[i])
			}
		}
	}
}

func TestBSRBlockCounting(t *testing.T) {
	rt := newRT(t, 1)
	// A 4x4 matrix with entries only in the top-left 2x2 tile.
	a := FromDense(rt, 4, 4, []float64{
		1, 2, 0, 0,
		3, 4, 0, 0,
		0, 0, 0, 0,
		0, 0, 0, 0,
	})
	bsr := a.ToBSR(2)
	if bsr.NNZBlocks() != 1 {
		t.Fatalf("blocks = %d, want 1", bsr.NNZBlocks())
	}
	if bsr.NNZ() != 4 {
		t.Fatalf("stored values = %d, want 4", bsr.NNZ())
	}
	bsr.Scale(2)
	d := bsr.ToCSR().ToDense()
	if d[0] != 2 || d[5] != 8 {
		t.Fatalf("scale wrong: %v", d[:6])
	}
}

func TestBSRPadding(t *testing.T) {
	rt := newRT(t, 1)
	// 5x5 with block size 2 pads to 6x6.
	a := Eye(rt, 5)
	bsr := a.ToBSR(2)
	if r, c := bsr.Shape(); r != 6 || c != 6 {
		t.Fatalf("padded shape = %dx%d, want 6x6", r, c)
	}
	x := cunumeric.FromSlice(rt, []float64{1, 2, 3, 4, 5, 6})
	y := bsr.SpMV(x).ToSlice()
	want := []float64{1, 2, 3, 4, 5, 0} // padded row multiplies by zero block row
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

// TestBSRPartitionsBuiltOnce: BSR states its partitions as block-width
// alignment and image edges, which the runtime caches like CSR's, so a
// second SpMV into the same y finds y's partition object unchanged and
// builds no image.
func TestBSRPartitionsBuiltOnce(t *testing.T) {
	rt := newRT(t, 3)
	a := Random(rt, 24, 18, 0.2, 7)
	bsr := a.ToBSR(3)
	x := cunumeric.FromSlice(rt, randVec(rand.New(rand.NewSource(2)), 18))
	y := cunumeric.Zeros(rt, 24)
	bsr.SpMVInto(y, x)
	first := y.Region().KeyPartition()
	builds := rt.CacheStats().ImageBuilds
	bsr.SpMVInto(y, x)
	if got := y.Region().KeyPartition(); got != first {
		t.Fatalf("y's key partition changed between launches: %v, then %v", first, got)
	}
	if n := rt.CacheStats().ImageBuilds - builds; n != 0 {
		t.Fatalf("the second launch built %d images, want 0", n)
	}
	want := a.SpMV(x).ToSlice()
	if got := y.ToSlice(); !approx(got, want, 1e-12) {
		t.Fatalf("BSR SpMV = %v, want %v", got, want)
	}
}
