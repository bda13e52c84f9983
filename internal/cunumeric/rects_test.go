package cunumeric

import (
	"math"
	"testing"

	"repro/internal/geometry"
	"repro/internal/legion"
)

// TestKernelsOverMultiIntervalSubspaces runs AXPY, AXPBY, Dot, Copy,
// Fill and Scale through a partition whose every point subspace holds
// three intervals with gaps between them, and checks each against a
// per-index reference bit for bit. The gaps hold values no kernel may
// read or write: a loop that ran from one interval into the next would
// change them, or change the dot product.
func TestKernelsOverMultiIntervalSubspaces(t *testing.T) {
	rt := newRT(t, 2)
	const n = 50
	subs := []geometry.IntervalSet{
		geometry.NewIntervalSet(geometry.NewRect(0, 6), geometry.NewRect(15, 21), geometry.NewRect(33, 40)),
		geometry.NewIntervalSet(geometry.NewRect(8, 13), geometry.NewRect(23, 30), geometry.NewRect(42, 49)),
	}
	covered := func(i int64) bool { return subs[0].Contains(i) || subs[1].Contains(i) }
	negZero := math.Copysign(0, -1)

	// array makes an array of f(i) on the covered indices and 1e300 in
	// the gaps, and makes the multi-interval partition its key partition
	// by writing it through that partition once.
	array := func(f func(i int64) float64) (*Array, []float64) {
		v := make([]float64, n)
		for i := range v {
			v[i] = 1e300
			if covered(int64(i)) {
				v[i] = f(int64(i))
			}
		}
		a := FromSlice(rt, v)
		l := rt.NewLaunch("stamp", 2, func(*legion.TaskContext) {})
		l.Add(a.Region(), rt.PartitionBySets(a.Region(), subs), legion.ReadWrite)
		l.Execute()
		return a, v
	}
	check := func(what string, a *Array, want []float64) {
		t.Helper()
		for p := range subs {
			if got := len(a.Region().KeyPartition().Subspace(p).Rects()); got < 2 {
				t.Fatalf("%s: point %d subspace has %d intervals, want ≥ 2", what, p, got)
			}
		}
		for i, g := range a.ToSlice() {
			if math.Float64bits(g) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, want %v", what, i, g, want[i])
			}
		}
	}
	each := func(f func(i int64)) {
		for i := int64(0); i < n; i++ {
			if covered(i) {
				f(i)
			}
		}
	}

	x, xr := array(func(i int64) float64 {
		switch i {
		case 3:
			return negZero
		case 17:
			return 5e-324
		}
		return float64(i%7-3) * 1.37
	})
	y, yr := array(func(i int64) float64 { return 1/float64(i+1) - 0.3 })

	AXPY(0.75, x, y)
	each(func(i int64) { yr[i] += 0.75 * xr[i] })
	check("axpy y", y, yr)

	AXPBY(-1.25, x, 0.5, y)
	each(func(i int64) { yr[i] = -1.25*xr[i] + 0.5*yr[i] })
	check("axpby y", y, yr)

	var dot float64
	for _, s := range subs {
		var part float64
		s.Each(func(i int64) { part += xr[i] * yr[i] })
		dot += part
	}
	if got := Dot(x, y).Get(); math.Float64bits(got) != math.Float64bits(dot) {
		t.Fatalf("dot = %v, want %v", got, dot)
	}

	d, dr := array(func(i int64) float64 { return -float64(i) })
	Copy(d, y)
	each(func(i int64) { dr[i] = yr[i] })
	check("copy d", d, dr)

	f, fr := array(func(i int64) float64 { return float64(i) })
	f.Fill(negZero)
	each(func(i int64) { fr[i] = negZero })
	check("fill", f, fr)

	s, sr := array(func(i int64) float64 {
		switch i {
		case 20:
			return math.Inf(-1)
		case 44:
			return 1e-310
		}
		return float64(i) / 3
	})
	s.Scale(3)
	each(func(i int64) { sr[i] *= 3 })
	check("scale", s, sr)
}

// TestRandomMatrixSeedBits: the seed rides in a float64 scalar by its
// bits, so seeds that differ only above 2^53 give different matrices.
func TestRandomMatrixSeedBits(t *testing.T) {
	rt := newRT(t, 2)
	a := RandomMatrix(rt, 4, 3, 1<<53, 1).ToSlice()
	b := RandomMatrix(rt, 4, 3, 1<<53+1, 1).ToSlice()
	if a[0] == b[0] {
		t.Fatalf("seeds 2^53 and 2^53+1 give the same matrix: %v", a)
	}
}
