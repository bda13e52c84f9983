package legion_test

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/fault"
	"repro/internal/legion"
)

// elementwise launches dst[i] = f(i, dst[i], srcs[0][i], srcs[1][i]...)
// over a block partition of dst, reducing the sum of the new dst. A
// non-nil gate holds every point until it is closed.
func elementwise(rt *legion.Runtime, dst *legion.Region, priv legion.Privilege, gate chan struct{},
	f func(i int64, d float64, s []float64) float64, srcs ...*legion.Region) *legion.Future {
	blocks := rt.BlockPartition(dst, rt.LaunchDomain())
	l := rt.NewLaunch("elementwise", rt.LaunchDomain(), func(tc *legion.TaskContext) {
		if gate != nil {
			<-gate
		}
		d := tc.Float64(0)
		in := make([][]float64, len(srcs))
		for k := range srcs {
			in[k] = tc.Float64(k + 1)
		}
		s := make([]float64, len(srcs))
		var sum float64
		for _, r := range tc.Subspace(0).Rects() {
			for i := r.Lo; i <= r.Hi; i++ {
				for k := range in {
					s[k] = in[k][i]
				}
				d[i] = f(i, d[i], s)
				sum += d[i]
			}
		}
		tc.Reduce(sum)
	})
	l.Add(dst, blocks, priv)
	for _, src := range srcs {
		l.Add(src, rt.AlignedPartition(blocks, src), legion.ReadOnly)
	}
	return l.Execute()
}

func ramp(n int64, scale float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = scale * float64(i%17+1)
	}
	return v
}

// queuedDestroy destroys a region while a launch that reads it waits in
// a worker's queue behind a held launch, then creates regions of the
// same size, one before the held launch is released and one after the
// fence: the first must not get the destroyed region's storage, the
// second may.
func queuedDestroy(t *testing.T, rt *legion.Runtime) ([][]float64, []float64) {
	const n = 1 << 16 // over the parallel grain: the launches queue
	x := rt.CreateRegion("x", n, legion.Float64)
	r := rt.CreateFloat64("r", ramp(n, 0.5))
	y := rt.CreateRegion("y", n, legion.Float64)
	gate := make(chan struct{})
	var futs []*legion.Future
	futs = append(futs, elementwise(rt, x, legion.WriteDiscard, gate,
		func(i int64, _ float64, _ []float64) float64 { return float64(i%5) + 1 }))
	futs = append(futs, elementwise(rt, y, legion.WriteDiscard, nil,
		func(_ int64, _ float64, s []float64) float64 { return s[0] * s[1] }, x, r))
	rt.Destroy(r)
	s := rt.CreateFloat64("s", ramp(n, -3))
	futs = append(futs, elementwise(rt, s, legion.ReadWrite, nil,
		func(_ int64, d float64, _ []float64) float64 { return 2 * d }))
	z := rt.CreateRegion("z", n, legion.Float64)
	close(gate)
	data := legion.Contents(rt, y, s, z)
	w := rt.CreateRegion("w", n, legion.Float64)
	futs = append(futs, elementwise(rt, w, legion.ReadWrite, nil,
		func(_ int64, d float64, s []float64) float64 { return d + s[0] }, y))
	data = append(data, legion.Contents(rt, w)...)
	var futures []float64
	for _, f := range futs {
		futures = append(futures, f.Get())
	}
	for _, reg := range []*legion.Region{x, y, s, z, w} {
		rt.Destroy(reg)
	}
	return data, futures
}

// destroyThenReplay runs rounds of four launches under checkpointing
// every eight, destroying a region mid-round and creating one of its
// size right after; the point faults fall after the destroy in the same
// epoch, so recovery restores and replays launches that write the
// destroyed region.
func destroyThenReplay(t *testing.T, rt *legion.Runtime) ([][]float64, []float64) {
	const n = 1 << 10
	rt.EnableCheckpointing(8)
	rt.SetFaultInjector(fault.New(7).KillPoint(4, 0).KillPoint(15, 1))
	acc := rt.CreateRegion("acc", n, legion.Float64)
	var data [][]float64
	var futures []float64
	for round := 0; round < 6; round++ {
		r := rt.CreateRegion("r", n, legion.Float64)
		c := float64(round + 1)
		futures = append(futures, elementwise(rt, r, legion.WriteDiscard, nil,
			func(i int64, _ float64, _ []float64) float64 { return c * float64(i%7) }).Get())
		elementwise(rt, acc, legion.ReadWrite, nil,
			func(_ int64, d float64, s []float64) float64 { return d/2 + s[0] }, r)
		rt.Destroy(r)
		s := rt.CreateFloat64("s", ramp(n, c))
		elementwise(rt, s, legion.ReadWrite, nil,
			func(_ int64, d float64, _ []float64) float64 { return d + 1 })
		futures = append(futures, elementwise(rt, acc, legion.ReadWrite, nil,
			func(_ int64, d float64, s []float64) float64 { return d - s[0]/8 }, s).Get())
		data = append(data, legion.Contents(rt, s)...)
		rt.Destroy(s)
	}
	data = append(data, legion.Contents(rt, acc)...)
	return data, futures
}

// twiceHalo runs the halo stream twice, the second time on the storage
// of the first run's vectors.
func twiceHalo(t *testing.T, rt *legion.Runtime) ([][]float64, []float64) {
	data, futures := legion.HaloStream(6)(t, rt)
	d, f := legion.HaloStream(6)(t, rt)
	return append(data, d...), append(futures, f...)
}

// holdSpares stops collections until the test ends: the pool holds its
// spares weakly, and a collection between a Destroy and the next
// CreateRegion frees the spare the test means to see reused.
func holdSpares(t *testing.T) {
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gc) })
}

// TestStorageReuseIsExact: handing destroyed regions' and snapshots'
// storage to later regions (storage.go) changes nothing anyone can
// observe. Each stream runs at both runtime shapes with reuse on and
// off, and the two runs must agree on their whole Outcome. The reusing
// run must have reused storage.
// A buffer handed out while a queued launch still reads its region
// (queued-destroy), or while recovery may still replay a launch writing
// it (destroy-replay, rate-faults), changes contents or fails the run.
func TestStorageReuseIsExact(t *testing.T) {
	holdSpares(t)
	exactlyAlike(t, func(s exactStream) bool { return s.reuse }, legion.SetStorageReuse, func(on, off *legion.Runtime) error {
		if a, b := legion.StorageReuses(on), legion.StorageReuses(off); a == 0 || b != 0 {
			return fmt.Errorf("reuse on reused %d buffers, reuse off %d", a, b)
		}
		return nil
	})
}

// TestDestroyedRegionGivesUpStorage: once a destroyed region's storage
// has gone to a new region, the old region holds none of it, so no host
// read or stray launch through it can reach the new region's data.
func TestDestroyedRegionGivesUpStorage(t *testing.T) {
	holdSpares(t)
	rt := shapeRuntime(t, shapes[0].mach, shapes[0].procs)
	old := rt.CreateFloat64("old", ramp(1000, 1))
	rt.Destroy(old)
	before := legion.StorageReuses(rt)
	fresh := rt.CreateRegion("new", 1000, legion.Float64)
	if legion.StorageReuses(rt) != before+1 {
		t.Fatal("the new region did not reuse the destroyed one's storage")
	}
	if got := old.Float64s(); got != nil {
		t.Errorf("the destroyed region still holds %d elements of storage now the new region's", len(got))
	}
	for i, v := range fresh.Float64s() {
		if v != 0 {
			t.Fatalf("reused storage not cleared: element %d is %v", i, v)
		}
	}
}

// TestStoragePoolBounded: destroying regions of many sizes leaves at
// most MaxStorageSpares spare buffers and MaxStorageBytes spare bytes.
func TestStoragePoolBounded(t *testing.T) {
	rt := shapeRuntime(t, shapes[0].mach, shapes[0].procs)
	mb := int64(1 << 17) // elements in one MiB
	for _, size := range []struct{ count, elems int64 }{
		{2 * legion.MaxStorageSpares, 64},            // many small: the count binds
		{legion.MaxStorageBytes/(3<<20) + 2, 3 * mb}, // few large: the bytes bind
	} {
		for i := int64(0); i < size.count; i++ {
			rt.Destroy(rt.CreateRegion("churn", size.elems+i, legion.Float64))
		}
		rt.Fence()
		n, b := legion.StorageSpares(rt)
		if n > legion.MaxStorageSpares || b > legion.MaxStorageBytes {
			t.Errorf("%d regions of about %d elements destroyed: %d spares of %d bytes, bounds %d and %d",
				size.count, size.elems, n, b, legion.MaxStorageSpares, legion.MaxStorageBytes)
		}
		if n == 0 {
			t.Errorf("%d regions of about %d elements destroyed: no spares kept", size.count, size.elems)
		}
	}
}

// TestStoragePoolDroppedAtShutdown: a runtime keeps no spare storage
// past Shutdown, also of regions destroyed after it.
func TestStoragePoolDroppedAtShutdown(t *testing.T) {
	rt := shapeRuntime(t, shapes[0].mach, shapes[0].procs)
	a := core.Poisson2D(rt, 16)
	b := cunumeric.Full(rt, 16*16, 1)
	cgSolve(a, b).X.Destroy()
	rt.Fence()
	if n, _ := legion.StorageSpares(rt); n == 0 {
		t.Fatal("a solve left no spare storage: nothing to drop")
	}
	rt.Shutdown()
	b.Destroy()
	rt.Fence()
	if n, bytes := legion.StorageSpares(rt); n != 0 || bytes != 0 {
		t.Errorf("after Shutdown: %d spares of %d bytes", n, bytes)
	}
}
