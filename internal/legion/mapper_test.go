package legion

import (
	"slices"
	"testing"
	"time"

	"repro/internal/geometry"
	"repro/internal/machine"
)

// fig5Matrix builds the 4x4 CSR matrix from the paper's Figure 5:
//
//	pos = {0,0},{1,2},{3,4},{5,5}   crd = 0,1,2,2,3,3   vals = a..f
//
// Rows 0-1 (GPU 0) reference columns {0,1,2}; rows 2-3 (GPU 1) reference
// {2,3}: the image of x is aliased at index 2, producing the
// single-element halo exchange of the execution example.
func fig5Matrix(rt *Runtime) (pos, crd, vals *Region) {
	pos = rt.CreateRects("A.pos", []geometry.Rect{
		geometry.NewRect(0, 0), geometry.NewRect(1, 2),
		geometry.NewRect(3, 4), geometry.NewRect(5, 5),
	})
	crd = rt.CreateInt64("A.crd", []int64{0, 1, 2, 2, 3, 3})
	vals = rt.CreateFloat64("A.vals", []float64{1, 2, 3, 4, 5, 6})
	return
}

// spmvOnce launches y = A @ x with the row-split strategy of Figure 4:
// align y with pos, image pos onto crd and vals, image crd onto x.
func spmvOnce(rt *Runtime, pos, crd, vals, x, y *Region, colors int) {
	posPart := rt.BlockPartition(pos, colors)
	yPart := rt.BlockPartition(y, colors)
	crdPart := rt.ImageRange(pos, posPart, crd)
	valsPart := rt.ImageRange(pos, posPart, vals)
	xPart := rt.ImageCoord(crd, crdPart, x)

	l := rt.NewLaunch("SpMV", colors, func(tc *TaskContext) {
		yv, pv, cv, vv, xv := tc.Float64(0), tc.Rects(1), tc.Int64(2), tc.Float64(3), tc.Float64(4)
		tc.Subspace(0).Each(func(i int64) {
			var acc float64
			r := pv[i]
			for j := r.Lo; j <= r.Hi; j++ {
				acc += vv[j] * xv[cv[j]]
			}
			yv[i] = acc
		})
	})
	l.Add(y, yPart, WriteDiscard)
	l.Add(pos, posPart, ReadOnly)
	l.Add(crd, crdPart, ReadOnly)
	l.Add(vals, valsPart, ReadOnly)
	l.Add(x, xPart, ReadOnly)
	l.SetOpClass(machine.SparseIter)
	l.Execute()
}

// normalizeOnce launches the norm + divide pair of Figure 1's loop,
// standing in for the cuNumeric side of the composition: it reuses the
// block tiling of x created by the SpMV launch.
func normalizeOnce(rt *Runtime, x *Region, colors int) {
	part := rt.BlockPartition(x, colors)
	norm := rt.NewLaunch("norm", colors, func(tc *TaskContext) {
		d := tc.Float64(0)
		var s float64
		tc.Subspace(0).Each(func(i int64) { s += d[i] * d[i] })
		tc.Reduce(s)
	})
	norm.Add(x, part, ReadOnly)
	norm.SetOpClass(machine.Reduction)
	n2 := norm.Execute().Get()

	div := rt.NewLaunch("div", colors, func(tc *TaskContext) {
		d := tc.Float64(0)
		inv := 1.0 / tc.Scalar(0)
		tc.Subspace(0).Each(func(i int64) { d[i] *= inv })
	})
	div.Add(x, part, ReadWrite)
	div.SetScalars(sqrt(n2))
	div.Execute()
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

// TestSteadyStateHaloExchange reproduces the §4.3 execution example: a
// power-iteration loop on 2 GPUs must pay allocation-resizing copies only
// during startup; from the third iteration on, the only inter-processor
// traffic is the single-element halo exchange of x over NVLink.
func TestSteadyStateHaloExchange(t *testing.T) {
	m := machine.Summit(1)
	rt := NewRuntime(m, m.Select(machine.GPU, 2))
	defer rt.Shutdown()
	pos, crd, vals := fig5Matrix(rt)

	x := rt.CreateFloat64("x0", []float64{1, 1, 1, 1})
	var prev *Region
	const iters = 6
	type iterStats struct{ moved, realloc int64 }
	var per []iterStats
	for it := 0; it < iters; it++ {
		rt.Fence()
		rt.ResetMetrics()
		y := rt.CreateRegion("x", 4, Float64)
		spmvOnce(rt, pos, crd, vals, x, y, 2)
		normalizeOnce(rt, y, 2)
		rt.Fence()
		per = append(per, iterStats{
			moved:   rt.Stats().MovedBytes(),
			realloc: rt.Stats().ReallocCopy.Load(),
		})
		if prev != nil {
			rt.Destroy(prev)
		}
		prev, x = x, y
	}

	// Startup iterations are allowed to move data and resize allocations.
	// Steady state (iterations >= 3): no reallocation copies, and the only
	// movement is the 1-element (8 byte) halo of x read by GPU 0.
	for it := 3; it < iters; it++ {
		if per[it].realloc != 0 {
			t.Errorf("iteration %d: realloc copies = %d bytes, want 0 (steady state)", it, per[it].realloc)
		}
		if per[it].moved != 8 {
			t.Errorf("iteration %d: moved = %d bytes, want 8 (single-element halo)", it, per[it].moved)
		}
	}
	// The first iterations must move strictly more than the steady state
	// (matrix load + full vector copies), showing the warmup effect.
	if per[0].moved <= 8 {
		t.Errorf("startup iteration moved only %d bytes; expected matrix + vector loads", per[0].moved)
	}
}

// TestValidityTracking exercises the directory model directly: after a
// write on one processor, the written indices must be invalid everywhere
// else, and a read on another processor must copy exactly the overlap.
func TestValidityTracking(t *testing.T) {
	m := machine.Summit(1)
	rt := NewRuntime(m, m.Select(machine.GPU, 2))
	defer rt.Shutdown()
	x := rt.CreateRegion("x", 8, Float64)
	part := rt.BlockPartition(x, 2)

	w := rt.NewLaunch("w", 2, func(tc *TaskContext) {
		d := tc.Float64(0)
		tc.Subspace(0).Each(func(i int64) { d[i] = float64(i) })
	})
	w.Add(x, part, WriteDiscard)
	w.Execute()
	rt.Fence()

	p0, p1 := rt.Procs()[0], rt.Procs()[1]
	if !rt.Mapper().ValidOn(p0, x).Equal(geometry.NewIntervalSet(geometry.NewRect(0, 3))) {
		t.Errorf("proc0 validity = %v", rt.Mapper().ValidOn(p0, x))
	}
	if !rt.Mapper().ValidOn(p1, x).Equal(geometry.NewIntervalSet(geometry.NewRect(4, 7))) {
		t.Errorf("proc1 validity = %v", rt.Mapper().ValidOn(p1, x))
	}

	// A full read on a single point task placed on proc0 must copy
	// exactly proc1's half (32 bytes) over NVLink.
	before := rt.Stats().CopiedBytes[machine.NVLink].Load()
	rd := rt.NewLaunch("r", 1, func(tc *TaskContext) {})
	rd.AddWhole(x, ReadOnly)
	rd.Execute()
	rt.Fence()
	got := rt.Stats().CopiedBytes[machine.NVLink].Load() - before
	if got != 32 {
		t.Errorf("NVLink bytes for full read = %d, want 32", got)
	}
}

// TestAllocationCoalescing checks the §4.2 coalescing heuristic: two
// overlapping views of one region on the same processor merge into one
// allocation, charging a reallocation copy for the moved contents.
func TestAllocationCoalescing(t *testing.T) {
	m := machine.Summit(1)
	rt := NewRuntime(m, m.Select(machine.GPU, 1))
	defer rt.Shutdown()
	x := rt.CreateRegion("x", 100, Float64)

	view1 := rt.PartitionByRects(x, []geometry.Rect{geometry.NewRect(0, 59)})
	l1 := rt.NewLaunch("v1", 1, func(tc *TaskContext) {})
	l1.Add(x, view1, ReadOnly)
	l1.Execute()
	rt.Fence()
	if rt.Stats().ReallocCopy.Load() != 0 {
		t.Fatal("first view must not realloc")
	}

	view2 := rt.PartitionByRects(x, []geometry.Rect{geometry.NewRect(40, 99)})
	l2 := rt.NewLaunch("v2", 1, func(tc *TaskContext) {})
	l2.Add(x, view2, ReadOnly)
	l2.Execute()
	rt.Fence()
	// The [40,99] view overlaps [0,59]; they coalesce into [0,99] and the
	// old 60-element allocation is copied (480 bytes).
	if got := rt.Stats().ReallocCopy.Load(); got != 480 {
		t.Errorf("realloc copy = %d bytes, want 480", got)
	}
	// A third view inside [0,99] must reuse the coalesced allocation.
	view3 := rt.PartitionByRects(x, []geometry.Rect{geometry.NewRect(10, 90)})
	l3 := rt.NewLaunch("v3", 1, func(tc *TaskContext) {})
	l3.Add(x, view3, ReadOnly)
	l3.Execute()
	rt.Fence()
	if got := rt.Stats().ReallocCopy.Load(); got != 480 {
		t.Errorf("reuse must not realloc again, total = %d", got)
	}
}

// TestPooledAllocationReuse checks that destroying a region returns its
// allocations to the pool and a same-shaped successor reuses them
// without growing memory (Figure 5: x2 reuses RA2/RA4).
func TestPooledAllocationReuse(t *testing.T) {
	m := machine.Summit(1)
	rt := NewRuntime(m, m.Select(machine.GPU, 1))
	defer rt.Shutdown()
	proc := rt.Procs()[0]

	a := rt.CreateRegion("a", 1000, Float64)
	la := rt.NewLaunch("wa", 1, func(tc *TaskContext) {})
	la.AddWhole(a, WriteDiscard)
	la.Execute()
	rt.Fence()
	used := rt.Mapper().MemUsed(proc)
	if used != 8000 {
		t.Fatalf("memUsed = %d, want 8000", used)
	}
	rt.Destroy(a)

	b := rt.CreateRegion("b", 1000, Float64)
	lb := rt.NewLaunch("wb", 1, func(tc *TaskContext) {})
	lb.AddWhole(b, WriteDiscard)
	lb.Execute()
	rt.Fence()
	if got := rt.Mapper().MemUsed(proc); got != used {
		t.Errorf("pooled reuse must not grow memory: %d -> %d", used, got)
	}
}

// TestSteadyStateMappingAllocFree replays, straight through
// mapRequirement, the region requirements of one CG iteration on four
// processors — SpMV, two dots, two AXPYs and the search-direction update
// of a block-diagonal matrix, so x's image is each processor's own block
// and there is no halo to move. Once warm, every requirement finds its
// data valid where it is used and cached nowhere else: the mapping must
// allocate nothing, copy nothing, and leave every validity set as it
// found it.
func TestSteadyStateMappingAllocFree(t *testing.T) {
	rt := newTestRuntime(t, 4)
	m := rt.Mapper()
	const n = 1 << 10
	vec := func(name string) *Region { return rt.CreateRegion(name, n, Float64) }
	pos, crd, vals := rt.CreateRegion("A.pos", n, RectType), rt.CreateRegion("A.crd", n, Int64), vec("A.vals")
	x, r, p, ap := vec("x"), vec("r"), vec("p"), vec("Ap")
	regions := []*Region{pos, crd, vals, x, r, p, ap}

	type req struct {
		region *Region
		priv   Privilege
	}
	iteration := [][]req{
		{{ap, WriteDiscard}, {pos, ReadOnly}, {crd, ReadOnly}, {vals, ReadOnly}, {p, ReadOnly}}, // Ap = A @ p
		{{p, ReadOnly}, {ap, ReadOnly}},  // p . Ap
		{{x, ReadWrite}, {p, ReadOnly}},  // x += alpha p
		{{r, ReadWrite}, {ap, ReadOnly}}, // r -= alpha Ap
		{{r, ReadOnly}},                  // r . r
		{{p, ReadWrite}, {r, ReadOnly}},  // p = r + beta p
	}
	blocks := make([]geometry.IntervalSet, 4)
	for i, b := range geometry.Tile(geometry.NewRect(0, n-1), 4) {
		blocks[i] = geometry.NewIntervalSet(b)
	}
	var copyTime time.Duration
	replay := func() {
		for _, launch := range iteration {
			for i, proc := range rt.Procs() {
				for _, rq := range launch {
					res, err := m.mapRequirement(proc, rq.region, blocks[i], rq.priv)
					if err != nil {
						t.Fatal(err)
					}
					copyTime += res.copyTime
				}
			}
		}
	}
	replay() // loads the matrix, allocates, settles validity
	replay()

	snapshot := func() (sets []geometry.IntervalSet, counters [3]int64) {
		for _, reg := range regions {
			for _, proc := range append(rt.Procs(), HostProc) {
				sets = append(sets, m.ValidOn(proc, reg))
			}
		}
		st := rt.Stats()
		return sets, [3]int64{st.Copies.Load(), st.MovedBytes(), st.ReallocCopy.Load()}
	}
	setsBefore, countersBefore := snapshot()
	copyTime = 0
	if allocs := testing.AllocsPerRun(10, replay); allocs != 0 {
		t.Errorf("steady-state iteration: %v allocs in mapRequirement, want 0", allocs)
	}
	if copyTime != 0 {
		t.Errorf("steady-state iteration charged %v of copies, want none", copyTime)
	}
	setsAfter, countersAfter := snapshot()
	if countersAfter != countersBefore {
		t.Errorf("copy counters (copies, moved, realloc) moved %v -> %v", countersBefore, countersAfter)
	}
	for i := range setsBefore {
		if !setsAfter[i].Equal(setsBefore[i]) {
			t.Errorf("validity set %d changed: %v -> %v", i, setsBefore[i], setsAfter[i])
		}
	}
}

// TestHoldersTrackValidCopies: a region's holders are exactly the live
// processors holding valid indices of it, through reads, a partial and
// a whole write, a reduction, and a processor's retirement, so a write
// that invalidates only the holders reaches every copy there is.
func TestHoldersTrackValidCopies(t *testing.T) {
	rt := newTestRuntime(t, 4)
	m := rt.Mapper()
	x := rt.CreateRegion("x", 16, Float64)
	whole := geometry.NewIntervalSet(x.Domain())
	procs := rt.Procs()
	mapReq := func(p machine.ProcID, sub geometry.IntervalSet, priv Privilege) {
		t.Helper()
		if _, err := m.mapRequirement(p, x, sub, priv); err != nil {
			t.Fatal(err)
		}
	}
	dead := func(p machine.ProcID) bool { return m.dead != nil && m.dead[p] }
	// check compares the live holders with want; a retired processor may
	// stay listed until the next write.
	check := func(step string, want ...machine.ProcID) {
		t.Helper()
		seen := map[machine.ProcID]bool{}
		live := 0
		for _, q := range x.coh.holders {
			if seen[q] {
				t.Fatalf("%s: holders %v list %d twice", step, x.coh.holders, q)
			}
			seen[q] = true
			if !dead(q) {
				live++
			}
		}
		for _, p := range rt.Machine().Procs {
			if !dead(p.ID) && seen[p.ID] == m.ValidOn(p.ID, x).Empty() {
				t.Fatalf("%s: proc %d holds %v, holders %v", step, p.ID, m.ValidOn(p.ID, x), x.coh.holders)
			}
		}
		if len(want) != live {
			t.Fatalf("%s: holders %v, want %v", step, x.coh.holders, want)
		}
		for _, p := range want {
			if !seen[p] {
				t.Fatalf("%s: holders %v, want %v", step, x.coh.holders, want)
			}
		}
	}

	check("fresh")
	for _, p := range procs {
		mapReq(p, whole, ReadOnly)
	}
	check("every processor read x", procs...)
	mapReq(procs[0], geometry.NewIntervalSet(geometry.NewRect(0, 3)), WriteDiscard)
	check("procs[0] wrote a block", procs...)
	if v := m.ValidOn(procs[1], x); !v.Equal(geometry.NewIntervalSet(geometry.NewRect(4, 15))) {
		t.Fatalf("procs[1] holds %v after procs[0] wrote 0-3", v)
	}
	mapReq(procs[1], whole, ReadWrite)
	check("procs[1] wrote x", procs[1])
	mapReq(procs[2], whole, ReduceSum)
	check("procs[2] reduced into x")
	if !m.ValidOn(HostProc, x).Equal(whole) {
		t.Fatalf("host holds %v after the reduction", m.ValidOn(HostProc, x))
	}

	mapReq(procs[3], whole, ReadOnly)
	mapReq(procs[0], whole, ReadOnly)
	m.evictProcessor(procs[3])
	check("procs[3] retired", procs[0])
	if !m.ValidOn(procs[3], x).Empty() {
		t.Fatalf("retired procs[3] still holds %v", m.ValidOn(procs[3], x))
	}
	mapReq(procs[0], geometry.NewIntervalSet(geometry.NewRect(0, 0)), ReadWrite)
	if !slices.Equal(x.coh.holders, []machine.ProcID{procs[0]}) {
		t.Fatalf("a write left holders %v, want only %d", x.coh.holders, procs[0])
	}
}
