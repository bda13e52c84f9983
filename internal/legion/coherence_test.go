package legion

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/geometry"
	"repro/internal/machine"
	"repro/internal/prof"
)

// TestCoherenceInvariants runs random programs over a handful of regions
// and checks the directory model's invariants after every fence:
//
//  1. every processor's valid set is a subset of the region's domain;
//  2. every index is valid *somewhere* (a processor or host) — data is
//     never lost;
//  3. after a full write through a disjoint partition, the writers'
//     valid sets tile the domain exactly.
func TestCoherenceInvariants(t *testing.T) {
	m := machine.Summit(1)
	rt := NewRuntime(m, m.Select(machine.GPU, 3))
	t.Cleanup(rt.Shutdown)

	const n = 128
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		regions := make([]*Region, 3)
		for i := range regions {
			regions[i] = rt.CreateRegion("r", n, Float64)
		}
		defer func() {
			rt.Fence()
			for _, r := range regions {
				rt.Destroy(r)
			}
		}()

		steps := 5 + rng.Intn(15)
		for s := 0; s < steps; s++ {
			r := regions[rng.Intn(len(regions))]
			part := rt.BlockPartition(r, 3)
			priv := []Privilege{ReadOnly, WriteDiscard, ReadWrite}[rng.Intn(3)]
			l := rt.NewLaunch("op", 3, func(tc *TaskContext) {
				d := tc.Float64(0)
				if priv != ReadOnly {
					tc.Subspace(0).Each(func(i int64) { d[i]++ })
				}
			})
			l.Add(r, part, priv)
			l.Execute()
		}
		rt.Fence()

		dom := geometry.NewIntervalSet(geometry.NewRect(0, n-1))
		for _, r := range regions {
			var anywhere geometry.IntervalSet
			for _, p := range rt.Procs() {
				v := rt.Mapper().ValidOn(p, r)
				if !dom.ContainsSet(v) {
					t.Logf("seed %d: valid set escapes domain: %v", seed, v)
					return false
				}
				anywhere = anywhere.Union(v)
			}
			anywhere = anywhere.Union(rt.Mapper().ValidOn(HostProc, r))
			if !anywhere.Equal(dom) {
				t.Logf("seed %d: indices lost from every memory: have %v", seed, anywhere)
				return false
			}
		}

		// Full write: validity must tile exactly across the writers.
		r := regions[0]
		part := rt.BlockPartition(r, 3)
		w := rt.NewLaunch("w", 3, func(tc *TaskContext) {
			d := tc.Float64(0)
			tc.Subspace(0).Each(func(i int64) { d[i] = 0 })
		})
		w.Add(r, part, WriteDiscard)
		w.Execute()
		rt.Fence()
		var acc geometry.IntervalSet
		for c, p := range rt.Procs() {
			v := rt.Mapper().ValidOn(p, r)
			if !v.Equal(part.Subspace(c)) {
				t.Logf("seed %d: writer %d validity %v != subspace %v", seed, c, v, part.Subspace(c))
				return false
			}
			if acc.Overlaps(v) {
				t.Logf("seed %d: overlapping validity after disjoint write", seed)
				return false
			}
			acc = acc.Union(v)
		}
		if !rt.Mapper().ValidOn(HostProc, r).Empty() {
			t.Logf("seed %d: host still valid after full overwrite", seed)
			return false
		}
		return acc.Equal(dom)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMappingSkipRandomPrograms holds skipping unchanged mappings
// (Mapper.plan) to mapping everything on 200 random programs: both runs
// must agree on their whole Outcome, each processor's valid sets and
// memory use included.
func TestMappingSkipRandomPrograms(t *testing.T) {
	noSkip := shipped
	noSkip.skip = false
	var skipped int64
	for seed := int64(1); seed <= 200; seed++ {
		p := randomProgram(rand.New(rand.NewSource(seed)))
		on, rtOn := p.run(t, shipped)
		off, rtOff := p.run(t, noSkip)
		if diff := Diff(on, off); diff != "" {
			t.Fatalf("seed %d: skipping on differs from off: %s", seed, diff)
		}
		skipped += rtOff.map_.calls - rtOn.map_.calls
	}
	if skipped == 0 {
		t.Fatal("no mapping was skipped: the programs do not exercise the skip")
	}
}

// program is a loop body of launches over two regions of programN
// elements on programProcs processors. Each launch has up to three
// requirements, often on one region through different partitions —
// block, shifted block, halo, broadcast, whole — with every privilege,
// and is sometimes placed by MapPoints. Its kernels do nothing.
type program []launchSpec

type launchSpec struct {
	reqs    []reqSpec
	reverse bool // MapPoints: point p on processor programProcs-1-p
}

type reqSpec struct {
	region, part int // block, shifted block, halo, broadcast, whole
	priv         Privilege
}

const programN, programProcs = 96, 3

// randomProgram draws a body of three to six launches. Only the
// disjoint partitions are written; aliased and whole requirements read
// or reduce.
func randomProgram(rng *rand.Rand) program {
	p := make(program, 3+rng.Intn(4))
	for i := range p {
		p[i].reverse = rng.Intn(8) == 0
		for range 1 + rng.Intn(3) {
			rq := reqSpec{region: rng.Intn(2), part: rng.Intn(5)}
			switch {
			case rng.Intn(4) == 0:
				rq.priv = ReduceSum
			case rq.part < 2:
				rq.priv = []Privilege{ReadOnly, WriteDiscard, ReadWrite}[rng.Intn(3)]
			default:
				rq.priv = ReadOnly
			}
			p[i].reqs = append(p[i].reqs, rq)
		}
	}
	return p
}

// variant is the switches a program runs under, each one the runtime
// has: the inline grain, the fusion window, tracing and mapping skip.
type variant struct {
	grain  int64 // rt.inlineGrain
	window int   // SetFusionWindow's n; 0 keeps the runtime's default
	traced bool  // each round between BeginTrace and EndTrace
	skip   bool  // skip unchanged mappings (Mapper.plan)
}

// shipped is the variant a new runtime runs.
var shipped = variant{grain: inlineGrainElems, skip: true}

// run runs p's body four times under v on a fresh runtime of
// programProcs GPUs, destroying and re-creating the second region
// after the second round, and captures the outcome with both regions'
// contents and valid sets.
func (p program) run(t *testing.T, v variant) (Outcome, *Runtime) {
	const n, procs = programN, programProcs
	m := machine.Summit(1)
	rt := NewRuntime(m, m.Select(machine.GPU, procs))
	t.Cleanup(rt.Shutdown)
	rt.inlineGrain = v.grain
	if v.window != 0 {
		rt.SetFusionWindow(v.window)
	}
	rt.map_.noSkip = !v.skip
	sink := prof.NewSink(0)
	rt.EnableProfiling(sink)
	partsOf := func(r *Region) []*Partition {
		var shifted, halo []geometry.Rect
		for c := int64(0); c < procs; c++ {
			lo, hi := c*n/procs, (c+1)*n/procs-1
			shifted = append(shifted, geometry.NewRect(max(lo-5, 0), max(hi-5, 0)))
			halo = append(halo, geometry.NewRect(max(lo-8, 0), min(hi+8, n-1)))
		}
		shifted[procs-1].Hi = n - 1
		return []*Partition{rt.BlockPartition(r, procs), rt.PartitionByRects(r, shifted),
			rt.PartitionByRects(r, halo), rt.BroadcastPartition(r, procs), nil}
	}
	regions := []*Region{rt.CreateRegion("a", n, Float64), rt.CreateRegion("b", n, Float64)}
	parts := [][]*Partition{partsOf(regions[0]), partsOf(regions[1])}
	for round := 0; round < 4; round++ {
		if v.traced {
			rt.BeginTrace(1)
		}
		for _, ls := range p {
			l := rt.NewLaunch("op", procs, func(*TaskContext) {})
			for _, rq := range ls.reqs {
				if r, part := regions[rq.region], parts[rq.region][rq.part]; part == nil {
					l.AddWhole(r, rq.priv)
				} else {
					l.Add(r, part, rq.priv)
				}
			}
			if ls.reverse {
				l.MapPoints(func(p int) int { return procs - 1 - p })
			}
			l.Execute()
		}
		if v.traced {
			rt.EndTrace()
		}
		if round == 1 {
			rt.Fence()
			rt.Destroy(regions[1])
			regions[1] = rt.CreateRegion("b", n, Float64)
			parts[1] = partsOf(regions[1])
		}
	}
	rt.Fence()
	return Capture(rt, sink, nil, nil, regions...), rt
}

// TestMappingSkipReplaysDestroyedRegions: recovery replays launches on
// regions destroyed within the epoch, and the mapper hands such a region
// a recycled directory entry when it first needs one — here after a read
// through empty subspaces, which maps nothing. A canon the entry kept
// from the region it served before (same size, so the same block
// coloring) must not let the replayed write that follows skip its
// mapping. Skipping on and off must agree.
func TestMappingSkipReplaysDestroyedRegions(t *testing.T) {
	const n, procs = 64, 2
	run := func(skip bool) Outcome {
		rt := newTestRuntime(t, procs)
		rt.map_.noSkip = !skip
		rt.EnableCheckpointing(64)
		sink := prof.NewSink(0)
		rt.EnableProfiling(sink)
		launch := func(r *Region, p *Partition, priv Privilege) {
			l := rt.NewLaunch("op", procs, func(*TaskContext) {})
			l.Add(r, p, priv)
			l.Execute()
		}
		y, z, w := rt.CreateRegion("y", n, Float64), rt.CreateRegion("z", n, Float64), rt.CreateRegion("w", n, Float64)
		launch(y, rt.BlockPartition(y, procs), WriteDiscard) // stream 1: y's entry gets a write canon
		launch(z, rt.PartitionBySets(z, make([]geometry.IntervalSet, procs)), ReadOnly)
		launch(z, rt.BlockPartition(z, procs), WriteDiscard) // stream 3
		rt.Fence()
		rt.Destroy(y) // y's entry is recycled last, so first:
		rt.Destroy(z) // stream 1's replay takes z's, stream 2's y's
		rt.SetFaultInjector(fault.New(1).KillPoint(5, 1))
		launch(w, rt.BlockPartition(w, procs), WriteDiscard)
		launch(w, rt.BlockPartition(w, procs), WriteDiscard) // stream 5 fails; the fence replays 1-5
		rt.Fence()
		if got := rt.Stats().Restores.Load(); got != 1 {
			t.Fatalf("restores = %d, want 1", got)
		}
		return Capture(rt, sink, nil, nil, w)
	}
	if diff := Diff(run(true), run(false)); diff != "" {
		t.Fatalf("skipping on differs from off: %s", diff)
	}
}
