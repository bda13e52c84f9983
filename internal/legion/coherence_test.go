package legion

import (
	"fmt"
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
// (Mapper.plan) to mapping everything on random programs: a loop body
// of launches with up to three requirements, often on one region
// through different partitions — block, shifted block, halo, broadcast,
// whole — with every privilege, sometimes placed by MapPoints, run four
// times, with a region destroyed and re-created between rounds. Both
// runs must end with the same simulated clock, statistics counters,
// copy and memory events, and the same valid sets and memory use on
// every processor.
func TestMappingSkipRandomPrograms(t *testing.T) {
	const n, procs = 96, 3
	type reqSpec struct {
		region, part int
		priv         Privilege
	}
	type launchSpec struct {
		reqs    []reqSpec
		reverse bool // MapPoints: point p on processor procs-1-p
	}
	run := func(body []launchSpec, skip bool) (string, []*Region, *Runtime) {
		m := machine.Summit(1)
		rt := NewRuntime(m, m.Select(machine.GPU, procs))
		t.Cleanup(rt.Shutdown)
		rt.map_.noSkip = !skip
		sink := prof.NewSink(0)
		rt.EnableProfiling(sink)
		regions := []*Region{rt.CreateRegion("a", n, Float64), rt.CreateRegion("b", n, Float64)}
		parts := func(r *Region) []*Partition {
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
		regionParts := [][]*Partition{parts(regions[0]), parts(regions[1])}
		for round := 0; round < 4; round++ {
			for _, ls := range body {
				l := rt.NewLaunch("op", procs, func(*TaskContext) {})
				for _, rq := range ls.reqs {
					r, p := regions[rq.region], regionParts[rq.region][rq.part]
					if p == nil {
						l.AddWhole(r, rq.priv)
					} else {
						l.Add(r, p, rq.priv)
					}
				}
				if ls.reverse {
					l.MapPoints(func(p int) int { return procs - 1 - p })
				}
				l.Execute()
			}
			if round == 1 {
				rt.Fence()
				rt.Destroy(regions[1])
				regions[1] = rt.CreateRegion("b", n, Float64)
				regionParts[1] = parts(regions[1])
			}
		}
		rt.Fence()
		return mappingOutcome(rt, sink, regions), regions, rt
	}
	var skipped int64
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		body := make([]launchSpec, 3+rng.Intn(4))
		for i := range body {
			body[i].reverse = rng.Intn(8) == 0
			for range 1 + rng.Intn(3) {
				rq := reqSpec{region: rng.Intn(2), part: rng.Intn(5)}
				switch {
				case rng.Intn(4) == 0:
					rq.priv = ReduceSum
				case rq.part < 2: // disjoint: any privilege
					rq.priv = []Privilege{ReadOnly, WriteDiscard, ReadWrite}[rng.Intn(3)]
				case rq.part == 4: // whole: written only by ReduceSum here
					rq.priv = ReadOnly
				default:
					rq.priv = ReadOnly
				}
				body[i].reqs = append(body[i].reqs, rq)
			}
		}
		on, _, rtOn := run(body, true)
		off, _, rtOff := run(body, false)
		if on != off {
			t.Fatalf("seed %d: skipping on and off differ:\n on: %s\noff: %s", seed, on, off)
		}
		skipped += rtOff.map_.calls - rtOn.map_.calls
	}
	if skipped == 0 {
		t.Fatal("no mapping was skipped: the programs do not exercise the skip")
	}
}

// mappingOutcome renders what the mapper decided on a fenced runtime:
// the simulated clock, the statistics counters, the copy and memory
// events, and each processor's memory use and valid sets of regions.
func mappingOutcome(rt *Runtime, sink *prof.Sink, regions []*Region) string {
	tr := sink.Snapshot()
	out := fmt.Sprint(rt.SimTime(), statCounters(rt.Stats()), tr.Copies, tr.Mem)
	for _, p := range rt.Procs() {
		out += fmt.Sprint(rt.Mapper().MemUsed(p))
		for _, r := range regions {
			out += fmt.Sprint(rt.Mapper().ValidOn(p, r))
		}
	}
	for _, r := range regions {
		out += fmt.Sprint(rt.Mapper().ValidOn(HostProc, r))
	}
	return out
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
	run := func(skip bool) string {
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
		return mappingOutcome(rt, sink, []*Region{w})
	}
	if on, off := run(true), run(false); on != off {
		t.Fatalf("skipping on and off differ:\n on: %s\noff: %s", on, off)
	}
}
