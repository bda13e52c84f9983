package legion

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/geometry"
	"repro/internal/machine"
	"repro/internal/prof"
)

// The runtime has two executors for a point — the processor's worker
// goroutine and, for a small runnable launch, the issuing goroutine
// (Runtime.runsInline). These tests force one or the other through the
// unexported grain and hold them to the same observable behaviour.

// grains are the settings the equivalence tests compare: every launch
// queued, the shipped selection, every runnable launch inline.
var grains = []struct {
	name  string
	grain int64
}{
	{"queued", 0},
	{"default", inlineGrainElems},
	{"inline", math.MaxInt64},
}

// ranInline reports whether the launch behind fut had completed by the
// time Execute returned, which an inline launch always has.
func ranInline(fut *Future) bool { return fut.launch != nil && fut.launch.completed.Load() }

// elementwise issues dst[i] = f(dst[i], src[i]) over aligned block
// partitions; fusable, like cuNumeric's AXPY.
func elementwise(rt *Runtime, name string, dst, src *Region, f func(d, s float64) float64) {
	n := rt.LaunchDomain()
	l := rt.NewLaunch(name, n, func(tc *TaskContext) {
		d, s := tc.Float64(0), tc.Float64(1)
		tc.Subspace(0).Each(func(i int64) { d[i] = f(d[i], s[i]) })
	})
	l.Add(dst, rt.BlockPartition(dst, n), ReadWrite)
	l.Add(src, rt.AlignedPartition(rt.BlockPartition(dst, n), src), ReadOnly)
	l.SetFusable(true)
	l.Execute()
}

// fill writes f(i) into every element through a block partition, so
// each processor owns its block from the start.
func fill(rt *Runtime, r *Region, f func(i int64) float64) {
	n := rt.LaunchDomain()
	l := rt.NewLaunch("fill", n, func(tc *TaskContext) {
		d := tc.Float64(0)
		tc.Subspace(0).Each(func(i int64) { d[i] = f(i) })
	})
	l.Add(r, rt.BlockPartition(r, n), WriteDiscard)
	l.Execute()
}

// dot issues a two-operand reduction and reads it, with the all-reduce
// charge a solver would pay.
func dot(rt *Runtime, a, b *Region) float64 {
	n := rt.LaunchDomain()
	l := rt.NewLaunch("dot", n, func(tc *TaskContext) {
		x, y := tc.Float64(0), tc.Float64(1)
		var s float64
		tc.Subspace(0).Each(func(i int64) { s += x[i] * y[i] })
		tc.Reduce(s)
	})
	pa := rt.BlockPartition(a, n)
	l.Add(a, pa, ReadOnly)
	l.Add(b, rt.AlignedPartition(pa, b), ReadOnly)
	l.SetOpClass(machine.Reduction)
	return l.Execute().Get()
}

// cgProblem is a tridiagonal matrix of n rows and the four vectors of a
// CG solve on it, laid out as Legate Sparse lays out CSR.
type cgProblem struct {
	rt             *Runtime
	pos, crd, vals *Region
	x, r, p, ap    *Region
	rz             float64
}

func newCGProblem(rt *Runtime, n int64) *cgProblem {
	var ranges []geometry.Rect
	var cols []int64
	var entries []float64
	for i := int64(0); i < n; i++ {
		lo := int64(len(cols))
		for _, j := range []int64{i - 1, i, i + 1} {
			if j < 0 || j >= n {
				continue
			}
			cols = append(cols, j)
			if j == i {
				entries = append(entries, 4)
			} else {
				entries = append(entries, -1)
			}
		}
		ranges = append(ranges, geometry.NewRect(lo, int64(len(cols))-1))
	}
	vec := func(name string) *Region { return rt.CreateRegion(name, n, Float64) }
	c := &cgProblem{
		rt:  rt,
		pos: rt.CreateRects("A.pos", ranges), crd: rt.CreateInt64("A.crd", cols), vals: rt.CreateFloat64("A.vals", entries),
		x: vec("x"), r: vec("r"), p: vec("p"), ap: vec("Ap"),
	}
	fill(rt, c.x, func(int64) float64 { return 0 })
	fill(rt, c.r, func(i int64) float64 { return 1 + float64(i%7)/8 })
	fill(rt, c.p, func(i int64) float64 { return 1 + float64(i%7)/8 })
	c.rz = dot(rt, c.r, c.r)
	return c
}

// iterate is one CG iteration: an SpMV through the pos → crd/vals → p
// image chain, two reductions the application blocks on, and three
// vector updates, two of them adjacent and fusable. It returns the step
// length and the new residual norm squared.
func (c *cgProblem) iterate() (alpha, rr float64) {
	rt, procs := c.rt, c.rt.LaunchDomain()
	l := rt.NewLaunch("spmv", procs, func(tc *TaskContext) {
		y, ps, cs, vs, xs := tc.Float64(0), tc.Rects(1), tc.Int64(2), tc.Float64(3), tc.Float64(4)
		tc.Subspace(0).Each(func(i int64) {
			var s float64
			for k := ps[i].Lo; k <= ps[i].Hi; k++ {
				s += vs[k] * xs[cs[k]]
			}
			y[i] = s
		})
	})
	rows := rt.BlockPartition(c.pos, procs)
	nz := rt.ImageRange(c.pos, rows, c.crd)
	l.Add(c.ap, rt.AlignedPartition(rows, c.ap), WriteDiscard)
	l.Add(c.pos, rows, ReadOnly)
	l.Add(c.crd, nz, ReadOnly)
	l.Add(c.vals, rt.AlignedPartition(nz, c.vals), ReadOnly)
	l.Add(c.p, rt.ImageCoord(c.crd, nz, c.p), ReadOnly)
	l.SetOpClass(machine.SparseIter)
	l.Execute()

	alpha = c.rz / dot(rt, c.p, c.ap)
	elementwise(rt, "axpy", c.x, c.p, func(d, s float64) float64 { return d + alpha*s })
	elementwise(rt, "axpy", c.r, c.ap, func(d, s float64) float64 { return d - alpha*s })
	rr = dot(rt, c.r, c.r)
	beta := rr / c.rz
	elementwise(rt, "axpby", c.p, c.r, func(d, s float64) float64 { return s + beta*d })
	c.rz = rr
	return alpha, rr
}

// cgStream is the launch stream of iters CG iterations on n rows.
func cgStream(n int64, iters int) Stream {
	return func(_ *testing.T, rt *Runtime) ([][]float64, []float64) {
		c := newCGProblem(rt, n)
		futures := []float64{c.rz}
		for it := 0; it < iters; it++ {
			alpha, rr := c.iterate()
			futures = append(futures, alpha, rr)
		}
		return Contents(rt, c.x, c.r, c.p, c.ap), futures
	}
}

// gmgStream is the launch shape of a two-level V-cycle: smoothing
// sweeps on a fine vector, a restriction onto a region half its size
// through a bespoke partition, sweeps there, and a prolongation back —
// short fusable chains separated by launches that change the partition.
func gmgStream(n int64, cycles int) Stream {
	return func(_ *testing.T, rt *Runtime) ([][]float64, []float64) {
		fine, rhs := rt.CreateRegion("fine", n, Float64), rt.CreateRegion("rhs", n, Float64)
		coarse, crhs := rt.CreateRegion("coarse", n/2, Float64), rt.CreateRegion("crhs", n/2, Float64)
		fill(rt, fine, func(int64) float64 { return 0 })
		fill(rt, rhs, func(i int64) float64 { return float64(i%5) - 2 })
		fill(rt, coarse, func(int64) float64 { return 0 })

		var futures []float64
		procs := rt.LaunchDomain()
		cpart := rt.BlockPartition(coarse, procs)
		var pairs []geometry.Rect // the two fine points under each coarse block
		for c := 0; c < procs; c++ {
			b := cpart.Subspace(c).Bounds()
			pairs = append(pairs, geometry.NewRect(2*b.Lo, 2*b.Hi+1))
		}
		fpairs := rt.PartitionByRects(fine, pairs)
		transfer := func(name string, dst *Region, dpart *Partition, src *Region, spart *Partition, priv Privilege,
			kernel func(d, s []float64, c geometry.Rect)) {
			l := rt.NewLaunch(name, procs, func(tc *TaskContext) { kernel(tc.Float64(0), tc.Float64(1), tc.Bounds(2)) })
			l.Add(dst, dpart, priv)
			l.Add(src, spart, ReadOnly)
			l.Add(coarse, cpart, ReadOnly) // names this point's coarse block
			l.Execute()
		}
		smooth := func(v, b *Region) {
			elementwise(rt, "smooth", v, b, func(d, s float64) float64 { return 0.5*d + 0.25*s })
		}
		for c := 0; c < cycles; c++ {
			smooth(fine, rhs)
			smooth(fine, rhs)
			transfer("restrict", crhs, rt.AlignedPartition(cpart, crhs), fine, fpairs, WriteDiscard,
				func(d, s []float64, blk geometry.Rect) {
					for i := blk.Lo; i <= blk.Hi; i++ {
						d[i] = s[2*i] + s[2*i+1]
					}
				})
			smooth(coarse, crhs)
			smooth(coarse, crhs)
			smooth(coarse, crhs)
			transfer("prolong", fine, fpairs, coarse, cpart, ReadWrite,
				func(d, s []float64, blk geometry.Rect) {
					for i := blk.Lo; i <= blk.Hi; i++ {
						d[2*i] += s[i]
						d[2*i+1] += s[i]
					}
				})
			smooth(fine, rhs)
			futures = append(futures, dot(rt, fine, fine))
		}
		return Contents(rt, fine, coarse, crhs), futures
	}
}

// mixedStream alternates launches over and under the parallel grain on
// regions they share: a big vector whose updates must queue, a small
// one whose updates may run inline, and launches that read one while
// writing the other, so each executor keeps waiting on the other's
// results.
func mixedStream(rounds int) Stream {
	return func(_ *testing.T, rt *Runtime) ([][]float64, []float64) {
		const bigN, smallN = 2 * inlineGrainElems, 1 << 10
		big, big2 := rt.CreateRegion("big", bigN, Float64), rt.CreateRegion("big2", bigN, Float64)
		small, small2 := rt.CreateRegion("small", smallN, Float64), rt.CreateRegion("small2", smallN, Float64)
		fill(rt, big, func(i int64) float64 { return float64(i % 3) })
		fill(rt, big2, func(i int64) float64 { return 1 })
		fill(rt, small, func(i int64) float64 { return float64(i % 11) })
		fill(rt, small2, func(i int64) float64 { return 2 })

		procs := rt.LaunchDomain()
		// scaleBy multiplies dst by the first element-sum of src's block
		// modulo a small number: a launch whose footprint is both regions.
		scaleBy := func(dst, src *Region) {
			l := rt.NewLaunch("scale-by", procs, func(tc *TaskContext) {
				d, s := tc.Float64(0), tc.Float64(1)
				var k float64
				tc.Subspace(1).Each(func(i int64) { k += s[i] })
				k = 1 + math.Mod(k, 3)/4
				tc.Subspace(0).Each(func(i int64) { d[i] *= k })
			})
			l.Add(dst, rt.BlockPartition(dst, procs), ReadWrite)
			l.Add(src, rt.BlockPartition(src, procs), ReadOnly)
			l.Execute()
		}
		add := func(d, s float64) float64 { return d + s/16 }
		var futures []float64
		for i := 0; i < rounds; i++ {
			elementwise(rt, "big-add", big, big2, add)       // over the grain
			elementwise(rt, "small-add", small, small2, add) // under it, independent of the one before
			scaleBy(small, big)                              // over (reads big), writes small
			futures = append(futures, dot(rt, small, small2))
			scaleBy(big2, small2) // over, writes what big-add reads next round
			elementwise(rt, "small-add", small2, small, add)
			if i%3 == 2 {
				futures = append(futures, dot(rt, big, big2))
			}
		}
		return Contents(rt, big, big2, small, small2), futures
	}
}

// HaloStream is quantum's shape on four processors: a vector updated
// block by block, read through an image whose color c spans block c and
// three quarters of each neighbouring block. Points c and c+2 both need
// the middle of block c+1, so when the points of one launch map
// concurrently, where a point fetches that piece from — and in how many
// copies — depends on which of them mapped first. It destroys its two
// vectors once it has read them.
func HaloStream(rounds int) Stream {
	return func(_ *testing.T, rt *Runtime) ([][]float64, []float64) {
		const n = 1 << 12
		procs := rt.LaunchDomain()
		v, w := rt.CreateRegion("v", n, Float64), rt.CreateRegion("w", n, Float64)
		fill(rt, v, func(i int64) float64 { return float64(i%9) / 8 })
		blocks := rt.BlockPartition(v, procs)
		reach := n / int64(procs) * 3 / 4
		var cols []int64
		var segs []geometry.Rect
		for c := 0; c < procs; c++ {
			b := blocks.Subspace(c).Bounds()
			lo := int64(len(cols))
			for i := max(b.Lo-reach, 0); i <= min(b.Hi+reach, n-1); i++ {
				cols = append(cols, i)
			}
			segs = append(segs, geometry.NewRect(lo, int64(len(cols))-1))
		}
		crd := rt.CreateInt64("crd", cols)
		halo := rt.ImageCoord(crd, rt.PartitionByRects(crd, segs), v)
		var futures []float64
		for r := 0; r < rounds; r++ {
			l := rt.NewLaunch("halo", procs, func(tc *TaskContext) {
				d, s := tc.Float64(0), tc.Float64(1)
				var sum float64
				tc.Subspace(1).Each(func(i int64) { sum += s[i] })
				tc.Subspace(0).Each(func(i int64) { d[i] = s[i] + sum/n })
				tc.Reduce(sum)
			})
			l.Add(w, rt.AlignedPartition(blocks, w), WriteDiscard)
			l.Add(v, halo, ReadOnly)
			futures = append(futures, l.Execute().Get())
			elementwise(rt, "relax", v, w, func(d, s float64) float64 { return (d + s) / 2 })
		}
		data := Contents(rt, v, w)
		rt.Destroy(v)
		rt.Destroy(w)
		return data, futures
	}
}

// TestExecutorsEquivalent runs cg-, gmg-, mixed- and halo-shaped streams
// with every launch queued, with the shipped size selection, and with
// every runnable launch inline: the whole Outcome must not depend on
// which goroutine ran a point. Five runs each, at GOMAXPROCS 1 and 2.
func TestExecutorsEquivalent(t *testing.T) {
	streams := []struct {
		name  string
		procs int
		run   Stream
	}{
		{"cg", 2, cgStream(1<<10, 6)},
		{"gmg", 2, gmgStream(1<<10, 4)},
		{"mixed", 2, mixedStream(5)},
		{"halo", 4, HaloStream(3)},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			var want *Outcome
			for _, cpus := range []int{1, 2} {
				runtime.GOMAXPROCS(cpus)
				for run := 0; run < 5; run++ {
					for _, g := range grains {
						rt := newTestRuntime(t, s.procs)
						rt.inlineGrain = g.grain
						sink := prof.NewSink(0)
						rt.EnableProfiling(sink)
						data, futures := s.run(t, rt)
						got := Capture(rt, sink, data, futures)
						if err := rt.Err(); err != nil {
							t.Fatalf("GOMAXPROCS=%d run %d grain %s: %v", cpus, run, g.name, err)
						}
						if want == nil {
							want = &got
							continue
						}
						if diff := Diff(got, *want); diff != "" {
							t.Fatalf("GOMAXPROCS=%d run %d grain %s differs from the first run: %s", cpus, run, g.name, diff)
						}
					}
				}
			}
			if tr := want.Trace; len(tr.Spans) == 0 || len(tr.Deps) == 0 || want.Sim == 0 {
				t.Fatalf("stream recorded %d spans, %d deps, sim %v: nothing was compared", len(tr.Spans), len(tr.Deps), want.Sim)
			}
		})
	}
}

// TestGrainSelectsExecutor: the shipped grain sends a launch over it to
// the workers and runs one under it, on an idle runtime, before Execute
// returns.
func TestGrainSelectsExecutor(t *testing.T) {
	rt := newTestRuntime(t, 2)
	rt.SetFaultInjector(fault.New(1).StallLaunch(1, 20*time.Millisecond))
	big := rt.CreateRegion("big", inlineGrainElems+2, Float64)
	small := rt.CreateRegion("small", inlineGrainElems, Float64)
	launch := func(r *Region) *Future {
		l := rt.NewLaunch("touch", 2, func(*TaskContext) {})
		l.Add(r, rt.BlockPartition(r, 2), ReadWrite)
		return l.Execute()
	}
	if over := launch(big); ranInline(over) {
		t.Error("a launch over the grain completed inside Execute despite its stall: it did not go to the workers")
	}
	rt.Fence()
	// A worker reports idle an instant after its last point has released
	// the fence.
	for deadline := time.Now().Add(5 * time.Second); !rt.workers[0].idle() || !rt.workers[1].idle(); {
		if time.Now().After(deadline) {
			t.Fatal("workers still busy 5s after the fence")
		}
		runtime.Gosched()
	}
	if under := launch(small); !ranInline(under) {
		t.Error("a runnable launch of exactly the grain on an idle runtime did not run inline")
	}
}

// TestInlineKeepsProcOrder: a processor executes its points in launch
// order whoever runs them. A stalled launch holds processor 0 while its
// point on processor 1 finishes at once; a later independent small
// launch aimed at processor 0 must wait its turn there rather than run
// inline past the stalled point, and one aimed at processor 1 — idle or
// not by then — must still come after that processor's earlier point.
// The simulated spans give each processor's order.
func TestInlineKeepsProcOrder(t *testing.T) {
	for _, g := range grains {
		t.Run(g.name, func(t *testing.T) {
			rt := newTestRuntime(t, 2)
			rt.inlineGrain = g.grain
			rt.SetFaultInjector(fault.New(1).SlowPoint(1, 0, 30*time.Millisecond))
			sink := prof.NewSink(0)
			rt.EnableProfiling(sink)

			held := rt.CreateRegion("held", 2*inlineGrainElems+2, Float64)
			a, b := rt.CreateRegion("a", 64, Float64), rt.CreateRegion("b", 64, Float64)
			nop := func(*TaskContext) {}
			first := rt.NewLaunch("held", 2, nop) // stream 1: over every grain but MaxInt64
			first.Add(held, rt.BlockPartition(held, 2), ReadWrite)
			first.Execute()
			on := func(name string, r *Region, proc int) *Future {
				l := rt.NewLaunch(name, 1, nop)
				l.AddWhole(r, ReadWrite)
				l.MapPoints(func(int) int { return proc })
				return l.Execute()
			}
			behind := on("behind", a, 0)
			if g.grain != math.MaxInt64 && ranInline(behind) {
				t.Error("a launch aimed at a processor with a point in flight ran inline")
			}
			on("other", b, 1)
			rt.Fence()

			last := map[int]prof.Span{}
			for _, sp := range sink.Snapshot().Spans { // sorted by simulated start
				if prev, ok := last[sp.Proc]; ok && (sp.Launch < prev.Launch || sp.Start < prev.End()) {
					t.Errorf("processor %d ran launch %d (%s, start %v) after launch %d (%s, end %v)",
						sp.Proc, sp.Launch, sp.Task, sp.Start, prev.Launch, prev.Task, prev.End())
				}
				last[sp.Proc] = sp
			}
			if len(last) != 2 {
				t.Fatalf("spans on %d processors, want 2", len(last))
			}
		})
	}
}

// TestInlineLifecycle drives the lifecycle edges through the inline
// executor: a panicking kernel, cancellation, recovery by replay, and
// the operations that wait on a launch.
func TestInlineLifecycle(t *testing.T) {
	inc := func(rt *Runtime, r *Region, kernel KernelFunc) *Future {
		l := rt.NewLaunch("inc", 2, kernel)
		l.Add(r, rt.BlockPartition(r, 2), ReadWrite)
		return l.Execute()
	}
	addOne := func(tc *TaskContext) {
		d := tc.Float64(0)
		tc.Subspace(0).Each(func(i int64) { d[i]++ })
	}

	t.Run("panic is the sticky error", func(t *testing.T) {
		rt := newTestRuntime(t, 2)
		r := rt.CreateRegion("v", 64, Float64)
		fut := inc(rt, r, func(tc *TaskContext) {
			if tc.Point() == 1 {
				panic("kaboom")
			}
		})
		if !ranInline(fut) {
			t.Fatal("the panicking launch did not run inline: the test no longer covers that path")
		}
		var pe *TaskPanicError
		if err := rt.Err(); !errors.As(err, &pe) || pe.Task != "inc" || pe.Point != 1 {
			t.Fatalf("Err = %v, want TaskPanicError for inc point 1", err)
		}
		if n := rt.Stats().PointFailures.Load(); n != 1 {
			t.Fatalf("point failures = %d, want 1", n)
		}
		rt.Fence() // the panicked launch still completed
	})

	t.Run("replay is bit-identical", func(t *testing.T) {
		clean := newTestRuntime(t, 4)
		clean.EnableCheckpointing(16)
		want, _ := runFaultLoop(clean)
		for _, g := range grains {
			rt := newTestRuntime(t, 4)
			rt.inlineGrain = g.grain
			rt.EnableCheckpointing(16)
			inj := fault.New(7).KillPoint(5, 2).KillPoint(22, 0).KillPoint(41, 3)
			rt.SetFaultInjector(inj)
			got, err := runFaultLoop(rt)
			if err != nil {
				t.Fatalf("grain %s: recovery failed: %v", g.name, err)
			}
			if inj.PointFaults() != 3 || rt.Stats().Restores.Load() == 0 {
				t.Fatalf("grain %s: %d faults fired, %d restores: nothing was recovered", g.name, inj.PointFaults(), rt.Stats().Restores.Load())
			}
			if diff := Diff(got, want, recovered...); diff != "" {
				t.Fatalf("grain %s: recovered run differs from the fault-free one: %s", g.name, diff)
			}
		}
	})

	t.Run("a capped fault schedule fires the same points", func(t *testing.T) {
		// rate:0.02:7 stops after seven faults (this seed would fire an
		// eighth). Faults are decided as each launch is issued, so which
		// points fail must not depend on which goroutine runs them or on
		// how many cores there are.
		clean := newTestRuntime(t, 4)
		clean.EnableCheckpointing(16)
		want, _ := runFaultLoop(clean)
		var wantFaults []prof.Mark
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, cpus := range []int{1, 2} {
			runtime.GOMAXPROCS(cpus)
			for _, grain := range []int64{0, math.MaxInt64} {
				rt := newTestRuntime(t, 4)
				rt.inlineGrain = grain
				sink := prof.NewSink(0)
				rt.EnableProfiling(sink)
				rt.EnableCheckpointing(16)
				inj, err := fault.Parse("rate:0.02:7", 8)
				if err != nil {
					t.Fatal(err)
				}
				rt.SetFaultInjector(inj)
				got, err := runFaultLoop(rt)
				if err != nil || inj.PointFaults() != 7 {
					t.Fatalf("GOMAXPROCS=%d grain %d: %d faults fired, err %v; want the cap of 7 recovered", cpus, grain, inj.PointFaults(), err)
				}
				if diff := Diff(got, want, recovered...); diff != "" {
					t.Fatalf("GOMAXPROCS=%d grain %d: recovered run differs from the fault-free one: %s", cpus, grain, diff)
				}
				// The failures one recovery repairs may be noted by two
				// workers in either order, so each such run is sorted.
				// Which synchronization point first sees a queued failure
				// depends on the executor, and with it when the recovery
				// runs, so the marks' times are not compared here.
				var faults, run []prof.Mark
				for _, m := range append(sink.Snapshot().Marks, prof.Mark{Kind: prof.MarkRestore}) {
					if m.Kind == prof.MarkFault {
						run = append(run, prof.Mark{Kind: m.Kind, Task: m.Task, Point: m.Point})
						continue
					}
					sort.Slice(run, func(i, j int) bool { return run[i].Point < run[j].Point })
					faults, run = append(faults, run...), run[:0]
				}
				if wantFaults == nil {
					wantFaults = faults
				} else if !reflect.DeepEqual(faults, wantFaults) {
					t.Fatalf("GOMAXPROCS=%d grain %d: faults %v, want %v", cpus, grain, faults, wantFaults)
				}
			}
		}
	})

	t.Run("cancel skips the kernel and completes the launch", func(t *testing.T) {
		rt := newTestRuntime(t, 2)
		r := rt.CreateRegion("v", 64, Float64)
		var fired bool
		rt.SetCancelCheck(func() error {
			if fired {
				return errors.New("deadline exceeded")
			}
			return nil
		})
		inc(rt, r, addOne)
		fired = true
		fut := inc(rt, r, addOne)
		if !ranInline(fut) {
			t.Fatal("the cancelled launch did not complete inside Execute")
		}
		rt.Fence()
		if rt.Cancelled() == nil || rt.Err() != nil {
			t.Fatalf("Cancelled = %v, Err = %v", rt.Cancelled(), rt.Err())
		}
		for i, v := range r.Float64s() {
			if v != 1 {
				t.Fatalf("element %d = %v: a kernel ran after cancellation", i, v)
			}
		}
		rt.ClearCancel()
		inc(rt, r, addOne)
		rt.Fence()
		if v := r.Float64s()[0]; v != 2 {
			t.Fatalf("after ClearCancel element 0 = %v, want 2", v)
		}
	})

	t.Run("waiters do not block", func(t *testing.T) {
		rt := newTestRuntime(t, 2)
		r := rt.CreateRegion("v", 64, Float64)
		sum := rt.NewLaunch("sum", 2, func(tc *TaskContext) {
			d := tc.Float64(0)
			var s float64
			tc.Subspace(0).Each(func(i int64) { s += d[i] + 1 })
			tc.Reduce(s)
		})
		sum.Add(r, rt.BlockPartition(r, 2), ReadOnly)
		fut := sum.Execute()
		if !ranInline(fut) {
			t.Fatal("the reduction did not run inline")
		}
		if got := fut.Get(); got != 64 {
			t.Fatalf("Get = %v, want 64", got)
		}
		inc(rt, r, addOne)
		rt.Fence()
		inc(rt, r, addOne)
		rt.Destroy(r)
		if fut.launch.done != nil {
			t.Error("a launch nobody had to block on grew a completion channel")
		}
	})
}

// TestQueuedWakeups keeps the wakeup protocol TestWakeupStress pins
// under load now that its tiny launches run inline by default: the same
// dependent chains with every launch queued, so both workers park and
// wake every few microseconds. A lost wakeup hangs the loop and the
// package timeout reports it with stacks.
func TestQueuedWakeups(t *testing.T) {
	budget := time.Second
	if testing.Short() {
		budget = 200 * time.Millisecond
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cpus := range []int{2, 1} {
		runtime.GOMAXPROCS(cpus)
		rt := newTestRuntime(t, 2)
		rt.inlineGrain = 0
		r := rt.CreateRegion("v", 16, Float64)
		chains := 0
		for deadline := time.Now().Add(budget); time.Now().Before(deadline); chains++ {
			for k := 0; k < 8; k++ {
				incLaunch(rt, r, 2)
			}
			if got := dot(rt, r, r); got != 16*float64(8*(chains+1))*float64(8*(chains+1)) {
				t.Fatalf("chain %d: r·r = %v", chains, got)
			}
		}
		t.Logf("GOMAXPROCS=%d: %d chains (%d launches)", cpus, chains, 9*chains)
	}
}

// BenchmarkExecutorCrossover times eight CG iterations on a tridiagonal
// matrix with every launch queued and with every runnable launch inline,
// across row counts — the measurement behind inlineGrainElems (DESIGN.md,
// "Who runs a point"). The footprint of an iteration's largest launch,
// the SpMV, is 9 elements a row.
func BenchmarkExecutorCrossover(b *testing.B) {
	for _, rows := range []int64{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20} {
		for _, g := range []int{0, 2} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, grains[g].name), func(b *testing.B) {
				rt := newTestRuntime(b, 2)
				rt.inlineGrain = grains[g].grain
				c := newCGProblem(rt, rows)
				for i := 0; i < 8; i++ {
					c.iterate()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for it := 0; it < 8; it++ {
						c.iterate()
					}
				}
			})
		}
	}
}
