package legion

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/geometry"
	"repro/internal/machine"
)

// Privilege declares how a task uses a region requirement; the runtime's
// dependence analysis is driven entirely by privileges (paper §2.2).
type Privilege int

const (
	// ReadOnly: the task reads the sub-region; concurrent with other reads.
	ReadOnly Privilege = iota
	// WriteDiscard: the task overwrites the sub-region without reading it;
	// prior contents need not be copied to the executing processor.
	WriteDiscard
	// ReadWrite: the task reads and writes the sub-region.
	ReadWrite
	// ReduceSum: the task accumulates into the sub-region with +. Point
	// tasks of one launch may alias; they must use TaskContext.ReduceAdd
	// so concurrent accumulation is safe.
	ReduceSum
)

func (p Privilege) String() string {
	switch p {
	case ReadOnly:
		return "RO"
	case WriteDiscard:
		return "WD"
	case ReadWrite:
		return "RW"
	case ReduceSum:
		return "RD+"
	default:
		return fmt.Sprintf("Privilege(%d)", int(p))
	}
}

func (p Privilege) writes() bool { return p != ReadOnly }
func (p Privilege) reads() bool  { return p == ReadOnly || p == ReadWrite }

// KernelFunc is the body of a point task. It runs on behalf of the
// assigned processor and must only touch the indices in its declared
// subspaces. tc belongs to the processor and is valid only until the
// kernel returns.
type KernelFunc func(tc *TaskContext)

// req is one region requirement of a launch.
type req struct {
	region *Region
	part   *Partition // nil means the whole region for every point
	priv   Privilege
}

// Launch is an index task launch under construction: a kernel, a launch
// domain (number of points), and a set of region requirements. A launch
// with Points == 1 behaves like a single task.
type Launch struct {
	rt      *Runtime
	name    string
	points  int
	kernel  KernelFunc
	reqs    []req
	args    any
	opClass machine.OpClass
	work    workSource          // the cost model's per-point work
	fusable bool                // eligible for the runtime's fusion window
	fused   []fusedMember       // set by the fuser on a fused launch
	procMap func(point int) int // optional point→proc override (index into Procs)
	stream  int64               // launch-stream position, set at Execute (fault/replay key)
	reqBuf  [6]req              // backs reqs for the usual requirement counts
}

// workSource declares how many elements a point task processes — the
// work the cost model charges its kernel for: factor times the size of
// requirement req's subspace. The zero value is the default rule: the
// first written requirement's subspace, else the first read one's. A
// declared size of 0 falls back to that rule too, so a row block without
// nonzeros still charges its rows.
type workSource struct {
	req    int
	factor int64 // 0: the default rule
}

// of returns the work of point p of a kernel with requirements reqs.
func (ws workSource) of(reqs []req, p int) int64 {
	if ws.factor > 0 {
		if n := reqs[ws.req].size(p); n > 0 {
			return n * ws.factor
		}
	}
	firstRead := int64(-1)
	for _, rq := range reqs {
		if rq.priv.writes() {
			return rq.size(p)
		}
		if firstRead < 0 {
			firstRead = rq.size(p)
		}
	}
	return max(firstRead, 0)
}

// NewLaunch begins building an index launch of the given number of point
// tasks. Launches must be built and executed from the application
// goroutine; Legion's sequential-semantics guarantee is defined relative
// to the order Execute is called in.
func (rt *Runtime) NewLaunch(name string, points int, kernel KernelFunc) *Launch {
	if points <= 0 {
		panic(fmt.Sprintf("legion: launch %q with %d points", name, points))
	}
	l := &Launch{rt: rt, name: name, points: points, kernel: kernel, opClass: machine.Stream}
	l.reqs = l.reqBuf[:0]
	return l
}

// Add attaches a region requirement through a partition. The partition's
// color c supplies point c's subspace; its color count must equal the
// launch domain. Writing privileges require a disjoint partition.
// Add returns the requirement's index for use with TaskContext accessors.
func (l *Launch) Add(r *Region, part *Partition, priv Privilege) int {
	if part == nil {
		panic("legion: Add requires a partition; use AddWhole for unpartitioned requirements")
	}
	if part.Region() != r {
		panic(fmt.Sprintf("legion: launch %q: partition of %q used for region %q",
			l.name, part.Region().name, r.name))
	}
	if part.Colors() != l.points {
		panic(fmt.Sprintf("legion: launch %q: partition has %d colors, launch has %d points",
			l.name, part.Colors(), l.points))
	}
	if (priv == WriteDiscard || priv == ReadWrite) && !part.Disjoint() {
		panic(fmt.Sprintf("legion: launch %q: write privilege through aliased partition of %q",
			l.name, r.name))
	}
	l.reqs = append(l.reqs, req{region: r, part: part, priv: priv})
	return len(l.reqs) - 1
}

// AddWhole attaches the entire region to every point task. Writing
// privileges are only allowed for single-point launches.
func (l *Launch) AddWhole(r *Region, priv Privilege) int {
	if priv.writes() && priv != ReduceSum && l.points > 1 {
		panic(fmt.Sprintf("legion: launch %q: whole-region write with %d points", l.name, l.points))
	}
	l.reqs = append(l.reqs, req{region: r, priv: priv})
	return len(l.reqs) - 1
}

// SetArgs attaches by-value arguments visible to every point task.
func (l *Launch) SetArgs(a any) *Launch { l.args = a; return l }

// SetOpClass sets the cost-model class of the kernel (default Stream).
func (l *Launch) SetOpClass(c machine.OpClass) *Launch { l.opClass = c; return l }

// SetWorkSource declares each point's work (elements processed) as
// factor times the size of requirement req's subspace — a SpMV row
// block's nonzeros, say, as the size of its image in crd. The runtime
// reads it when it issues the launch (workSource has the default), so no
// kernel reports work.
func (l *Launch) SetWorkSource(req int, factor int64) *Launch {
	if req < 0 || req >= len(l.reqs) || factor < 1 {
		panic(fmt.Sprintf("legion: launch %q: work source %d×%d of %d requirements", l.name, req, factor, len(l.reqs)))
	}
	l.work = workSource{req: req, factor: factor}
	return l
}

// SetFusable marks the launch as eligible for the runtime's task-fusion
// window (see fusion.go). Only side-effect-free data-parallel kernels
// whose point tasks touch nothing outside their declared subspaces may
// be marked; launches with ReduceSum requirements or reduction futures
// are never fused regardless.
func (l *Launch) SetFusable(on bool) *Launch { l.fusable = on; return l }

// MapPoints overrides the runtime's round-robin point→processor mapping
// for this launch: f(point) indexes into Runtime.Procs(). Used by tests
// and mappers that need a non-identity placement.
func (l *Launch) MapPoints(f func(point int) int) *Launch { l.procMap = f; return l }

// Future is the result of a reduction launch. Get blocks until the value
// is ready; for multi-processor runs it also charges the modeled cost of
// the all-reduce that a distributed execution would perform, which is the
// overhead the paper observes dominating the CG solve at 32+ nodes (§6.1).
type Future struct {
	launch *launchState // nil while the launch sits in the fusion window; the fuser sets it at flush
	rt     *Runtime
}

// resolve returns the backing launchState, flushing the fusion window
// first if the producing launch is still buffered. Like Execute, it must
// be called from the application goroutine.
func (f *Future) resolve() *launchState {
	if f.launch == nil {
		f.rt.FlushFusion()
	}
	return f.launch
}

// Get waits for the producing launch and returns the reduced value.
// Like Fence, a future read is a recovery point: if a point task failed
// since the last checkpoint, the suffix is replayed (correcting the
// reduction) before the value is returned.
func (f *Future) Get() float64 {
	ls := f.resolve()
	ls.wait()
	f.rt.maybeRecover()
	f.rt.chargeAllReduce()
	return ls.reducedValue()
}

// GetNoSync returns the reduced value without charging all-reduce cost;
// used by tests that want the value without perturbing the sim clock.
func (f *Future) GetNoSync() float64 {
	ls := f.resolve()
	ls.wait()
	f.rt.maybeRecover()
	return ls.reducedValue()
}

// TaskContext is the interface a kernel uses to reach its data. Accessor
// methods take the requirement index returned by Launch.Add.
type TaskContext struct {
	launch     *launchState
	point      int
	subs       []geometry.IntervalSet
	reqs       []req // this kernel's requirements (≠ launch reqs when fused)
	args       any
	partial    float64
	hasPartial bool

	// subsBuf backs subs for the usual requirement counts, so binding a
	// processor's context to its next point allocates nothing.
	subsBuf [8]geometry.IntervalSet
}

// bind points the context at one point of a kernel's requirements,
// materializing the index subspace of each.
func (tc *TaskContext) bind(ls *launchState, point int, reqs []req, args any) {
	tc.launch, tc.point, tc.reqs, tc.args = ls, point, reqs, args
	tc.partial, tc.hasPartial = 0, false
	tc.subs = tc.subsBuf[:0]
	for _, rq := range reqs {
		tc.subs = append(tc.subs, rq.subspace(point))
	}
}

// subspace returns the indices of rq that point touches: its color of the
// partition, or the whole region for an unpartitioned requirement.
func (rq req) subspace(point int) geometry.IntervalSet {
	if rq.part != nil {
		return rq.part.Subspace(point)
	}
	if rq.region.size > 0 {
		return geometry.NewIntervalSet(rq.region.Domain())
	}
	return geometry.IntervalSet{}
}

// size is the number of indices of rq that point touches.
func (rq req) size(point int) int64 {
	if rq.part != nil {
		return rq.part.Subspace(point).Size()
	}
	return rq.region.size
}

// Point returns this point task's color within the launch domain.
func (tc *TaskContext) Point() int { return tc.point }

// NumPoints returns the launch domain size.
func (tc *TaskContext) NumPoints() int { return tc.launch.points }

// Args returns the launch arguments set with SetArgs.
func (tc *TaskContext) Args() any { return tc.args }

// Subspace returns the index set of requirement i for this point.
func (tc *TaskContext) Subspace(i int) geometry.IntervalSet { return tc.subs[i] }

// Bounds returns the bounding interval of requirement i's subspace.
func (tc *TaskContext) Bounds(i int) geometry.Rect { return tc.subs[i].Bounds() }

// Float64 returns the float64 backing slice of requirement i's region.
// The kernel must only touch indices within Subspace(i).
func (tc *TaskContext) Float64(i int) []float64 { return tc.reqs[i].region.Float64s() }

// Int64 returns the int64 backing slice of requirement i's region.
func (tc *TaskContext) Int64(i int) []int64 { return tc.reqs[i].region.Int64s() }

// Rects returns the rect backing slice of requirement i's region.
func (tc *TaskContext) Rects(i int) []geometry.Rect { return tc.reqs[i].region.Rects() }

// Complex returns the complex128 backing slice of requirement i's region.
func (tc *TaskContext) Complex(i int) []complex128 { return tc.reqs[i].region.Complexes() }

// Reduce contributes this point's partial value to the launch's reduction
// future. Partials are summed.
func (tc *TaskContext) Reduce(v float64) { tc.partial = v; tc.hasPartial = true }

// ReduceAdd atomically adds v to element idx of requirement i's float64
// region. Kernels must use it when accumulating through a ReduceSum
// requirement whose partition is aliased across points.
func (tc *TaskContext) ReduceAdd(i int, idx int64, v float64) {
	s := tc.reqs[i].region.Float64s()
	addr := (*uint64)(unsafe.Pointer(&s[idx]))
	for {
		old := atomic.LoadUint64(addr)
		cur := math.Float64frombits(old)
		if atomic.CompareAndSwapUint64(addr, old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// launchState is the runtime's record of an executing launch: its
// dependence edges, completion tracking, reduction accumulator, and
// simulated-time bookkeeping.
type launchState struct {
	seq     int64
	name    string
	points  int
	kernel  KernelFunc
	reqs    []req
	args    any
	opClass machine.OpClass
	reduces atomic.Bool // some point stored a reduction partial
	work    workSource
	fused   []fusedMember       // non-empty for a fused launch
	procMap func(point int) int // optional point→proc override
	stream  int64               // launch-stream position (0 for a fused carrier; members keep theirs)
	replay  bool                // re-executed by recovery replay (see replayEntry)

	// Profiling tags: the optimization regime this launch was issued
	// under, set in executeNow under rt.mu, read by workers only after
	// the launch dispatches (see internal/prof).
	traceID     int64
	traceEpoch  int64
	traceReplay bool
	ckptEpoch   int64

	// Dependence DAG. depCount holds remaining unfinished dependencies
	// plus a registration guard; the launch dispatches when it hits zero.
	// depMark is the seq of the latest launch that collected this one as
	// a dependency (de-duplication; under rt.mu).
	depCount atomic.Int64
	depMark  int64
	ready    atomic.Bool
	children []*launchState
	childMu  sync.Mutex

	// Completion. completed is set under childMu; done exists only if
	// somebody had to block on the launch.
	remaining atomic.Int64 // unfinished point tasks
	completed atomic.Bool
	done      chan struct{}

	// Reduction result. Each point writes its own partial slot; the
	// completing point sums the slots in point order (deterministic, and
	// reproducible by recovery replay — see completeLaunch).
	pointPartials []float64
	partialBuf    [4]float64    // backs pointPartials for narrow launches
	reduced       atomic.Uint64 // math.Float64bits of the sum

	// fut is the Future Execute hands out for an unbuffered launch.
	fut Future

	// Simulated time, all of it computed by mapLaunch at issue: the
	// launch is issued at issueAt on the analysis timeline, point p
	// finishes at finishes[p], and finishAt is the latest of them.
	issueAt   time.Duration
	finishes  []time.Duration
	finishBuf [4]time.Duration // backs finishes for narrow launches
	finishAt  time.Duration

	// failAt maps a point whose injected fault was decided at issue to
	// the member (0 unless fused) whose kernel raises it; nil if none.
	failAt map[int]int
}

// wait blocks until the launch has completed.
func (ls *launchState) wait() {
	if ls.completed.Load() {
		return
	}
	ls.childMu.Lock()
	if ls.completed.Load() {
		ls.childMu.Unlock()
		return
	}
	if ls.done == nil {
		ls.done = make(chan struct{})
	}
	done := ls.done
	ls.childMu.Unlock()
	<-done
}

func (ls *launchState) reducedValue() float64 { return math.Float64frombits(ls.reduced.Load()) }

// resetTimeline zeroes the launch's simulated-time marks; only valid for
// completed launches (callers hold the runtime fenced).
func (ls *launchState) resetTimeline() { ls.issueAt, ls.finishAt = 0, 0 }
