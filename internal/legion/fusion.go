package legion

// Task fusion [Yadav et al., PPoPP'24], the second optimization the
// paper names as the future fix for the launch overheads its GMG and
// quantum benchmarks expose ("could be fixed in the future with tracing
// [18] and task fusion [32]", §6.1).
//
// The runtime keeps a bounded deferral window over Execute: launches
// marked SetFusable are buffered rather than issued, and a run of
// compatible launches — same launch domain, same op class, and region
// requirements that are producer–consumer through the same partition or
// independent (no conflicting access through a different partition) —
// is replaced by ONE fused launch whose kernel runs the member kernels
// back to back. The fused launch pays a single LaunchOverhead +
// AnalysisPerPoint charge on the simulated clock and, on the real one,
// one pass through the launch path — one goroutine round-trip per point
// when its points are queued, none when the issuing goroutine runs them
// (Runtime.runsInline) — instead of N, while dependence analysis sees
// the union of the members' requirements so sequential semantics are
// unchanged.
//
// The window is transparent: any operation that could observe the
// deferred launches — Fence, Destroy, SimTime, Future resolution, trace
// boundaries, image computation — flushes it first. Fusion composes
// with tracing: a fused launch issued inside a replayed trace pays the
// TraceReplayFactor-discounted analysis cost like any other launch.

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
)

// DefaultWindow is the fusion window size new runtimes start with.
const DefaultWindow = 16

var defaultWindow atomic.Int64

func init() { defaultWindow.Store(DefaultWindow) }

// DefaultFusionWindow returns the fusion window size applied to newly
// created runtimes.
func DefaultFusionWindow() int { return int(defaultWindow.Load()) }

// SetDefaultFusionWindow sets the fusion window size applied to newly
// created runtimes; n <= 1 disables fusion. Existing runtimes are not
// affected (use Runtime.SetFusionWindow).
func SetDefaultFusionWindow(n int) { defaultWindow.Store(int64(n)) }

// SetFusionWindow resizes this runtime's fusion window; n <= 1 disables
// fusion. Any buffered launches are flushed first. Must be called from
// the application goroutine.
func (rt *Runtime) SetFusionWindow(n int) {
	rt.FlushFusion()
	if n <= 1 {
		rt.fuser = nil
		return
	}
	rt.fuser = &fuser{rt: rt, max: n}
}

// FusionWindow returns the runtime's current fusion window size (0 when
// fusion is disabled).
func (rt *Runtime) FusionWindow() int {
	if rt.fuser == nil {
		return 0
	}
	return rt.fuser.max
}

// FlushFusion issues any launches buffered in the fusion window. Like
// Execute, it must be called from the application goroutine; it is a
// no-op when fusion is disabled or the window is empty.
func (rt *Runtime) FlushFusion() {
	f := rt.fuser
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.submitLocked()
	// Drop the window's references; the next window refills the arrays.
	clear(f.buf)
	clear(f.futs)
	clear(f.entries)
	f.buf, f.futs, f.entries = f.buf[:0], f.futs[:0], f.entries[:0]
}

// fusedMember is one original launch folded into a fused launch. It
// keeps its own requirements and args so its kernel sees exactly the
// TaskContext it would have seen unfused.
type fusedMember struct {
	name   string
	kernel KernelFunc
	reqs   []req
	args   any
	work   workSource
	stream int64 // the member's own launch-stream position (fault/replay key)
}

// winEntry tracks one (region, partition) access pattern accumulated in
// the window, for conflict detection and merged-privilege computation.
type winEntry struct {
	region *Region
	part   *Partition
	first  Privilege // privilege of the first access in the window
	write  bool      // any member writes through this entry
}

// merged is the privilege the fused launch declares for this entry: the
// union of the members' accesses, except that a window whose first
// access discards the old contents keeps WriteDiscard (later members
// read what the first member wrote on the same processor, not the
// pre-window contents, so no coherence copy-in is needed).
func (e *winEntry) merged() Privilege {
	switch {
	case !e.write:
		return ReadOnly
	case e.first == WriteDiscard:
		return WriteDiscard
	default:
		return ReadWrite
	}
}

// fuser is the runtime's deferral window. Offers and flushes happen on
// the application goroutine; the mutex only guards against concurrent
// Future resolution from tests that misbehave.
type fuser struct {
	rt  *Runtime
	max int

	mu      sync.Mutex
	buf     []*Launch
	futs    []*Future
	entries []winEntry // at most max launches × a few requirements: scanned, not indexed
	points  int
	opClass machine.OpClass
}

// offer buffers l if it is fusable and compatible with the current
// window, returning its pending Future; it returns nil when the launch
// must be issued immediately (flushing the window first so program
// order is preserved).
func (f *fuser) offer(l *Launch) *Future {
	if !l.fusionEligible() {
		f.rt.FlushFusion()
		return nil
	}
	f.mu.Lock()
	compatible := len(f.buf) == 0 || f.compatLocked(l)
	f.mu.Unlock()
	if !compatible {
		f.rt.FlushFusion()
	}
	f.mu.Lock()
	fut := f.admitLocked(l)
	full := len(f.buf) >= f.max
	f.mu.Unlock()
	if full {
		f.rt.FlushFusion()
	}
	return fut
}

// fusionEligible reports whether the launch may enter the window at all.
// ReduceSum requirements are excluded: their point tasks alias and their
// accumulation order is nondeterministic, so deferring them buys nothing
// and fusing them would entangle reduction instances.
func (l *Launch) fusionEligible() bool {
	if !l.fusable || len(l.fused) > 0 || l.procMap != nil {
		return false
	}
	for _, rq := range l.reqs {
		if rq.priv == ReduceSum {
			return false
		}
	}
	return true
}

// compatLocked reports whether l can join the current window: same
// launch domain and op class, and every requirement either goes through
// a (region, partition) pair already in the window or does not conflict
// — a region touched through two different partitions is allowed only
// if nobody writes it through either.
func (f *fuser) compatLocked(l *Launch) bool {
	if l.points != f.points || l.opClass != f.opClass {
		return false
	}
	for _, rq := range l.reqs {
		for i := range f.entries {
			e := &f.entries[i]
			if e.region != rq.region || e.part == rq.part {
				continue
			}
			if e.write || rq.priv.writes() {
				return false
			}
		}
	}
	return true
}

// admitLocked adds l to the window and returns its pending Future.
func (f *fuser) admitLocked(l *Launch) *Future {
	if len(f.buf) == 0 {
		f.points = l.points
		f.opClass = l.opClass
	}
	for _, rq := range l.reqs {
		var e *winEntry
		for i := range f.entries {
			if f.entries[i].region == rq.region && f.entries[i].part == rq.part {
				e = &f.entries[i]
				break
			}
		}
		if e == nil {
			f.entries = append(f.entries, winEntry{region: rq.region, part: rq.part, first: rq.priv})
			e = &f.entries[len(f.entries)-1]
		}
		if rq.priv.writes() {
			e.write = true
		}
	}
	f.buf = append(f.buf, l)
	fut := &Future{rt: f.rt}
	f.futs = append(f.futs, fut)
	return fut
}

// submitLocked issues the window: a single launch goes out as-is; a run
// of two or more becomes one fused launch with the union requirements
// and the member kernels composed in program order.
func (f *fuser) submitLocked() {
	buf := f.buf
	if len(buf) == 0 {
		return
	}
	rt := f.rt
	if len(buf) == 1 {
		f.futs[0].launch = rt.executeNow(buf[0])
		return
	}
	fl := rt.NewLaunch(fusedName(buf), buf[0].points, nil)
	fl.opClass = buf[0].opClass
	for i := range f.entries {
		e := &f.entries[i]
		fl.reqs = append(fl.reqs, req{region: e.region, part: e.part, priv: e.merged()})
	}
	fl.fused = make([]fusedMember, len(buf))
	for i, l := range buf {
		fl.fused[i] = fusedMember{name: l.name, kernel: l.kernel, reqs: l.reqs, args: l.args, work: l.work, stream: l.stream}
	}
	inner := rt.executeNow(fl)
	rt.profile.recordFusion(len(buf))
	for _, fu := range f.futs {
		fu.launch = inner
	}
}

// fusedName labels a fused launch after its members, truncated so
// profiles stay readable for long windows.
func fusedName(buf []*Launch) string {
	const maxNames = 4
	names := make([]string, 0, maxNames+1)
	for i, l := range buf {
		if i == maxNames {
			names = append(names, "…")
			break
		}
		names = append(names, l.name)
	}
	s := "fused[" + strings.Join(names, "+") + "]"
	return s
}

// runFusedPoint executes one point of a fused launch: each member kernel
// runs in program order against its own requirements and subspaces.
// Member fail's injected fault (decided at issue; -1 for none) panics
// before its kernel, aborting the whole point (the caller records one
// point failure), and recovery replays the members individually.
func (rt *Runtime) runFusedPoint(ls *launchState, tc *TaskContext, fail int) {
	point := tc.point
	var partial float64
	var hasPartial bool
	for mi := range ls.fused {
		m := &ls.fused[mi]
		rt.injectDelay(m.stream, point)
		if mi == fail {
			panic(InjectedFault{Stream: m.stream, Point: point})
		}
		tc.bind(ls, point, m.reqs, m.args)
		m.kernel(tc)
		if tc.hasPartial {
			partial += tc.partial
			hasPartial = true
		}
	}
	if hasPartial {
		ls.pointPartials[point] = partial
		ls.reduces.Store(true)
	}
}
