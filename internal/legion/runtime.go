package legion

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/prof"
)

// Runtime executes a sequential stream of index task launches with
// Legion's semantics: dependencies between launches are extracted
// dynamically from region requirements and privileges, independent
// launches run in parallel, and point tasks within a launch execute
// concurrently on the runtime's processors (one worker goroutine each).
// A launch too small to gain from that — see runsInline — runs its
// points on the issuing goroutine instead, in the same per-processor
// order.
//
// Two clocks exist. Wall-clock time is real but meaningless for
// weak-scaling (the host has a fixed core count); the *simulated* clock
// assigns each point task a start/finish on its processor's timeline
// using the machine cost model (kernel rates, copy bandwidths, launch
// overheads), which is what the benchmark harness reports. The simulated
// timeline is computed when a launch is issued, in issue order (see
// mapLaunch), so it does not depend on who runs the kernels or when.
type Runtime struct {
	mach  *machine.Machine
	cost  *machine.CostModel
	procs []machine.ProcID
	stats *machine.Stats
	map_  *Mapper
	fuser *fuser // nil when task fusion is disabled

	// Fault tolerance (see fault.go). faultInj and ft are written on the
	// application goroutine behind a Fence, then read by workers (delays,
	// failure records); domain and streamPos are application-goroutine-only.
	faultInj  FaultInjector
	ft        *ftState
	domain    int   // default launch-domain size; stable across proc loss
	streamPos int64 // launches issued, the fault/replay stream position

	// Observability (see internal/prof). Like faultInj, the sink is
	// written on the application goroutine behind a Fence and then read
	// lock-free by workers; a nil sink costs one pointer compare per
	// event site.
	prof    *prof.Sink
	profRun int

	// Cooperative cancellation (see cancel.go). cancelCheck is
	// application-goroutine-only; cancelFired is the lock-free flag
	// workers poll to skip kernels once the check fires.
	cancelCheck func() error
	cancel      cancelState
	cancelFired atomic.Bool

	mu             sync.Mutex
	nextRegion     RegionID
	nextColoring   int64
	nextSeq        int64
	regions        map[RegionID]*regionState
	imageCache     map[imageKey]*Partition
	partCache      map[partCacheKey]*Partition
	alignCache     map[alignKey]*Partition
	imageSets      map[imageSetsKey]*imageSetsEntry
	blockColorings map[blockTiling]int64
	cacheStats     CacheStats
	analysisClock  time.Duration
	err            error

	traceActive    bool
	traceReplaying bool
	traceID        int64           // active trace id (0 when no trace is open)
	traceEpoch     int64           // nth execution of the active trace (1 = recording)
	traceEpochs    map[int64]int64 // executions so far per trace id

	// The simulated clock: when each processor's last issued point
	// finishes, and the furthest time any timeline reached. Written only
	// on the application goroutine, in issue order.
	procBusy map[machine.ProcID]time.Duration
	simMax   time.Duration

	workers  []*worker // workers[i] executes the points of procs[i]
	pending  sync.WaitGroup
	shutdown bool

	// inlineGrain is the footprint up to which a runnable launch executes
	// on the issuing goroutine: always inlineGrainElems outside this
	// package's tests, which set 0 or MaxInt64 to force one executor.
	inlineGrain int64
}

// inlineGrainElems is the parallel grain: the launch footprint — summed
// element count of its requirements' regions — under which handing the
// points to the worker goroutines costs more than running them where
// they were issued. DESIGN.md, "Who runs a point", has the measured
// crossover, which sits well above this.
const inlineGrainElems = 1 << 15

// regionState is the dependence-analysis state of one region: the
// launches that last wrote it and the readers since.
//
// Only a writer clears readers, so a region that is never written again
// (a matrix's pos/crd/vals) would otherwise retain every launch that ever
// read it. addReader therefore compacts completed readers away, folding
// their finish times into readDone, which the next writer waits for
// exactly as it would have waited for them.
type regionState struct {
	lastWriter *launchState
	readers    []*launchState
	readDone   time.Duration // largest finish time among compacted readers
	compactAt  int           // reader count that triggers the next compaction
}

// readerCompactMin is the reader count below which a region's reader
// list is never compacted: a solver iteration's worth of reads of one
// operand stays a plain append.
const readerCompactMin = 16

// addReader records ls as a reader since the last write. Caller holds
// rt.mu. The scan is amortised: the next one waits until the list has
// doubled past the launches still in flight.
func (st *regionState) addReader(ls *launchState) {
	if len(st.readers) >= max(st.compactAt, readerCompactMin) {
		live := st.readers[:0]
		for _, rd := range st.readers {
			if rd.completed.Load() {
				st.readDone = max(st.readDone, rd.finishAt)
			} else {
				live = append(live, rd)
			}
		}
		clear(st.readers[len(live):])
		st.readers = live
		st.compactAt = 2 * len(live)
	}
	st.readers = append(st.readers, ls)
}

// defaultProfiler, when set, is attached to every newly created
// runtime — how cmd/legate-bench threads -prof-out through the bench
// package's internally constructed runtimes (mirrors
// SetDefaultFusionWindow).
var defaultProfiler atomic.Pointer[prof.Sink]

// SetDefaultProfiler installs a sink that newly created runtimes attach
// to automatically (nil clears it). Existing runtimes are unaffected;
// use Runtime.EnableProfiling for those.
func SetDefaultProfiler(s *prof.Sink) { defaultProfiler.Store(s) }

// DefaultProfiler returns the sink applied to newly created runtimes.
func DefaultProfiler() *prof.Sink { return defaultProfiler.Load() }

// NewRuntime creates a runtime that schedules onto the given processors
// of the machine. The processor list fixes both the parallelism (one
// point task per processor per launch, by default) and the kind of
// kernels that run (all-CPU or all-GPU, matching the paper's "CPU-only
// and GPU-only settings").
func NewRuntime(m *machine.Machine, procs []machine.ProcID) *Runtime {
	if len(procs) == 0 {
		panic("legion: NewRuntime requires at least one processor")
	}
	rt := &Runtime{
		mach:       m,
		cost:       m.Cost(),
		procs:      procs,
		domain:     len(procs),
		stats:      &machine.Stats{},
		regions:    map[RegionID]*regionState{},
		imageCache: map[imageKey]*Partition{},
		partCache:  map[partCacheKey]*Partition{},
		alignCache: map[alignKey]*Partition{},
		imageSets:  map[imageSetsKey]*imageSetsEntry{},
		procBusy:   map[machine.ProcID]time.Duration{},

		blockColorings: map[blockTiling]int64{},
		inlineGrain:    inlineGrainElems,
	}
	rt.map_ = newMapper(rt)
	if s := DefaultProfiler(); s != nil {
		rt.prof = s
		rt.profRun = s.AttachRun()
	}
	if n := DefaultFusionWindow(); n > 1 {
		rt.fuser = &fuser{rt: rt, max: n}
	}
	for _, p := range procs {
		w := newWorker(rt, p)
		rt.workers = append(rt.workers, w)
		go w.run()
	}
	return rt
}

// Machine returns the machine this runtime schedules onto.
func (rt *Runtime) Machine() *machine.Machine { return rt.mach }

// Cost returns the runtime's machine cost model.
func (rt *Runtime) Cost() *machine.CostModel { return rt.cost }

// Procs returns the processors this runtime schedules onto.
func (rt *Runtime) Procs() []machine.ProcID { return rt.procs }

// NumProcs returns the number of *live* processors. This shrinks when a
// processor is retired after a fault; distributed operations should size
// their launch domains with LaunchDomain, which stays stable.
func (rt *Runtime) NumProcs() int { return len(rt.procs) }

// ProcKind returns the kind of the runtime's processors.
func (rt *Runtime) ProcKind() machine.ProcKind { return rt.mach.Proc(rt.procs[0]).Kind }

// Stats returns the runtime's statistics counters.
func (rt *Runtime) Stats() *machine.Stats { return rt.stats }

// Mapper exposes the mapper for inspection in tests.
func (rt *Runtime) Mapper() *Mapper { return rt.map_ }

// EnableProfiling attaches an observability sink (see internal/prof):
// the runtime publishes task spans, dependence edges, coherence copies,
// mapper events, and fault-recovery marks into it. It fences first so
// worker goroutines observe the sink before any instrumented launch.
// A nil sink disables profiling.
func (rt *Runtime) EnableProfiling(s *prof.Sink) {
	rt.Fence()
	rt.prof = s
	if s != nil {
		rt.profRun = s.AttachRun()
	}
}

// Profiler returns the attached observability sink, or nil.
func (rt *Runtime) Profiler() *prof.Sink { return rt.prof }

// Err returns the sticky first error (e.g. modeled OOM) hit by any task,
// or nil. Once set, subsequent kernels are skipped; callers should check
// Err after Fence.
func (rt *Runtime) Err() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.err
}

func (rt *Runtime) setErr(err error) {
	rt.mu.Lock()
	if rt.err == nil {
		rt.err = err
	}
	rt.mu.Unlock()
}

func (rt *Runtime) errSet() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.err != nil
}

// Destroy marks a region out of scope: its allocations return to the
// mapper's free pools for reuse by future regions (§4.3). Issued launches
// may still use it — they were mapped at issue — but no later one may.
func (rt *Runtime) Destroy(r *Region) {
	if r == nil || r.destroyed {
		return
	}
	// Buffered launches may use the region; issue, and so map, them first.
	rt.FlushFusion()
	// Resolve outstanding failures first: replay may still write the
	// region, and pooling its allocations mid-recovery would skew the
	// modeled accounting.
	rt.maybeRecover()
	r.destroyed = true
	rt.map_.regionDestroyed(r)
	rt.mu.Lock()
	delete(rt.regions, r.id)
	rt.dropRegionCachesLocked(r)
	rt.mu.Unlock()
}

// Fence blocks until every launched task has completed, like Legion's
// execution fence. Like Execute, it must be called from the application
// goroutine (it flushes the fusion window first). A fence is also a
// recovery point: outstanding point failures are resolved and processor
// deaths observed before it returns, so post-fence reads see the same
// data a fault-free run would produce.
func (rt *Runtime) Fence() {
	rt.pollCancel()
	rt.FlushFusion()
	rt.pending.Wait()
	rt.maybeRecover()
	rt.checkProcDeaths()
}

// Shutdown stops the worker goroutines after draining outstanding work.
func (rt *Runtime) Shutdown() {
	rt.Fence()
	rt.mu.Lock()
	if rt.shutdown {
		rt.mu.Unlock()
		return
	}
	rt.shutdown = true
	rt.mu.Unlock()
	for _, w := range rt.workers {
		w.stop()
	}
}

// SimTime returns the current simulated time: the furthest point on any
// processor timeline or the analysis timeline.
func (rt *Runtime) SimTime() time.Duration {
	rt.FlushFusion()
	rt.maybeRecover()
	return rt.peekSimTime()
}

// ResetMetrics zeroes the simulated clocks and statistics without
// disturbing mapper state, so benchmarks can warm into the steady state
// (allocations settled, partitions cached) and then measure it — matching
// the paper's protocol of timing iterations after startup.
// Callers must Fence first.
func (rt *Runtime) ResetMetrics() {
	clear(rt.procBusy)
	rt.simMax = 0
	rt.mu.Lock()
	rt.analysisClock = 0
	// Rebase the recorded finish times of completed launches still
	// referenced by region state: new launches take their dependency
	// ready-times from these, and without rebasing the first post-reset
	// launch would inherit the pre-reset clock.
	for _, st := range rt.regions {
		if st.lastWriter != nil {
			st.lastWriter.resetTimeline()
		}
		for _, r := range st.readers {
			r.resetTimeline()
		}
		st.readDone = 0
	}
	rt.mu.Unlock()
	rt.stats = &machine.Stats{}
}

// chargeAllReduce models the synchronization of a future-producing
// reduction being read by the application: all processors join an
// all-reduce whose cost grows with log2(P).
func (rt *Runtime) chargeAllReduce() {
	if len(rt.procs) <= 1 {
		return
	}
	rt.stats.AllReduces.Add(1)
	rt.chargeBarrier(rt.cost.AllReduceTime(len(rt.procs)))
}

// AnalysisTime returns the simulated analysis-pipeline clock: the summed
// launch-analysis cost of every Execute so far (discounted under trace
// replay, charged once per fused launch).
func (rt *Runtime) AnalysisTime() time.Duration {
	rt.FlushFusion()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.analysisClock
}

// fenceRegion waits for all outstanding writers of r; used before the
// runtime itself reads region contents (image computation).
func (rt *Runtime) fenceRegion(r *Region) {
	rt.FlushFusion()
	rt.mu.Lock()
	var writer *launchState
	if st := rt.regions[r.id]; st != nil {
		writer = st.lastWriter
	}
	rt.mu.Unlock()
	if writer != nil {
		writer.wait()
	}
}

// ProcForPoint returns the processor point task p of a launch runs on.
// Points map round-robin onto the runtime's processors; when the domain
// equals the processor count (the common case) this is the identity
// mapping both libraries share, which is what keeps data from thrashing
// between operations launched by different libraries (§4.2).
func (rt *Runtime) ProcForPoint(p int) machine.ProcID {
	return rt.procs[p%len(rt.procs)]
}

// workerIndex resolves a launch's point→processor mapping to a position
// in procs/workers, honoring a MapPoints override.
func (rt *Runtime) workerIndex(ls *launchState, p int) int {
	i := p
	if ls.l.procMap != nil {
		i = ls.l.procMap(p)
	}
	i %= len(rt.workers)
	if i < 0 {
		i += len(rt.workers)
	}
	return i
}

func (rt *Runtime) workerForPoint(ls *launchState, p int) *worker {
	return rt.workers[rt.workerIndex(ls, p)]
}

// Execute submits the launch. Dependencies on earlier launches are
// extracted from region requirements; the launch runs as soon as they
// complete. Execute returns a Future carrying the launch's reduction
// value (meaningful only if some kernel calls TaskContext.Reduce).
//
// Execute must be called from the application goroutine: the sequential
// order of Execute calls defines the program whose semantics the runtime
// preserves.
//
// A launch marked SetFusable may be buffered in the runtime's fusion
// window rather than issued immediately; its Future resolves the window
// on first use, and any barrier (Fence, Destroy, SimTime, traces) also
// flushes it. Sequential semantics are preserved either way.
//
// A Launch is executed once; build a new one to run the same task again.
func (l *Launch) Execute() *Future {
	if l.stream != 0 {
		panic(fmt.Sprintf("legion: launch %q executed twice", l.name))
	}
	rt := l.rt
	rt.pollCancel()
	rt.streamPos++
	l.stream = rt.streamPos
	if rt.faultInj != nil || rt.ft != nil {
		rt.preLaunch(l)
	}
	rt.noteWrites(l.reqs)
	if f := rt.fuser; f == nil || !f.offer(l) {
		rt.executeNow(l)
	}
	return &l.fut
}

// noteWrites applies the program-order effects of a launch's writes that
// *later solves* observe — the region version bump and key-partition
// update — at Execute time, even if the launch itself is then buffered
// in the fusion window. Deferring these to flush time would change which
// key partitions the constraint solver sees for subsequent operations,
// and a partition choice (e.g. a stale partial-cover image partition)
// changes which indices a kernel visits.
func (rt *Runtime) noteWrites(reqs []req) {
	rt.mu.Lock()
	for _, rq := range reqs {
		if rq.priv.writes() {
			rq.region.version++
			if rq.part != nil {
				rq.region.keyPartition = rq.part
			}
		}
	}
	rt.mu.Unlock()
}

// newLaunchState builds the record of one execution of l and registers
// it with the fence; it completes when all its points have run. The
// caller issues it with mapLaunch.
func (rt *Runtime) newLaunchState(l *Launch) *launchState {
	ls := &launchState{l: l}
	if l.points <= len(ls.partialBuf) {
		ls.pointPartials, ls.finishes = ls.partialBuf[:l.points], ls.finishBuf[:l.points]
	} else {
		ls.pointPartials, ls.finishes = make([]float64, l.points), make([]time.Duration, l.points)
	}
	ls.remaining.Store(int64(l.points))
	rt.pending.Add(1)
	return ls
}

// mapLaunch issues ls point by point, in point order, on the application
// goroutine, so the mapper, the fault injector and the simulated clock
// see the launch stream in program order whoever later runs the points.
// For each point it maps the requirements onto the point's processor,
// decides whether an injected fault fires in it (decideFault), and
// places it on the processor's timeline: it starts once the launch is
// issued, its dependencies have finished (ready) and the processor's
// earlier points are done, and lasts the per-point overhead plus its
// copies plus its kernel time for its declared work — zero work if it
// fails. After the sticky error or a cancellation nothing is mapped or
// decided and points charge no work, since their kernels will not run.
func (rt *Runtime) mapLaunch(ls *launchState, ready time.Duration) {
	l := ls.l
	skip := rt.errSet() || rt.cancelFired.Load()
	ready = max(ready, ls.issueAt)
	for p := 0; p < l.points; p++ {
		proc := rt.workerForPoint(ls, p).proc
		var copyTime time.Duration
		for i := 0; !skip && i < len(l.reqs); i++ {
			rq := l.reqs[i]
			res, err := rt.map_.mapRequirement(proc, rq.region, rq.subspace(p), rq.priv)
			if err != nil {
				rt.setErr(err)
				skip = true
				break
			}
			copyTime += res.copyTime
		}
		var work int64
		if !skip && !rt.decideFault(ls, p) {
			work = l.pointWork(p)
		}

		kind := rt.mach.Proc(proc).Kind
		dur := rt.cost.PointOverhead + copyTime + rt.cost.KernelTime(kind, l.opClass, work)
		start := max(rt.procBusy[proc], ready)
		finish := start + dur
		rt.procBusy[proc] = finish
		rt.simMax = max(rt.simMax, finish)
		ls.finishes[p] = finish
		ls.finishAt = max(ls.finishAt, finish)
		if ps := rt.prof; ps != nil {
			ps.RecordSpan(prof.Span{
				Run: rt.profRun, Task: l.name, Launch: ls.seq, Point: p,
				Proc: int(proc), Node: rt.mach.Proc(proc).Node,
				Start: start, Dur: dur, Work: work,
				FusedMembers: len(l.fused),
				TraceID:      ls.traceID, TraceEpoch: ls.traceEpoch, TraceReplay: ls.traceReplay,
				CkptEpoch: ls.ckptEpoch, Replay: ls.replay,
			})
		}
	}
}

// pointWork is the work point p declares; a fused point charges the sum
// of its members', since it still touches every member's elements.
func (l *Launch) pointWork(p int) int64 {
	if len(l.fused) == 0 {
		return l.work.of(l.reqs, p)
	}
	var n int64
	for _, m := range l.fused {
		n += m.work.of(m.reqs, p)
	}
	return n
}

// executeNow issues the launch immediately, bypassing the fusion window,
// and points its Future at the new launch state.
func (rt *Runtime) executeNow(l *Launch) *launchState {
	ls := rt.newLaunchState(l)
	l.fut.launch = ls
	rt.mu.Lock()
	rt.nextSeq++
	ls.seq = rt.nextSeq
	rt.analysisClock += rt.analysisCost(l.points)
	ls.issueAt = rt.analysisClock
	rt.stats.Tasks.Add(1)

	// Dynamic dependence analysis (paper §2.2): collect the earlier
	// launches this one must wait for, each once, then update per-region
	// reader/writer state. Reads depend on the last writer (RAW); writes
	// depend on the last writer and all readers since (WAW, WAR).
	var depBuf [8]*launchState
	deps := depBuf[:0]
	var readDone time.Duration // compacted readers of the regions written
	var footprint int64
	for _, rq := range l.reqs {
		footprint += rq.region.size
		st := rt.regions[rq.region.id]
		if st == nil {
			st = &regionState{}
			rt.regions[rq.region.id] = st
		}
		if w := st.lastWriter; w != nil && w.depMark != ls.seq {
			w.depMark = ls.seq
			deps = append(deps, w)
		}
		if rq.priv.writes() {
			for _, rd := range st.readers {
				if rd.depMark != ls.seq {
					rd.depMark = ls.seq
					deps = append(deps, rd)
				}
			}
			readDone = max(readDone, st.readDone)
		}
	}
	for _, rq := range l.reqs {
		st := rt.regions[rq.region.id]
		if rq.priv.writes() {
			st.lastWriter = ls
			clear(st.readers)
			st.readers, st.readDone = st.readers[:0], 0
		} else {
			st.addReader(ls)
		}
	}
	// Tag the launch with the optimization regime it is issued under, so
	// its spans carry the fusion/trace/checkpoint context (Legion Prof's
	// grouping keys). Cheap plain fields; read by whoever runs the points
	// only after the launch is runnable.
	ls.traceID, ls.traceEpoch = rt.traceID, rt.traceEpoch
	ls.traceReplay = rt.traceActive && rt.traceReplaying
	ls.ckptEpoch = rt.ckptEpoch()
	if ps := rt.prof; ps != nil {
		var members []string
		for _, m := range l.fused {
			members = append(members, m.name)
		}
		depSeqs := make([]int64, 0, len(deps))
		for _, dep := range deps {
			depSeqs = append(depSeqs, dep.seq)
		}
		ps.RecordLaunch(prof.LaunchInfo{
			Run: rt.profRun, Seq: ls.seq, Name: l.name, Points: l.points,
			Stream: l.stream, Members: members,
			TraceID: ls.traceID, TraceEpoch: ls.traceEpoch, TraceReplay: ls.traceReplay,
			CkptEpoch: ls.ckptEpoch,
		}, depSeqs)
	}
	rt.mu.Unlock()

	// Every dependency was issued earlier, so its finish time is final.
	ready := readDone
	for _, dep := range deps {
		ready = max(ready, dep.finishAt)
	}
	rt.mapLaunch(ls, ready)

	if rt.runsInline(ls, footprint, deps) {
		for p := 0; p < l.points; p++ {
			rt.workerForPoint(ls, p).exec(workItem{ls: ls, point: p})
		}
		return ls
	}

	// Enqueue every point task now, in launch-sequence order, so each
	// worker executes its points in a deterministic, deadlock-free
	// program order; the launch's ready flag gates actual execution.
	for p := 0; p < l.points; p++ {
		rt.workerForPoint(ls, p).enqueue(ls, p)
	}

	// Register with live dependencies. The guard count (+1) keeps the
	// launch from dispatching until registration finishes, even if a
	// dependency completes concurrently.
	ls.depCount.Store(1)
	for _, dep := range deps {
		ls.depCount.Add(1)
		if !dep.addChild(ls) {
			ls.depCount.Add(-1) // already complete
		}
	}
	if ls.depCount.Add(-1) == 0 {
		rt.dispatch(ls)
	}
	return ls
}

// runsInline decides who runs the points of a launch that has just been
// analysed. The issuing goroutine runs them itself, in point order, when
// three things it can observe hold: the launch touches at most the
// parallel grain of elements, so there is nothing for a second core to
// win; every dependency has completed, so the launch is runnable now;
// and every processor it targets is idle, so running its points here is
// exactly that processor's program order — only this goroutine enqueues,
// so idleness cannot end while it runs them. Otherwise the points go to
// the workers' queues.
func (rt *Runtime) runsInline(ls *launchState, footprint int64, deps []*launchState) bool {
	if footprint > rt.inlineGrain {
		return false
	}
	for _, dep := range deps {
		if !dep.completed.Load() {
			return false
		}
	}
	if ls.l.procMap == nil {
		// Round-robin: the first min(points, procs) workers host every point.
		for _, w := range rt.workers[:min(ls.l.points, len(rt.workers))] {
			if !w.idle() {
				return false
			}
		}
		return true
	}
	for p := 0; p < ls.l.points; p++ {
		if !rt.workerForPoint(ls, p).idle() {
			return false
		}
	}
	return true
}

// addChild registers child to be notified on completion; it returns false
// if the launch already completed (the child should not wait).
func (ls *launchState) addChild(child *launchState) bool {
	ls.childMu.Lock()
	defer ls.childMu.Unlock()
	if ls.completed.Load() {
		return false
	}
	ls.children = append(ls.children, child)
	return true
}

// noteDepDone is called by a completing dependency.
func (ls *launchState) noteDepDone(rt *Runtime) {
	if ls.depCount.Add(-1) == 0 {
		rt.dispatch(ls)
	}
}

// dispatch marks a launch ready and wakes each distinct worker hosting
// one of its points exactly once. The point→proc mapping need not be the
// identity over the first len(procs) points (MapPoints overrides it), so
// the workers to wake are derived from the mapping itself.
func (rt *Runtime) dispatch(ls *launchState) {
	ls.ready.Store(true)
	if ls.l.procMap == nil {
		// Round-robin: the first min(points, procs) workers host every point.
		for _, w := range rt.workers[:min(ls.l.points, len(rt.workers))] {
			w.wake()
		}
		return
	}
	woken := make([]bool, len(rt.workers))
	for p := 0; p < ls.l.points; p++ {
		if i := rt.workerIndex(ls, p); !woken[i] {
			woken[i] = true
			rt.workers[i].wake()
		}
	}
}

// runPoint executes one point task on w's processor: run the real
// kernel and complete the launch when it is the last point. Its place on
// the simulated timeline was fixed when the launch was issued. It runs
// on w's goroutine for a queued launch and on the application goroutine
// for an inline or replayed one.
func (rt *Runtime) runPoint(ls *launchState, point int, w *worker) {
	if ls.replay {
		rt.stats.ReplayedPoints.Add(1)
	} else {
		rt.stats.PointTasks.Add(1)
	}
	tc := &w.tc
	tc.bind(ls, point, ls.l.reqs, ls.l.args)
	// After the sticky error or a cancellation the kernel is skipped and
	// the point just completes, so fences return promptly and no worker
	// computes an abandoned result.
	if !rt.errSet() && !rt.cancelFired.Load() {
		if err := rt.execPoint(ls, tc); err != nil {
			// A panicking kernel (injected or real). With checkpointing
			// on this becomes a recorded point failure that the next
			// synchronization point repairs by replay; otherwise it is
			// the runtime's sticky error. Either way the point completes,
			// so nothing hangs.
			rt.stats.PointFailures.Add(1)
			if !rt.notePointFailure(ls, point, err) {
				rt.setErr(err)
			}
		}
	}
	*tc = TaskContext{} // the processor keeps no reference to the launch
	if ls.remaining.Add(-1) == 0 {
		rt.completeLaunch(ls)
	}
}

// execPoint runs the point's kernel(s) under a recover barrier, so a
// panicking kernel becomes a point failure instead of tearing the
// process down. tc arrives bound to the launch's own requirements. An
// injected fault decided at issue panics at its member, after the
// members before it have run (runFusedPoint).
func (rt *Runtime) execPoint(ls *launchState, tc *TaskContext) (err error) {
	l, point := ls.l, tc.point
	defer func() {
		if r := recover(); r != nil {
			err = &TaskPanicError{Task: l.name, Point: point, Value: r}
		}
	}()
	fail := -1
	if m, ok := ls.failAt[point]; ok {
		fail = m
	}
	if len(l.fused) > 0 {
		rt.runFusedPoint(ls, tc, fail)
		return nil
	}
	rt.injectDelay(l.stream, point)
	if fail == 0 {
		panic(InjectedFault{Stream: l.stream, Point: point})
	}
	l.kernel(tc)
	if tc.hasPartial {
		ls.pointPartials[point] = tc.partial
		ls.reduces.Store(true)
	}
	return nil
}

// completeLaunch publishes the reduction value, notifies children, and
// releases the fence.
func (rt *Runtime) completeLaunch(ls *launchState) {
	// Sum reduction partials in point order: each point wrote only its
	// own slot, so the result is independent of worker completion order —
	// deterministic across runs and exactly reproducible by recovery
	// replay (float addition is not associative; a completion-order sum
	// would make bit-identical recovery impossible).
	var sum float64
	for _, v := range ls.pointPartials {
		sum += v
	}
	ls.reduced.Store(math.Float64bits(sum))

	ls.childMu.Lock()
	ls.completed.Store(true)
	children, done := ls.children, ls.done
	ls.children = nil
	ls.childMu.Unlock()

	if done != nil {
		close(done)
	}
	for _, c := range children {
		c.noteDepDone(rt)
	}
	rt.pending.Done()
}
