package legion

// Fault tolerance for the launch stream. The paper's premise (§2.2,
// §4.3) is that a sequential task stream plus dynamic dependence
// analysis gives the runtime global knowledge of what every task reads
// and writes; this file uses that knowledge for recovery-by-replay:
//
//   - Kernel panics (real bugs, or faults injected through an attached
//     FaultInjector) are recovered on the worker and recorded as point
//     failures instead of killing the process. Whether an injected fault
//     fires is decided when the launch is issued (decideFault), so the
//     same points fail whoever runs them.
//   - With EnableCheckpointing(N), the runtime keeps a bounded log of
//     the launch stream and an incremental checkpoint of region state:
//     the first launch to write a region in an epoch snapshots it. Every
//     N launches the epoch closes — the runtime quiesces, resolves any
//     outstanding failures, and discards the log and snapshots.
//   - On failure the runtime restores the epoch's snapshots and replays
//     the logged suffix sequentially on the application goroutine,
//     re-running the original member launches through the inline
//     executor (a failure inside a fused launch therefore replays its
//     members individually). Reduction futures are recomputed from
//     per-point partials summed in point order, so replayed results are
//     bit-identical to a fault-free run.
//   - A processor kill retires the processor: the mapper evicts its
//     allocations, the runtime shrinks its processor set (points
//     round-robin onto survivors; the launch domain itself is stable —
//     see LaunchDomain), and with checkpointing on, the open epoch is
//     recomputed on the survivors.
//
// Checkpoint writes are charged to the analysis pipeline (they overlap
// compute like an asynchronous burst buffer); restores and epoch commits
// are stop-the-world barriers on the simulated clock. internal/bench
// reports both as the recovery-overhead ablation.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geometry"
	"repro/internal/machine"
	"repro/internal/prof"
)

// FaultInjector is the runtime's view of a fault schedule (implemented
// by internal/fault.Injector). ShouldFail is consulted once per point
// task execution as the launch is issued, in point order, keyed by the
// launch's stream position; DeadProcs is polled at launch and fence
// boundaries with the current simulated time. Both are called on the
// application goroutine (a DelayInjector's Delay on workers).
// Implementations must be one-shot per fault, or recovery replay would
// re-kill the task it is recovering.
type FaultInjector interface {
	ShouldFail(stream int64, point int) bool
	DeadProcs(now time.Duration) []machine.ProcID
}

// TaskPanicError reports a point task whose kernel panicked. With
// checkpointing enabled the runtime recovers these transparently; without
// it (or when recovery is exhausted) the error becomes the runtime's
// sticky Err.
type TaskPanicError struct {
	Task  string
	Point int
	Value any
}

func (e *TaskPanicError) Error() string {
	return fmt.Sprintf("legion: task %q point %d panicked: %v", e.Task, e.Point, e.Value)
}

// InjectedFault is the panic value raised by fault injection, so tests
// and logs can tell injected faults from real kernel bugs.
type InjectedFault struct {
	Stream int64
	Point  int
}

func (f InjectedFault) String() string {
	return fmt.Sprintf("injected fault at launch %d point %d", f.Stream, f.Point)
}

// maxRecoveryAttempts bounds restore+replay passes per recovery: a
// deterministic kernel bug re-fires on every replay, and after this many
// attempts it becomes the sticky error instead of an infinite loop.
const maxRecoveryAttempts = 3

// pointFailure is one recorded kernel failure awaiting recovery.
type pointFailure struct {
	task  string
	point int
	err   error
}

// ftLogEntry is one logged launch of the current checkpoint epoch. It
// keeps the original (pre-fusion) Launch so replay re-executes members
// individually, and the Future so replay can re-publish reduction values.
type ftLogEntry struct {
	launch *Launch
	fut    *Future
}

// state returns the launchState the entry's future resolved to. Execute
// attaches the future before any recovery can run, and recovery flushes
// the fusion window first, so it is always set by then.
func (e *ftLogEntry) state() *launchState { return e.fut.launch }

// regionSnap is the checkpointed contents of one region.
type regionSnap struct {
	region *Region
	f64    []float64
	i64    []int64
	rect   []geometry.Rect
	c128   []complex128
}

func snapshotOf(r *Region) *regionSnap {
	s := &regionSnap{region: r}
	switch r.typ {
	case Float64:
		s.f64 = append([]float64(nil), r.f64...)
	case Int64:
		s.i64 = append([]int64(nil), r.i64...)
	case RectType:
		s.rect = append([]geometry.Rect(nil), r.rect...)
	case Complex128:
		s.c128 = append([]complex128(nil), r.c128...)
	}
	return s
}

func (s *regionSnap) restore() {
	switch s.region.typ {
	case Float64:
		copy(s.region.f64, s.f64)
	case Int64:
		copy(s.region.i64, s.i64)
	case RectType:
		copy(s.region.rect, s.rect)
	case Complex128:
		copy(s.region.c128, s.c128)
	}
}

// ftState is the runtime's checkpoint/replay state. All fields except
// failed/needRec (written by worker goroutines) are touched only on the
// application goroutine.
type ftState struct {
	every     int // launches per checkpoint epoch
	sinceCkpt int
	epoch     int64 // committed checkpoint epochs (profiling tag)
	log       []*ftLogEntry
	snaps     map[RegionID]*regionSnap

	failMu  sync.Mutex
	failed  []pointFailure
	needRec atomic.Bool
}

// takeFailures returns the recorded point failures and clears them.
func (ft *ftState) takeFailures() []pointFailure {
	ft.failMu.Lock()
	defer ft.failMu.Unlock()
	failures := ft.failed
	ft.failed = nil
	ft.needRec.Store(false)
	return failures
}

// SetFaultInjector attaches a fault schedule to the runtime. It fences
// first: worker goroutines read the injector's delays without locks, so
// it must be in place before the launches it applies to are issued.
func (rt *Runtime) SetFaultInjector(fi FaultInjector) {
	rt.Fence()
	rt.faultInj = fi
}

// EnableCheckpointing turns on launch-stream logging and periodic region
// checkpoints with an epoch of `every` launches; every <= 0 disables
// recovery (kernel panics then become sticky errors). It fences first,
// so the first epoch starts from quiescent, fully-materialized state.
func (rt *Runtime) EnableCheckpointing(every int) {
	rt.Fence()
	if every <= 0 {
		rt.ft = nil
		return
	}
	rt.ft = &ftState{every: every, snaps: map[RegionID]*regionSnap{}}
}

// CheckpointEvery returns the current checkpoint epoch length (0 when
// checkpointing is disabled).
func (rt *Runtime) CheckpointEvery() int {
	if rt.ft == nil {
		return 0
	}
	return rt.ft.every
}

// ckptEpoch returns the number of committed checkpoint epochs — the
// profiling tag launches are stamped with (0 when checkpointing is off
// or before the first commit). Application goroutine only.
func (rt *Runtime) ckptEpoch() int64 {
	if rt.ft == nil {
		return 0
	}
	return rt.ft.epoch
}

// LaunchDomain returns the default launch-domain size for distributed
// operations (what the constraint solver and the libraries partition
// over). It starts equal to NumProcs but — unlike NumProcs — does NOT
// shrink when a processor dies: a stable domain preserves the grouping
// of reduction partial sums, which is what keeps recovered results
// bit-identical to a fault-free run. Surviving processors simply pick up
// the orphaned points round-robin. Use Rescale to change it explicitly.
func (rt *Runtime) LaunchDomain() int { return rt.domain }

// Rescale fences and re-targets the default launch domain to n points
// (n <= 0 means the current processor count) — typically called after
// processor loss, when the caller prefers a repartitioned steady state
// over bit-stable results. Key partitions and cached partitions with a
// different color count are invalidated so the constraint solver's next
// per-op solve rebuilds them at the new width.
func (rt *Runtime) Rescale(n int) {
	rt.Fence()
	if n <= 0 {
		n = len(rt.procs)
	}
	rt.domain = n
	rt.mu.Lock()
	for _, st := range rt.regions {
		if st.region != nil && st.region.keyPartition != nil && st.region.keyPartition.Colors() != n {
			st.region.keyPartition = nil
		}
	}
	for k := range rt.partCache {
		if k.colors != n {
			delete(rt.partCache, k)
		}
	}
	rt.imageCache = map[imageKey]*Partition{}
	rt.alignCache = map[alignKey]*Partition{}
	rt.imageSets = map[imageSetsKey]*imageSetsEntry{}
	rt.mu.Unlock()
}

// preLaunch runs the fault-tolerance protocol for a launch about to be
// issued (or buffered for fusion): observe processor deaths, resolve
// outstanding failures, roll the checkpoint epoch, snapshot regions this
// launch writes for the first time in the epoch, and log the launch.
// Returns the log entry (nil when checkpointing is off) so Execute can
// attach the launch's Future for replay.
func (rt *Runtime) preLaunch(l *Launch) *ftLogEntry {
	rt.checkProcDeaths()
	rt.maybeRecover()
	ft := rt.ft
	if ft == nil {
		return nil
	}
	if ft.sinceCkpt >= ft.every {
		rt.takeCheckpoint()
	}
	ft.sinceCkpt++
	for _, rq := range l.reqs {
		if rq.priv.writes() {
			rt.snapshotRegion(rq.region)
		}
	}
	e := &ftLogEntry{launch: l}
	ft.log = append(ft.log, e)
	return e
}

// snapshotRegion checkpoints r if this epoch has not already done so.
// No quiescing is needed: a first write this epoch implies no in-flight
// launch of this epoch writes r (it would have snapshotted it), and the
// previous epoch was quiesced at its checkpoint — so r's contents are
// stable and concurrent readers don't conflict with the copy.
func (rt *Runtime) snapshotRegion(r *Region) {
	ft := rt.ft
	if _, ok := ft.snaps[r.id]; ok {
		return
	}
	ft.snaps[r.id] = snapshotOf(r)
	n := r.Bytes()
	rt.stats.CheckpointBytes.Add(n)
	// Checkpoint writes stream out asynchronously: charge the analysis
	// pipeline, not the processor timelines.
	rt.mu.Lock()
	rt.analysisClock += rt.cost.CheckpointTime(n)
	rt.mu.Unlock()
}

// takeCheckpoint closes the current epoch: quiesce, resolve any
// outstanding failures against the epoch being discarded, then drop the
// log and snapshots and charge the epoch-commit barrier.
func (rt *Runtime) takeCheckpoint() {
	ft := rt.ft
	rt.FlushFusion()
	rt.pending.Wait()
	rt.maybeRecover()
	ft.log = nil
	ft.snaps = map[RegionID]*regionSnap{}
	ft.sinceCkpt = 0
	ft.epoch++
	rt.stats.Checkpoints.Add(1)
	rt.chargeBarrier(rt.cost.CheckpointLatency)
	if ps := rt.prof; ps != nil {
		ps.RecordMark(prof.Mark{Run: rt.profRun, Kind: prof.MarkCheckpoint, At: rt.peekSimTime()})
	}
}

// notePointFailure records a kernel failure for deferred recovery; it
// returns false when recovery is disabled (the caller then raises the
// sticky error instead). Called from worker goroutines.
func (rt *Runtime) notePointFailure(ls *launchState, point int, err error) bool {
	ft := rt.ft
	if ft == nil {
		return false
	}
	ft.failMu.Lock()
	ft.failed = append(ft.failed, pointFailure{task: ls.name, point: point, err: err})
	ft.failMu.Unlock()
	ft.needRec.Store(true)
	if ps := rt.prof; ps != nil {
		ps.RecordMark(prof.Mark{Run: rt.profRun, Kind: prof.MarkFault,
			At: ls.finishes[point], Task: ls.name, Point: point})
	}
	return true
}

// maybeRecover resolves outstanding point failures: quiesce, restore the
// epoch checkpoint, and replay the logged suffix. It is called at every
// synchronization point an application can observe results through —
// launch issue, Fence, Future reads, trace boundaries, checkpoint
// boundaries — and is a cheap no-op when nothing failed.
func (rt *Runtime) maybeRecover() {
	ft := rt.ft
	if ft == nil || !ft.needRec.Load() {
		return
	}
	rt.FlushFusion()
	rt.pending.Wait()
	failures := ft.takeFailures()
	if len(failures) == 0 || rt.errSet() {
		return
	}
	rt.recoverEpoch(failures[0].err)
}

// recoverEpoch restores the last checkpoint and replays the logged
// launches, retrying if replay itself hits (new, one-shot) faults; a
// fault that persists across maxRecoveryAttempts replays is a
// deterministic bug and becomes the sticky error. Runs on the
// application goroutine with all workers quiescent.
func (rt *Runtime) recoverEpoch(cause error) {
	for attempt := 1; attempt <= maxRecoveryAttempts; attempt++ {
		rt.restoreCheckpoint()
		ok, err := rt.replayLog()
		if ok {
			return
		}
		cause = err
	}
	if cause == nil {
		cause = errors.New("persistent fault")
	}
	rt.setErr(fmt.Errorf("legion: recovery abandoned after %d attempts: %w", maxRecoveryAttempts, cause))
}

// restoreCheckpoint copies the epoch's snapshots back into their regions
// and charges the stop-the-world restore to every processor timeline.
func (rt *Runtime) restoreCheckpoint() {
	ft := rt.ft
	rt.stats.Restores.Add(1)
	var bytes int64
	for _, s := range ft.snaps {
		s.restore()
		bytes += s.region.Bytes()
	}
	rt.stats.RestoredBytes.Add(bytes)
	rt.chargeBarrier(rt.cost.CheckpointTime(bytes))
	if ps := rt.prof; ps != nil {
		ps.RecordMark(prof.Mark{Run: rt.profRun, Kind: prof.MarkRestore,
			At: rt.peekSimTime(), Bytes: bytes})
	}
}

// replayLog re-executes the epoch's logged launches in program order.
// It returns ok=false (with the failure) if a replayed kernel panicked —
// the caller restores and retries — and ok=true either on success or
// when a sticky error (e.g. OOM during re-mapping) ends recovery.
func (rt *Runtime) replayLog() (ok bool, failure error) {
	for _, e := range rt.ft.log {
		// Replay entries are cooperative cancellation checkpoints: a
		// deadline that expires mid-replay abandons the rest of the
		// epoch (the caller discards it via ClearCancel) instead of
		// holding the worker through a recovery nobody will read.
		rt.pollCancel()
		if rt.cancelFired.Load() {
			return true, nil
		}
		if err := rt.replayEntry(e); err != nil {
			return false, err
		}
		if rt.errSet() {
			return true, nil
		}
	}
	return true, nil
}

// replayEntry re-executes one logged launch through the inline executor.
// Recovery runs quiesced — every processor idle, every dependency
// complete — which is exactly when runsInline lets the issuing goroutine
// run a launch's points itself, so each point runs in point order on its
// processor's worker context, through the same runPoint as any other
// execution. A reduction is republished into the launch the
// application's Future holds, summed in point order by completeLaunch,
// so it matches a fault-free run exactly.
func (rt *Runtime) replayEntry(e *ftLogEntry) error {
	orig := e.state()
	rt.stats.ReplayedLaunches.Add(1)
	rt.mu.Lock()
	rt.analysisClock += rt.analysisCost(e.launch.points)
	rt.mu.Unlock()

	ls := rt.newLaunchState(e.launch)
	ls.replay = true
	ls.seq, ls.ckptEpoch = orig.seq, rt.ckptEpoch()
	rt.mapLaunch(ls, 0)
	for p := 0; p < ls.points; p++ {
		rt.workerForPoint(ls, p).exec(workItem{ls: ls, point: p})
	}

	if failures := rt.ft.takeFailures(); len(failures) > 0 {
		return failures[0].err
	}
	if ls.reduces.Load() {
		orig.reduced.Store(ls.reduced.Load())
	}
	return nil
}

// decideFault asks the attached injector, as point p of ls is issued,
// whether an injected fault fires in it — member by member for a fused
// launch, in program order, up to the first that fails — and records the
// failing member in ls.failAt for execPoint to raise.
func (rt *Runtime) decideFault(ls *launchState, p int) bool {
	fi := rt.faultInj
	if fi == nil {
		return false
	}
	member := -1
	if len(ls.fused) == 0 {
		if fi.ShouldFail(ls.stream, p) {
			member = 0
		}
	} else {
		for mi := range ls.fused {
			if fi.ShouldFail(ls.fused[mi].stream, p) {
				member = mi
				break
			}
		}
	}
	if member < 0 {
		return false
	}
	if ls.failAt == nil {
		ls.failAt = map[int]int{}
	}
	ls.failAt[p] = member
	return true
}

// checkProcDeaths polls the injector for processors whose kill time has
// passed on the simulated clock and retires them: quiesce, evict their
// allocations, shrink the processor set, and — with checkpointing on —
// recompute the open epoch on the survivors. Without checkpointing this
// is pure degradation (the shared store means no data was lost, only
// modeled residency). Called at launch and fence boundaries on the
// application goroutine.
func (rt *Runtime) checkProcDeaths() {
	fi := rt.faultInj
	if fi == nil {
		return
	}
	now := rt.peekSimTime()
	dead := fi.DeadProcs(now)
	if len(dead) == 0 {
		return
	}
	rt.FlushFusion()
	rt.pending.Wait()
	retired := 0
	for _, p := range dead {
		if rt.retireProc(p, now) {
			retired++
		}
	}
	if retired == 0 {
		return
	}
	rt.stats.ProcsLost.Add(int64(retired))
	if len(rt.procs) == 0 {
		rt.setErr(errors.New("legion: all processors lost"))
		return
	}
	if ft := rt.ft; ft != nil {
		// One recovery pass covers both the epoch's point failures (if
		// any) and the re-homing of work the dead processor ran.
		ft.takeFailures()
		if !rt.errSet() {
			rt.recoverEpoch(nil)
		}
	}
}

// retireProc removes p from the runtime: its worker stops, its queue is
// already empty (callers quiesce first), and the mapper forgets its
// allocations. The death is marked at the simulated time it was polled
// at. Returns false if p was not a live processor.
func (rt *Runtime) retireProc(p machine.ProcID, at time.Duration) bool {
	idx := -1
	for i, q := range rt.procs {
		if q == p {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	rt.procs = append(rt.procs[:idx], rt.procs[idx+1:]...)
	rt.workers[idx].stop()
	rt.workers = append(rt.workers[:idx], rt.workers[idx+1:]...)
	rt.map_.evictProcessor(p)
	delete(rt.procBusy, p)
	if ps := rt.prof; ps != nil {
		ps.RecordMark(prof.Mark{Run: rt.profRun, Kind: prof.MarkProcDeath,
			At: at, Proc: int(p)})
	}
	return true
}

// chargeBarrier advances every processor to the common time
// max(timelines)+dt — the shape of a stop-the-world event (checkpoint
// commit, restore, a future's all-reduce).
func (rt *Runtime) chargeBarrier(dt time.Duration) {
	var t time.Duration
	for _, p := range rt.procs {
		t = max(t, rt.procBusy[p])
	}
	t += dt
	for _, p := range rt.procs {
		rt.procBusy[p] = t
	}
	rt.simMax = max(rt.simMax, t)
}

// peekSimTime is SimTime without the fusion flush: the furthest point on
// any timeline, used for death polling at launch boundaries.
func (rt *Runtime) peekSimTime() time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return max(rt.simMax, rt.analysisClock)
}

// pointBackstop converts a panic that escaped runPoint's own handling
// (runtime bookkeeping, not the kernel — execPoint recovers those) into
// a sticky error and finalizes the point so Fence cannot hang.
func (rt *Runtime) pointBackstop(ls *launchState, point int, rec any) {
	rt.setErr(&TaskPanicError{Task: ls.name, Point: point, Value: rec})
	if ls.remaining.Add(-1) == 0 {
		rt.completeLaunch(ls)
	}
}
