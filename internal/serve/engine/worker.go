package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/legion"
	"repro/internal/prof"
	"repro/internal/solvers"
)

// errShutdown is the failure a queued job receives when its worker
// closes before serving it; dispatch maps it to a retryable error.
var errShutdown = errors.New("engine: worker shutting down")

// clientError marks a request as malformed (bad format, wrong-length
// vector). It must NOT trigger the degradation protocol: the runtime is
// healthy, the request is not.
type clientError struct{ err error }

func (e clientError) Error() string { return e.err.Error() }
func (e clientError) Unwrap() error { return e.err }

// reqClass is the request class a job belongs to; each class has its
// own profiling sink and latency counters.
type reqClass int

const (
	classSolve reqClass = iota
	classSpMV
	classEigen
)

func (c reqClass) String() string {
	switch c {
	case classSolve:
		return "solve"
	case classSpMV:
		return "spmv"
	case classEigen:
		return "eigen"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// job is one in-flight request, handed from a transport goroutine to a
// worker and back through the done channel. ctx is the request's
// lifecycle: it chains the transport context and the deadline budget,
// and the runtime's cooperative cancellation checkpoints poll it.
type job struct {
	class  reqClass
	def    *MatrixDef
	format string
	req    any
	ctx    context.Context // nil = never cancelled

	resp     any
	err      error
	cacheHit bool
	batched  int
	workerID int
	finished bool // worker-goroutine only; guards double completion
	done     chan struct{}
}

// ctxErr returns the job's cancellation cause, or nil while it is live.
func (j *job) ctxErr() error {
	if j.ctx == nil {
		return nil
	}
	return j.ctx.Err()
}

// complete finishes the job exactly once. Worker goroutine only: a
// cancelled job completes mid-batch, and the group-level finish that
// follows must not close done a second time.
func (j *job) complete(err error) {
	if j.finished {
		return
	}
	j.finished = true
	if err != nil {
		j.err = err
	}
	close(j.done)
}

// finalize stamps the transport-level fields into the response after
// the worker filled the payload.
func (j *job) finalize(lat time.Duration) {
	cache := "miss"
	if j.cacheHit {
		cache = "hit"
	}
	switch r := j.resp.(type) {
	case *SolveResponse:
		r.Cache, r.Batched, r.Worker, r.LatencyNS = cache, j.batched, j.workerID, lat.Nanoseconds()
	case *SpMVResponse:
		r.Cache, r.Batched, r.Worker, r.LatencyNS = cache, j.batched, j.workerID, lat.Nanoseconds()
	case *EigenResponse:
		r.Cache, r.Worker, r.LatencyNS = cache, j.workerID, lat.Nanoseconds()
	}
}

// bindKey identifies one cached binding: the matrix contents and the
// storage format it was materialized in.
type bindKey struct {
	fp     core.Fingerprint
	format string
}

// binding is one warm (matrix, format) entry: the bound regions plus
// persistent work vectors, so repeated SpMV-class requests reuse the
// exact partition objects of previous requests.
type binding struct {
	def  *MatrixDef
	mat  core.SparseMatrix
	x, y *cunumeric.Array // persistent operand/result vectors
	used int64            // LRU clock
}

// worker owns one pool runtime. All runtime calls happen on the worker
// goroutine — the runtime's application-goroutine discipline — so the
// transport layer communicates exclusively through the jobs channel.
type worker struct {
	id  int
	eng *Engine

	jobs    chan *job
	control chan func() // flush, nudge; executed between batches
	quitCh  chan struct{}

	// rtPub mirrors rt for cross-goroutine reads (metrics); only the
	// worker goroutine writes it.
	rtPub atomic.Pointer[legion.Runtime]

	// Admission-control state. brk is this worker's circuit breaker;
	// queued counts jobs admitted but not yet running — in the jobs
	// channel or in the current batch awaiting their group's turn;
	// load counts requests routed here and not yet answered (route
	// spills on it); svcEWMA is the smoothed per-job service time (ns)
	// that prices the queue for the queue-wait shed decision. All safe
	// from any goroutine.
	brk     *breaker
	queued  atomic.Int64
	load    atomic.Int64
	svcEWMA atomic.Int64

	// Worker-goroutine state below; never touched from outside.
	rt       *legion.Runtime
	bindings map[bindKey]*binding
	lruClock int64
	storeRev int64
	curSink  string
}

// cacheStats snapshots the current pool runtime's partition-cache
// counters; safe from any goroutine.
func (w *worker) cacheStats() legion.CacheStats {
	if rt := w.rtPub.Load(); rt != nil {
		return rt.CacheStats()
	}
	return legion.CacheStats{}
}

func newWorker(id int, e *Engine) *worker {
	w := &worker{
		id:      id,
		eng:     e,
		jobs:    make(chan *job, e.cfg.MaxQueue),
		control: make(chan func(), 8),
		quitCh:  make(chan struct{}),
	}
	w.brk = newBreaker(e.cfg.BreakerThreshold, e.cfg.BreakerCooldown, func(to breakerState) {
		if to == breakerOpen {
			e.metrics.breakerTrips.Add(1)
		}
		e.lifeMark(prof.MarkBreaker, to.String(), id)
	})
	return w
}

// submitResult is the outcome of handing a job to a worker.
type submitResult int

const (
	submitOK     submitResult = iota
	submitFull                // bounded queue full: shed
	submitClosed              // worker shutting down
)

// submit enqueues a job without blocking: the queue is the admission
// controller's bound, so a full queue is a shed decision for the
// caller, not a wait. The job is counted before the send so the worker
// can never uncount it first.
func (w *worker) submit(j *job) submitResult {
	select {
	case <-w.quitCh:
		return submitClosed
	default:
	}
	w.queued.Add(1)
	select {
	case w.jobs <- j:
		return submitOK
	case <-w.quitCh:
		w.queued.Add(-1)
		return submitClosed
	default:
		w.queued.Add(-1)
		return submitFull
	}
}

// estimateWait prices the queue: jobs ahead times the smoothed per-job
// service time. Zero while there is no history — admission stays open
// until the estimator has something to go on.
func (w *worker) estimateWait() time.Duration {
	ewma := w.svcEWMA.Load()
	if ewma <= 0 {
		return 0
	}
	return time.Duration(w.queued.Load() * ewma)
}

// observeService feeds one batch's wall-clock cost into the per-job
// service-time EWMA (alpha 1/4).
func (w *worker) observeService(d time.Duration, jobs int) {
	if jobs <= 0 {
		return
	}
	per := d.Nanoseconds() / int64(jobs)
	old := w.svcEWMA.Load()
	if old == 0 {
		w.svcEWMA.Store(per)
		return
	}
	w.svcEWMA.Store(old + (per-old)/4)
}

// flush empties the binding cache (and the runtime caches behind it)
// synchronously — the benchmark's cold configuration.
func (w *worker) flush() {
	done := make(chan struct{})
	select {
	case w.control <- func() { w.dropAllBindings(); close(done) }:
		<-done
	case <-w.quitCh:
	}
}

// nudge asks the worker to re-check the store revision soon (after a
// re-upload), without blocking the caller.
func (w *worker) nudge() {
	select {
	case w.control <- func() { w.dropStaleBindings() }:
	default: // worker busy; it re-checks before its next batch anyway
	}
}

func (w *worker) close() {
	select {
	case <-w.quitCh:
		return
	default:
		close(w.quitCh)
	}
}

// run is the worker goroutine: build the runtime, then serve batches
// until the engine closes. On close, jobs still queued are failed with
// errShutdown rather than abandoned, so no caller ever hangs on a done
// channel nobody will close.
func (w *worker) run() {
	w.rt = w.eng.newPoolRuntime()
	w.rtPub.Store(w.rt)
	w.bindings = map[bindKey]*binding{}
	defer func() {
		for {
			select {
			case j := <-w.jobs:
				w.queued.Add(-1)
				j.complete(errShutdown)
				continue
			default:
			}
			break
		}
		w.dropAllBindings()
		w.rt.Shutdown()
	}()
	for {
		select {
		case <-w.quitCh:
			return
		case f := <-w.control:
			f()
		case j := <-w.jobs:
			w.serveBatch(w.collectBatch(j))
		}
	}
}

// collectBatch is group commit: the first job plus whatever is already
// queued behind it, never waiting for one that has not arrived. Jobs
// pile up while the previous batch runs, so a burst coalesces into one
// launch-stream epoch and an idle worker serves a batch of one.
func (w *worker) collectBatch(first *job) []*job {
	batch := []*job{first}
	for {
		select {
		case j := <-w.jobs:
			batch = append(batch, j)
		default:
			return batch
		}
	}
}

// serveBatch expires jobs whose deadline passed while they were
// queued, groups the rest by (matrix, format), and runs each group as
// one epoch on the warm runtime.
func (w *worker) serveBatch(batch []*job) {
	w.dropStaleBindings()
	// Group jobs by binding key, preserving arrival order of groups.
	var order []bindKey
	groups := map[bindKey][]*job{}
	for _, j := range batch {
		if err := j.ctxErr(); err != nil {
			// Expired in the queue: never admitted to a runtime, so
			// there is nothing to cancel — just answer.
			w.queued.Add(-1)
			w.eng.metrics.queueExpired.Add(1)
			w.eng.lifeMark(prof.MarkCancel, "queue-expired", w.id)
			j.complete(err)
			continue
		}
		k := bindKey{fp: j.def.FP, format: j.format}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], j)
	}
	for _, k := range order {
		group := groups[k]
		w.queued.Add(-int64(len(group)))
		w.eng.metrics.noteBatch(len(group))
		t0 := time.Now()
		w.runGroup(k, group)
		w.observeService(time.Since(t0), len(group))
	}
}

// runGroup executes one same-binding group once. A clean epoch answers;
// if it lost processors the runtime is replaced after answering. A
// sticky runtime error or a recovered panic replaces the runtime, feeds
// the circuit breaker and answers the group degraded: the engine never
// re-executes, and re-running elsewhere is the shard router's job
// (DESIGN "Fault model & recovery invariants" has the owner table).
func (w *worker) runGroup(k bindKey, group []*job) {
	err := w.runGroupOnce(k, group)
	var ce clientError
	if errors.As(err, &ce) && w.rt.Err() == nil {
		w.finish(group, err)
		return
	}
	if err == nil && w.rt.Err() == nil {
		w.brk.onSuccess()
		healthy := w.rt.NumProcs() >= w.eng.cfg.Procs
		w.finish(group, nil)
		if !healthy {
			// Processor death mid-epoch: checkpoint recovery already
			// re-homed the work, so results are valid — but the shrunken
			// runtime would serve degraded from here on. Replace it
			// after responding.
			w.replaceRuntime()
		}
		return
	}
	if err == nil {
		err = w.rt.Err()
	}
	// Degraded epoch: sticky runtime error (recovery abandoned, modeled
	// OOM, all processors lost) or a panic. Results are suspect —
	// discard them and replace the runtime.
	w.replaceRuntime()
	w.brk.onFailure(time.Now())
	w.finish(group, &degradedError{cause: err})
}

// cancelJob completes a job that hit a cooperative cancellation
// checkpoint (deadline expired or client gone) and accounts for it.
func (w *worker) cancelJob(j *job) {
	w.eng.metrics.cancellations.Add(1)
	w.eng.lifeMark(prof.MarkCancel, j.class.String(), w.id)
	err := j.ctxErr()
	if err == nil {
		err = context.Canceled
	}
	j.complete(err)
}

// groupCancelCheck builds the cooperative cancellation check for a
// coalesced phase: it fires only when EVERY job sharing the epoch has
// been abandoned, because skipping kernels would corrupt the results of
// any job still waiting.
func groupCancelCheck(jobs []*job) func() error {
	return func() error {
		var first error
		for _, j := range jobs {
			err := j.ctxErr()
			if err == nil {
				return nil
			}
			if first == nil {
				first = err
			}
		}
		return first
	}
}

// runGroupOnce binds the matrix and runs every job of the group inside
// one fused launch-stream epoch: SpMV jobs issue their launches first
// and fence once (independent outputs overlap in the stream), then
// solver/eigen jobs run back to back on the still-warm caches.
//
// Cancellation is per-phase. The coalesced SpMV phase shares one epoch,
// so its cancel check fires only when every SpMV job is abandoned;
// solve/eigen jobs run one at a time, so each installs its own context
// as the check and a cancellation costs only that job — ClearCancel
// re-arms the runtime and the rest of the group proceeds.
func (w *worker) runGroupOnce(k bindKey, group []*job) (err error) {
	defer w.rt.SetCancelCheck(nil)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serving %s/%s: %v", group[0].def.Name, k.format, r)
		}
	}()
	w.attachSink(group[0].class)
	b, hit, berr := w.binding(k, group[0].def)
	if berr != nil {
		return berr
	}
	for _, j := range group {
		if j.finished {
			continue
		}
		j.cacheHit = hit
		j.batched = len(group)
		j.workerID = w.id
	}
	if hit {
		w.eng.metrics.bindHits.Add(1)
	} else {
		w.eng.metrics.bindMisses.Add(1)
	}

	var collect []func()
	var spmvJobs []*job
	sharedYFree := true
	for _, j := range group {
		if j.finished || j.class != classSpMV {
			continue
		}
		spmvJobs = append(spmvJobs, j)
		c, err := w.issueSpMV(b, j, sharedYFree)
		if err != nil {
			return err
		}
		sharedYFree = false
		collect = append(collect, c)
	}
	if len(collect) > 0 {
		w.rt.SetCancelCheck(groupCancelCheck(spmvJobs))
		w.rt.Fence() // one epoch boundary for every coalesced SpMV
		w.rt.SetCancelCheck(nil)
		if w.rt.Cancelled() != nil {
			// Every coalesced SpMV was abandoned; the epoch's outputs are
			// unspecified, so skip collection entirely.
			w.rt.ClearCancel()
			for _, j := range spmvJobs {
				w.cancelJob(j)
			}
		} else {
			for _, c := range collect {
				c()
			}
		}
	}
	for _, j := range group {
		if j.finished || (j.class != classSolve && j.class != classEigen) {
			continue
		}
		if cerr := j.ctxErr(); cerr != nil {
			// Dead before its turn came up inside the batch: skip the
			// compute, keep the worker.
			w.cancelJob(j)
			continue
		}
		if j.ctx != nil {
			w.rt.SetCancelCheck(j.ctx.Err)
		}
		var rerr error
		if j.class == classSolve {
			rerr = w.runSolve(b, j)
		} else {
			rerr = w.runEigen(b, j)
		}
		w.rt.SetCancelCheck(nil)
		if w.rt.Cancelled() != nil {
			// The deadline fired mid-solve: discard the interrupted epoch
			// and answer this job; the runtime stays warm for the rest.
			w.rt.ClearCancel()
			w.cancelJob(j)
			continue
		}
		if rerr != nil {
			return rerr
		}
	}
	w.rt.Fence()
	return w.rt.Err()
}

// attachSink points the runtime's profiler at the request class's sink.
func (w *worker) attachSink(c reqClass) {
	name := c.String()
	if w.curSink == name {
		return
	}
	w.rt.EnableProfiling(w.eng.sinks[name])
	w.curSink = name
}

// binding returns the warm binding for k, materializing and caching it
// on a miss (with LRU eviction).
func (w *worker) binding(k bindKey, def *MatrixDef) (*binding, bool, error) {
	w.lruClock++
	if b, ok := w.bindings[k]; ok {
		b.used = w.lruClock
		return b, true, nil
	}
	mat, err := def.Bind(w.rt, k.format)
	if err != nil {
		return nil, false, clientError{err}
	}
	rows, cols := mat.Shape()
	b := &binding{
		def: def, mat: mat,
		x:    cunumeric.Zeros(w.rt, cols),
		y:    cunumeric.Zeros(w.rt, rows),
		used: w.lruClock,
	}
	w.bindings[k] = b
	for len(w.bindings) > CacheSize {
		w.evictLRU()
	}
	return b, false, nil
}

func (w *worker) evictLRU() {
	var victim bindKey
	var oldest int64 = 1<<63 - 1
	for k, b := range w.bindings {
		if b.used < oldest {
			oldest, victim = b.used, k
		}
	}
	w.dropBinding(victim)
	w.eng.metrics.evictions.Add(1)
}

// dropBinding destroys one binding and purges every runtime cache entry
// derived from its regions.
func (w *worker) dropBinding(k bindKey) {
	b, ok := w.bindings[k]
	if !ok {
		return
	}
	delete(w.bindings, k)
	w.rt.Fence()
	for _, r := range b.mat.Pack() {
		w.rt.InvalidateRegionCaches(r)
	}
	b.mat.Destroy()
	b.x.Destroy()
	b.y.Destroy()
}

func (w *worker) dropAllBindings() {
	for k := range w.bindings {
		w.dropBinding(k)
	}
}

// dropStaleBindings evicts bindings whose matrix has been re-uploaded:
// the store's definition for the name no longer carries the binding's
// fingerprint.
func (w *worker) dropStaleBindings() {
	rev := w.eng.store.Rev()
	if rev == w.storeRev {
		return
	}
	w.storeRev = rev
	for k, b := range w.bindings {
		cur, err := w.eng.store.Get(b.def.Name)
		if err != nil || cur.FP != b.def.FP {
			w.dropBinding(k)
			w.eng.metrics.invalidations.Add(1)
		}
	}
}

// replaceRuntime drains and discards the current runtime (checkpointed
// state included) and builds a fresh one. Bindings die with the runtime
// they were bound on; the matrix keeps this worker as its owner, so
// the next request routed here rebinds on the replacement.
func (w *worker) replaceRuntime() {
	old := w.rt
	// Destroy bindings only if the runtime can still execute; on a
	// sticky error the regions are unrecoverable anyway.
	if old.Err() == nil {
		w.dropAllBindings()
	} else {
		w.bindings = map[bindKey]*binding{}
	}
	old.Shutdown()
	w.rt = w.eng.newPoolRuntime()
	w.rtPub.Store(w.rt)
	w.curSink = ""
	w.eng.metrics.replacements.Add(1)
}

// finish completes every job of the group that has not already been
// answered (cancelled jobs complete individually mid-batch).
func (w *worker) finish(group []*job, err error) {
	for _, j := range group {
		j.complete(err)
	}
}

// issueSpMV issues y = A @ x and returns the collection step to run
// after the epoch fence. Coalesced SpMVs in one epoch write distinct
// outputs so their launches overlap in the stream; the binding's
// persistent vectors (whose partitions are already cached from earlier
// requests) go to the first job, later jobs allocate their own.
func (w *worker) issueSpMV(b *binding, j *job, useShared bool) (func(), error) {
	req := j.req.(*SpMVRequest)
	rows, cols := b.mat.Shape()
	var x *cunumeric.Array
	ownedX := false
	if len(req.X) > 0 {
		if int64(len(req.X)) != cols {
			return nil, clientError{fmt.Errorf("x has %d entries, matrix has %d columns", len(req.X), cols)}
		}
		x = cunumeric.FromSlice(w.rt, req.X)
		ownedX = true
	} else if useShared {
		x = b.x
		x.Fill(1)
	} else {
		x = cunumeric.Full(w.rt, cols, 1)
		ownedX = true
	}
	y := b.y
	ownedY := false
	if !useShared {
		y = cunumeric.Zeros(w.rt, rows)
		ownedY = true
	}
	b.mat.SpMVInto(y, x)
	return func() {
		j.resp = &SpMVResponse{Y: y.ToSlice()}
		if ownedX {
			x.Destroy()
		}
		if ownedY {
			y.Destroy()
		}
	}, nil
}

func (w *worker) runSolve(b *binding, j *job) error {
	req := j.req.(*SolveRequest)
	rt := w.rt
	rows, _ := b.mat.Shape()
	var rhs *cunumeric.Array
	if len(req.B) > 0 {
		if int64(len(req.B)) != rows {
			return clientError{fmt.Errorf("b has %d entries, matrix has %d rows", len(req.B), rows)}
		}
		rhs = cunumeric.FromSlice(rt, req.B)
	} else {
		rhs = cunumeric.Full(rt, rows, 1)
	}
	defer rhs.Destroy()

	solve, err := solvers.Lookup(req.Solver)
	if err != nil {
		return clientError{err}
	}
	res := solve(b.mat, rhs, req.Restart, req.MaxIter, req.Tol)
	if rt.Err() != nil {
		return rt.Err()
	}
	resp := &SolveResponse{
		Iterations: res.Iterations,
		Converged:  res.Converged,
	}
	if res.X != nil {
		resp.X = res.X.ToSlice()
		res.X.Destroy()
	}
	if n := len(res.Residuals); n > 0 {
		resp.Residual = res.Residuals[n-1]
	}
	j.resp = resp
	return nil
}

func (w *worker) runEigen(b *binding, j *job) error {
	req := j.req.(*EigenRequest)
	lambda, vec := solvers.PowerIteration(b.mat, req.Iters, req.Seed)
	if w.rt.Err() != nil {
		return w.rt.Err()
	}
	resp := &EigenResponse{Eigenvalue: lambda}
	if vec != nil {
		resp.Vector = vec.ToSlice()
		vec.Destroy()
	}
	j.resp = resp
	return nil
}
