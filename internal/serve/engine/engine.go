// Package engine is the transport-agnostic core of legate-serve: a
// matrix store, a pool of warm legion.Runtimes (one application
// goroutine each, honoring the runtime's sequential launch-stream
// discipline), and the full request lifecycle — admission control,
// batching, and metrics — behind the typed Backend API.
//
// The point of the pool being *warm* is cross-request caching. Three
// layers of per-launch setup cost are amortized across requests:
//
//   - bound regions: each worker keeps an LRU of (matrix fingerprint,
//     format) → bound SparseMatrix, so a repeat request skips triple
//     canonicalization, region creation, and format conversion;
//   - solved partitions: a warm runtime's partition caches (block,
//     alignment, image, and the cross-region image-set cache) mean the
//     constraint solver's per-op solve reuses first-class partitions
//     instead of recomputing images (§4.1);
//   - compiled DISTAL plans: the kernel registry is the plan cache,
//     keyed (op, format, target); its hit/miss counters surface in
//     Metrics.
//
// Each matrix fingerprint has an owner worker, and a request runs on its
// owner (so the caches hit) unless the owner is busy and another worker
// is idle: then it spills there and binds the matrix once more
// (bounded-load routing, see route). When every worker is busy,
// same-matrix requests queue at the owner and coalesce into one batch
// executed as a single fused launch-stream epoch. A runtime that
// degrades under fault injection — sticky Err, or lost processors — is
// drained and replaced in the pool. A batch is never re-executed here:
// a degraded one is answered CodeDegraded, and the shard router is the
// one layer that runs it elsewhere.
//
// The engine knows nothing about wires: it never imports net/http or
// encoding/json (scripts/check_boundary.sh enforces this). Transports
// live next door — internal/serve/httpapi speaks JSON over HTTP,
// internal/serve/loopback passes deep copies in process — and
// internal/shard composes many engines into one sharded Backend. See
// ARCHITECTURE.md for the request data flow.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/legion"
	"repro/internal/machine"
	"repro/internal/prof"
)

// Config sizes an Engine.
type Config struct {
	Pool            int    // warm runtimes in the pool (default 2)
	Procs           int    // processors per runtime (default 4)
	Kind            string // "cpu" or "gpu" processors (default cpu)
	Seed            uint64 // fault-injection seed
	Faults          string // fault.Parse spec applied to every pool runtime
	CheckpointEvery int    // launches per checkpoint epoch (default 64; 0 disables recovery)

	// Request-lifecycle knobs (see DESIGN.md "request lifecycle &
	// overload"). Zero values keep the pre-lifecycle behavior: no
	// deadline, a 256-deep queue, no quotas, breaker disabled.
	Deadline         time.Duration // per-request deadline budget (0 = none; RequestMeta.Deadline overrides)
	MaxQueue         int           // bounded per-worker queue depth (default 256); a full queue sheds
	QuotaRate        float64       // per-tenant admissions per second (0 disables quotas)
	QuotaBurst       int           // per-tenant token-bucket burst (default ceil(QuotaRate), min 1)
	BreakerThreshold int           // consecutive degradations that trip a worker's breaker (0 disables)
	BreakerCooldown  time.Duration // open -> half-open probe delay (default 2s)

	// Deprecated: ignored. Read only by the frozen benchmark/layers.go;
	// delete in the ruler PR that drops `tune.speedup_x` and
	// `tune.decisions`.
	NoTune bool
}

// CacheSize is how many (matrix, format) bindings a worker keeps warm;
// the least recently used one is evicted past it.
const CacheSize = 8

// ProfCapacity is the capacity of each profiling sink: one per request
// class and the lifecycle sink here, the coordinator's in internal/shard.
const ProfCapacity = 4096

// TuneSnapshot is what remains of the removed autotuner's report.
//
// Deprecated: always empty. Read only by the frozen
// benchmark/layers.go; delete in the ruler PR that drops
// `tune.speedup_x` and `tune.decisions`.
type TuneSnapshot struct {
	Bindings []struct {
		Decisions struct {
			Variants, Balanced []string
			FusionWindow       int
		}
	}
}

// TuneReport returns an empty snapshot.
//
// Deprecated: Read only by the frozen benchmark/layers.go; delete in
// the ruler PR that drops `tune.speedup_x` and `tune.decisions`.
func (e *Engine) TuneReport() TuneSnapshot { return TuneSnapshot{} }

func (c Config) withDefaults() Config {
	if c.Pool <= 0 {
		c.Pool = 2
	}
	if c.Procs <= 0 {
		c.Procs = 4
	}
	if c.Kind == "" {
		c.Kind = "cpu"
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	return c
}

// Engine is the single-process solver service core: a matrix store and
// a pool of workers behind the Backend API. Create with New, stop with
// Close.
type Engine struct {
	cfg     Config
	store   *Store
	workers []*worker
	metrics *metrics
	sinks   map[string]*prof.Sink // per request class, plus "lifecycle"

	start    time.Time // birth; lifecycle marks are stamped relative to it
	lifeRun  int       // run index of the lifecycle sink
	quota    *quotas   // nil when quotas are disabled
	draining atomic.Bool

	mu     sync.Mutex
	owner  map[core.Fingerprint]int // fingerprint → owner worker index, live fingerprints only
	nextW  int
	closed bool
}

var _ Backend = (*Engine)(nil)

// request classes, each with its own profiling sink.
var requestClasses = []string{"solve", "spmv", "eigen"}

// lifecycleClass is the extra sink admission-control events (shed,
// cancel, breaker transitions) are recorded into, served by
// ProfileReport("lifecycle").
const lifecycleClass = "lifecycle"

// New builds the pool and starts its worker goroutines.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Kind != "cpu" && cfg.Kind != "gpu" {
		return nil, fmt.Errorf("engine: kind %q (want cpu or gpu)", cfg.Kind)
	}
	if _, err := fault.Parse(cfg.Faults, cfg.Seed); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		store:   NewStore(),
		metrics: newMetrics(),
		sinks:   map[string]*prof.Sink{},
		owner:   map[core.Fingerprint]int{},
		start:   time.Now(),
	}
	for _, class := range requestClasses {
		e.sinks[class] = prof.NewSink(ProfCapacity)
	}
	life := prof.NewSink(ProfCapacity)
	e.sinks[lifecycleClass] = life
	e.lifeRun = life.AttachRun()
	if cfg.QuotaRate > 0 {
		e.quota = newQuotas(cfg.QuotaRate, cfg.QuotaBurst)
	}
	for i := 0; i < cfg.Pool; i++ {
		w := newWorker(i, e)
		e.workers = append(e.workers, w)
		go w.run()
	}
	return e, nil
}

// lifeMark records one lifecycle event (shed, cancel, breaker flip) on
// the lifecycle sink's wall-clock timeline. Safe from any goroutine.
func (e *Engine) lifeMark(kind prof.MarkKind, detail string, workerID int) {
	e.sinks[lifecycleClass].RecordMark(prof.Mark{
		Run: e.lifeRun, Kind: kind, At: time.Since(e.start),
		Proc: workerID, Task: detail,
	})
}

// shed counts one load-shedding decision and marks it in the lifecycle
// trace. code is the error code the client saw.
func (e *Engine) shed(code ErrorCode, workerID int) {
	e.metrics.noteShed(string(code))
	e.lifeMark(prof.MarkShed, string(code), workerID)
}

// newPoolRuntime builds one pool runtime according to the config: its
// own modeled machine, fault injector, and checkpointing. Each runtime
// gets an independent machine so a processor death degrades one worker,
// not the whole pool.
func (e *Engine) newPoolRuntime() *legion.Runtime {
	var m *machine.Machine
	var procs []machine.ProcID
	if e.cfg.Kind == "gpu" {
		m = machine.New(machine.Config{Nodes: (e.cfg.Procs + 5) / 6})
		procs = m.Select(machine.GPU, e.cfg.Procs)
	} else {
		m = machine.New(machine.Config{Nodes: (e.cfg.Procs + 1) / 2})
		procs = m.Select(machine.CPU, e.cfg.Procs)
	}
	rt := legion.NewRuntime(m, procs)
	if e.cfg.Faults != "" {
		inj, _ := fault.Parse(e.cfg.Faults, e.cfg.Seed) // validated in New
		rt.SetFaultInjector(inj)
	}
	if e.cfg.CheckpointEvery > 0 {
		rt.EnableCheckpointing(e.cfg.CheckpointEvery)
	}
	return rt
}

// presetRuntime is the throwaway runtime presets are materialized on.
func presetRuntime() *legion.Runtime {
	m := machine.New(machine.Config{Nodes: 1})
	return legion.NewRuntime(m, m.Select(machine.CPU, 2))
}

// route picks the worker a request for fp runs on and counts the
// request in its load; the caller uncounts it once answered. A
// fingerprint gets an owner round-robin on first sight, and the owner
// never changes. The owner serves while its load is 0 and its breaker
// admits; otherwise the first idle worker after it with a closed
// breaker does (a spill); otherwise the owner does, so a saturated pool
// still coalesces batches there and a tripped owner takes the request
// as its probe once the cooldown has passed. A request past its
// deadline stays at the owner: it can run nowhere, and moving it would
// only count a spill. Only fingerprints the store still carries are
// recorded, so a request racing a re-upload cannot leave a dead entry.
func (e *Engine) route(fp core.Fingerprint, deadline time.Time) *worker {
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.owner[fp]
	if !ok {
		i = e.nextW % len(e.workers)
		e.nextW++
		if e.store.carries(fp) {
			e.owner[fp] = i
		}
	}
	wk := e.workers[i]
	live := deadline.IsZero() || now.Before(deadline)
	if live && (wk.load.Load() > 0 || !wk.brk.admits(now)) {
		for k := 1; k < len(e.workers); k++ {
			if c := e.workers[(i+k)%len(e.workers)]; c.load.Load() == 0 && c.brk.snapshot() == breakerClosed {
				wk = c
				e.metrics.spills.Add(1)
				break
			}
		}
	}
	wk.load.Add(1)
	return wk
}

// Close drains and shuts down every pool runtime.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.draining.Store(true)
	for _, w := range e.workers {
		w.close()
	}
}

// Drain is the graceful half of shutdown: it stops admitting (new
// requests fail with a retryable CodeDraining error) and waits up to
// timeout for every in-flight request to complete. It returns true on
// a clean drain; false means the timeout expired with work still in
// flight — the caller should Close anyway and accept the loss. Close
// is NOT called here so a transport can first stop its listener.
func (e *Engine) Drain(timeout time.Duration) bool {
	e.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for e.metrics.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// FlushCaches empties every worker's binding cache and the associated
// runtime partition caches — the "cold" configuration of the cache
// ablation (EXPERIMENTS.md) and of BenchmarkServeColdCG.
func (e *Engine) FlushCaches() {
	for _, w := range e.workers {
		w.flush()
	}
}

// Solve validates and serves one SolveRequest.
func (e *Engine) Solve(ctx context.Context, req *SolveRequest) (*SolveResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, badRequest(err)
	}
	resp, err := e.dispatch(ctx, req.Meta, classSolve, req.Matrix, req.Format, req)
	if err != nil {
		return nil, err
	}
	return resp.(*SolveResponse), nil
}

// SpMV serves one SpMVRequest.
func (e *Engine) SpMV(ctx context.Context, req *SpMVRequest) (*SpMVResponse, error) {
	resp, err := e.dispatch(ctx, req.Meta, classSpMV, req.Matrix, req.Format, req)
	if err != nil {
		return nil, err
	}
	return resp.(*SpMVResponse), nil
}

// Eigen validates and serves one EigenRequest.
func (e *Engine) Eigen(ctx context.Context, req *EigenRequest) (*EigenResponse, error) {
	req.SetDefaults()
	resp, err := e.dispatch(ctx, req.Meta, classEigen, req.Matrix, req.Format, req)
	if err != nil {
		return nil, err
	}
	return resp.(*EigenResponse), nil
}

// Upload validates and registers an uploaded matrix.
func (e *Engine) Upload(_ context.Context, req *UploadRequest) (*UploadResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, badRequest(err)
	}
	d, old := e.store.Put(req.Name, req.Rows, req.Cols, req.Row, req.Col, req.Val)
	e.metrics.uploads.Add(1)
	if old != nil {
		// A re-upload mints a new fingerprint; once no stored matrix
		// carries the old one, it is never routed again.
		e.mu.Lock()
		if !e.store.carries(old.FP) {
			delete(e.owner, old.FP)
		}
		e.mu.Unlock()
	}
	// Workers observe the store revision bump lazily; nudge them so
	// stale bindings are dropped promptly rather than on next request.
	for _, wk := range e.workers {
		wk.nudge()
	}
	return &UploadResponse{
		Name:        d.Name,
		Fingerprint: fmt.Sprintf("%016x", uint64(d.FP)),
		NNZ:         d.NNZ(),
	}, nil
}

// Matrices lists every stored matrix (presets materialized so far plus
// uploads), sorted by name.
func (e *Engine) Matrices() []MatrixInfo { return e.store.List() }

// dispatch runs the full request lifecycle: resolve the matrix, derive
// the deadline context, pass admission control (drain gate, tenant
// quota, circuit breaker, queue-wait budget, bounded queue), hand the
// job to the worker route picks, and wait for the outcome. Every
// refusal is a typed *Error with a stable code and, where retrying can
// help, a RetryAfter hint.
func (e *Engine) dispatch(ctx context.Context, meta RequestMeta, class reqClass, matrix, format string, req any) (any, error) {
	start := time.Now()
	if matrix == "" {
		return nil, badRequest(fmt.Errorf("missing matrix name"))
	}
	if e.draining.Load() {
		e.shed(CodeDraining, -1)
		return nil, &Error{Code: CodeDraining, Retryable: true, RetryAfter: time.Second, Err: errors.New("server draining")}
	}
	budget := e.cfg.Deadline
	if meta.Deadline > 0 {
		budget = meta.Deadline
	}
	d, err := e.store.Get(matrix)
	if err != nil {
		return nil, &Error{Code: CodeNotFound, Err: err}
	}
	if format == "" {
		format = "csr"
	}
	// The job's context chains the transport's context (abandonment) and
	// the deadline budget; the worker's cooperative cancellation
	// checkpoints poll it between legion epochs.
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	if e.quota != nil {
		tenant := meta.Tenant
		if tenant == "" {
			tenant = "default"
		}
		if wait, ok := e.quota.admit(tenant, time.Now()); !ok {
			e.shed(CodeOverQuota, -1)
			return nil, &Error{Code: CodeOverQuota, Retryable: true, RetryAfter: wait, Err: fmt.Errorf("tenant %q over quota", tenant)}
		}
	}
	deadline, _ := ctx.Deadline()
	wk := e.route(d.FP, deadline)
	defer wk.load.Add(-1)
	if wait, ok := wk.brk.allow(time.Now()); !ok {
		e.shed(CodeBreakerOpen, wk.id)
		return nil, &Error{Code: CodeBreakerOpen, Retryable: true, RetryAfter: wait, Err: fmt.Errorf("worker %d circuit breaker open", wk.id)}
	}
	if budget > 0 {
		if est := wk.estimateWait(); est > budget {
			e.shed(CodeQueueWait, wk.id)
			return nil, &Error{Code: CodeQueueWait, Retryable: true, RetryAfter: est, Err: fmt.Errorf("estimated queue wait %v exceeds deadline budget %v", est.Round(time.Millisecond), budget)}
		}
	}
	j := &job{
		class: class, def: d, format: format, req: req,
		ctx: ctx, done: make(chan struct{}),
	}
	e.metrics.inflight.Add(1)
	defer e.metrics.inflight.Add(-1)
	switch wk.submit(j) {
	case submitOK:
	case submitFull:
		e.shed(CodeQueueFull, wk.id)
		retry := wk.estimateWait()
		if retry <= 0 {
			retry = time.Second
		}
		return nil, &Error{Code: CodeQueueFull, Retryable: true, RetryAfter: retry, Err: fmt.Errorf("worker %d queue full (%d deep)", wk.id, e.cfg.MaxQueue)}
	default: // submitClosed
		e.shed(CodeDraining, wk.id)
		return nil, &Error{Code: CodeDraining, Retryable: true, RetryAfter: time.Second, Err: errors.New("server shutting down")}
	}
	<-j.done
	if j.err != nil {
		return nil, e.jobError(j.err)
	}
	lat := time.Since(start)
	e.metrics.observe(class, lat)
	j.finalize(lat)
	return j.resp, nil
}

// jobError maps a job failure onto the typed taxonomy: client errors
// are CodeBadRequest, expired deadlines CodeDeadline (the work was
// cancelled cleanly at a cooperative checkpoint), abandoned contexts
// CodeCancelled, and degraded batch groups are retryable CodeDegraded.
func (e *Engine) jobError(err error) *Error {
	var ce clientError
	var de *degradedError
	switch {
	case errors.As(err, &ce):
		return badRequest(err)
	case errors.Is(err, context.DeadlineExceeded):
		return &Error{Code: CodeDeadline, Retryable: true, Err: err}
	case errors.Is(err, context.Canceled):
		return &Error{Code: CodeCancelled, Err: err}
	case errors.As(err, &de):
		e.metrics.failures.Add(1)
		return &Error{Code: CodeDegraded, Retryable: true, RetryAfter: time.Second, Err: err}
	default:
		e.metrics.failures.Add(1)
		return &Error{Code: CodeInternal, Retryable: true, Err: err}
	}
}

// ProfileReport snapshots one request class's profiling sink and
// builds its report. class "" defaults to "solve"; "lifecycle" serves
// the admission-control timeline.
func (e *Engine) ProfileReport(class string) (*prof.Report, error) {
	if class == "" {
		class = "solve"
	}
	sink, ok := e.sinks[class]
	if !ok {
		return nil, badRequest(fmt.Errorf("unknown request class %q", class))
	}
	return sink.Snapshot().BuildReport(), nil
}

// WorkerHealth is one worker's row in the health report.
type WorkerHealth struct {
	ID      int    `json:"id"`
	Procs   int    `json:"procs"`   // live processors on the current runtime
	Healthy bool   `json:"healthy"` // no sticky error, full processor count
	Breaker string `json:"breaker"` // closed | open | half-open
	Queued  int    `json:"queued"`  // jobs admitted and not yet running
}

// HealthSnapshot is the engine's health report. OK is false — so a
// transport can return 503 and a load balancer rotates the instance
// out — when the engine is draining or when every worker's breaker is
// open.
type HealthSnapshot struct {
	OK           bool           `json:"ok"`
	Draining     bool           `json:"draining"`
	Pool         int            `json:"pool"`
	Healthy      int            `json:"healthy"`
	Degraded     int            `json:"degraded"`     // workers below full strength right now
	Replacements int64          `json:"replacements"` // runtimes replaced over the engine's lifetime
	BreakerTrips int64          `json:"breaker_trips"`
	Workers      []WorkerHealth `json:"workers"`
}

// Health reports pool health for the /healthz surface.
func (e *Engine) Health() HealthSnapshot {
	snap := HealthSnapshot{
		Pool:         len(e.workers),
		Draining:     e.draining.Load(),
		Replacements: e.metrics.replacements.Load(),
		BreakerTrips: e.metrics.breakerTrips.Load(),
	}
	allOpen := e.cfg.BreakerThreshold > 0
	for _, wk := range e.workers {
		wh := WorkerHealth{ID: wk.id, Queued: int(wk.queued.Load())}
		if rt := wk.rtPub.Load(); rt != nil {
			wh.Procs = rt.NumProcs()
			wh.Healthy = rt.Err() == nil && wh.Procs >= e.cfg.Procs
		}
		st := wk.brk.snapshot()
		wh.Breaker = st.String()
		if st != breakerOpen {
			allOpen = false
		}
		if wh.Healthy {
			snap.Healthy++
		} else {
			snap.Degraded++
		}
		snap.Workers = append(snap.Workers, wh)
	}
	snap.OK = !snap.Draining && !allOpen
	return snap
}
