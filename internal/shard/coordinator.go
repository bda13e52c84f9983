// Package shard is the multi-shard scatter/gather execution plane of
// legate-serve: a Coordinator that implements engine.Backend over many
// in-process engine instances. Uploaded matrices are partitioned into
// nnz-balanced row blocks aligned to the engines' dot-reduction tiles
// (partition.go), placed on engines by consistent hashing over content
// fingerprints (ring.go), and CG / SpMV / power-iteration execute as
// scatter/gather block requests with fixed-order host-side reduction
// folds (solve.go) — so a sharded deployment returns bit-identical
// results to a single-process engine, including when a degraded shard
// fails over to a replica. Requests the plane does not distribute
// (non-CG solvers, non-CSR formats) pass through whole to the
// fingerprint's ring owner.
//
// The package never imports net/http or encoding/json (enforced by
// scripts/check_boundary.sh): transports stack on top of it exactly as
// they do on a single engine.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/serve/engine"
	"repro/internal/serve/loopback"
)

// Config sizes the shard plane.
type Config struct {
	Shards   int           // engine instances behind the coordinator (default 2)
	Replicas int           // engines that can answer for each block (default 2, capped at Shards)
	VNodes   int           // virtual nodes per shard on the placement ring (default 64)
	Engine   engine.Config // per-shard engine configuration

	// ShardFaults, when non-empty, overrides Engine.Faults per shard —
	// the chaos hook that degrades one shard while its peers stay
	// healthy. Must be empty or Shards long.
	ShardFaults []string
}

// shardCounters is one shard's comms accounting (ShardMetrics source).
type shardCounters struct {
	blocks      atomic.Int64
	scatters    atomic.Int64
	gathers     atomic.Int64
	bytesOut    atomic.Int64
	bytesIn     atomic.Int64
	dotPartials atomic.Int64
	failovers   atomic.Int64
	passthrough atomic.Int64
}

// Coordinator implements engine.Backend over a fleet of engines. It
// owns the authoritative matrix store; engines hold content-addressed
// block copies pushed on demand.
type Coordinator struct {
	cfg     Config
	procs   int // reduction-tile count (the engines' launch-domain width)
	store   *engine.Store
	engines []engine.Backend // loopback-wrapped: every crossing deep-copies
	raw     []*engine.Engine
	ring    *ring

	mu     sync.Mutex
	plans  map[core.Fingerprint]*plan
	pushed map[string]bool // "shard/blockname" already uploaded

	draining atomic.Bool
	stats    []shardCounters
	uploads  atomic.Int64

	sink  *prof.Sink
	run   int
	seq   atomic.Int64
	epoch time.Time
}

var _ engine.Backend = (*Coordinator)(nil)

// New builds the shard plane: Shards engines plus the coordinator's
// store, ring, and profiling sink.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > cfg.Shards {
		cfg.Replicas = cfg.Shards
	}
	if len(cfg.ShardFaults) != 0 && len(cfg.ShardFaults) != cfg.Shards {
		return nil, fmt.Errorf("shard: ShardFaults has %d entries for %d shards", len(cfg.ShardFaults), cfg.Shards)
	}
	procs := cfg.Engine.Procs
	if procs <= 0 {
		procs = 4 // engine.Config's default, which fixes the reduction-tile width
	}
	c := &Coordinator{
		cfg:    cfg,
		procs:  procs,
		store:  engine.NewStore(),
		ring:   newRing(cfg.Shards, cfg.VNodes),
		plans:  map[core.Fingerprint]*plan{},
		pushed: map[string]bool{},
		stats:  make([]shardCounters, cfg.Shards),
		sink:   prof.NewSink(cfg.Engine.ProfCapacity),
		epoch:  time.Now(),
	}
	c.run = c.sink.AttachRun()
	for s := 0; s < cfg.Shards; s++ {
		ecfg := cfg.Engine
		if len(cfg.ShardFaults) > 0 {
			ecfg.Faults = cfg.ShardFaults[s]
		}
		e, err := engine.New(ecfg)
		if err != nil {
			for _, prev := range c.raw {
				prev.Close()
			}
			return nil, err
		}
		c.raw = append(c.raw, e)
		c.engines = append(c.engines, loopback.New(e))
	}
	return c, nil
}

// badRequest wraps err as a typed client error.
func badRequest(err error) *engine.Error {
	return &engine.Error{Code: engine.CodeBadRequest, Err: err}
}

// admit runs the coordinator-level gate shared by every request:
// drain check, matrix resolution, and the deadline budget context.
func (c *Coordinator) admit(ctx context.Context, meta engine.RequestMeta, matrix string) (context.Context, context.CancelFunc, *engine.MatrixDef, error) {
	if matrix == "" {
		return nil, nil, nil, badRequest(fmt.Errorf("missing matrix name"))
	}
	if c.draining.Load() {
		return nil, nil, nil, &engine.Error{Code: engine.CodeDraining, Retryable: true, RetryAfter: time.Second, Err: errors.New("coordinator draining")}
	}
	d, err := c.store.Get(matrix)
	if err != nil {
		return nil, nil, nil, &engine.Error{Code: engine.CodeNotFound, Err: err}
	}
	budget := c.cfg.Engine.Deadline
	if meta.Deadline > 0 {
		budget = meta.Deadline
	}
	cancel := context.CancelFunc(func() {})
	if budget > 0 {
		ctx, cancel = context.WithTimeout(ctx, budget)
	}
	return ctx, cancel, d, nil
}

// ctxError maps a cancelled coordinator context onto the engine's
// deadline/cancel taxonomy.
func ctxError(ctx context.Context) *engine.Error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return &engine.Error{Code: engine.CodeDeadline, Retryable: true, Err: ctx.Err()}
	}
	return &engine.Error{Code: engine.CodeCancelled, Err: ctx.Err()}
}

// planFor returns (building if needed) the cached distribution plan
// for a definition. The second result reports whether it was cached —
// the response's Cache field.
func (c *Coordinator) planFor(d *engine.MatrixDef) (*plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.plans[d.FP]; ok {
		return p, true
	}
	p := buildPlan(d, c.procs, c.cfg.Shards, c.cfg.Replicas, c.ring)
	for _, g := range p.groups {
		if !g.rows.Empty() {
			c.stats[g.owners[0]].blocks.Add(1)
		}
	}
	c.plans[d.FP] = p
	return p, false
}

// ensureBlock pushes a group's localized triples to one shard (once
// per shard — block names are content-addressed, so a push can never
// go stale).
func (c *Coordinator) ensureBlock(ctx context.Context, shard int, g *blockGroup) error {
	key := fmt.Sprintf("%d/%s", shard, g.name)
	c.mu.Lock()
	done := c.pushed[key]
	c.mu.Unlock()
	if done {
		return nil
	}
	_, err := c.engines[shard].Upload(ctx, &engine.UploadRequest{
		Name: g.name,
		Rows: g.rows.Size(),
		Cols: g.cols,
		Row:  g.row, Col: g.col, Val: g.val,
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.pushed[key] = true
	c.mu.Unlock()
	return nil
}

// failoverable reports whether a block request error justifies trying
// the next replica: service-side degradations do, client errors and
// the coordinator's own deadline/cancel do not.
func failoverable(err error) bool {
	switch engine.AsError(err).Code {
	case engine.CodeBadRequest, engine.CodeNotFound, engine.CodeDeadline, engine.CodeCancelled:
		return false
	}
	return true
}

// span records one scatter/gather leg on the coordinator's profiling
// timeline. Each leg is registered as its own single-point launch so
// BuildReport produces a per-task breakdown for the shard class.
func (c *Coordinator) span(task string, shard int, start time.Time) {
	now := time.Now()
	seq := c.seq.Add(1)
	c.sink.RecordLaunch(prof.LaunchInfo{Run: c.run, Seq: seq, Name: task, Points: 1}, nil)
	c.sink.RecordSpan(prof.Span{
		Run: c.run, Task: task, Launch: seq,
		Proc: shard, Node: shard,
		Start: start.Sub(c.epoch), Dur: now.Sub(start),
	})
}

// blockSpMV scatters x to a group's owner (failing over across
// replicas) and returns the block's rows of A @ x.
func (c *Coordinator) blockSpMV(ctx context.Context, g *blockGroup, x []float64) ([]float64, error) {
	var lastErr error
	for attempt, shard := range g.owners {
		if attempt > 0 {
			prev := g.owners[attempt-1]
			c.stats[prev].failovers.Add(1)
			c.sink.RecordMark(prof.Mark{Run: c.run, Kind: prof.MarkFailover, At: time.Since(c.epoch), Proc: prev, Task: g.name})
		}
		if err := c.ensureBlock(ctx, shard, g); err != nil {
			lastErr = err
			if !failoverable(err) {
				return nil, err
			}
			continue
		}
		t0 := time.Now()
		c.stats[shard].scatters.Add(1)
		c.stats[shard].bytesOut.Add(int64(8 * len(x)))
		resp, err := c.engines[shard].SpMV(ctx, &engine.SpMVRequest{Matrix: g.name, X: x})
		c.span("shard.scatter", shard, t0)
		if err == nil {
			c.stats[shard].gathers.Add(1)
			c.stats[shard].bytesIn.Add(int64(8 * len(resp.Y)))
			c.span("shard.gather", shard, time.Now())
			return resp.Y, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctxError(ctx)
		}
		if !failoverable(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// distSpMV computes y = A @ x across the plan's groups: every populated
// group computes its row block concurrently, and the gather is a
// concatenation in group order (no floating-point reduction crosses a
// block boundary, so the result is bit-identical to one engine).
func (c *Coordinator) distSpMV(ctx context.Context, p *plan, y, x []float64) error {
	var wg sync.WaitGroup
	errs := make([]error, len(p.groups))
	for gi, g := range p.groups {
		if g.rows.Empty() {
			continue
		}
		wg.Add(1)
		go func(gi int, g *blockGroup) {
			defer wg.Done()
			yk, err := c.blockSpMV(ctx, g, x)
			if err != nil {
				errs[gi] = err
				return
			}
			copy(y[g.rows.Lo:g.rows.Hi+1], yk)
		}(gi, g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// dot computes a · b with the runtime's exact reduction order and
// charges each tile's partial to the shard that owns it.
func (c *Coordinator) dot(p *plan, a, b []float64) float64 {
	for t, tile := range p.tiles {
		if !tile.Empty() {
			g := p.groups[p.tileTo[t]]
			if !g.rows.Empty() {
				c.stats[g.owners[0]].dotPartials.Add(1)
			}
		}
	}
	return p.fold(a, b)
}

// Drain stops admissions and drains every engine within the shared
// timeout budget, reporting whether everything finished in time.
func (c *Coordinator) Drain(timeout time.Duration) bool {
	c.draining.Store(true)
	deadline := time.Now().Add(timeout)
	clean := true
	for _, e := range c.engines {
		remain := time.Until(deadline)
		if remain < 0 {
			remain = 0
		}
		if !e.Drain(remain) {
			clean = false
		}
	}
	return clean
}

// Close tears down every engine.
func (c *Coordinator) Close() {
	c.draining.Store(true)
	for _, e := range c.engines {
		e.Close()
	}
}

// Matrices lists the coordinator's authoritative store (block copies on
// the engines are an implementation detail and are not listed).
func (c *Coordinator) Matrices() []engine.MatrixInfo { return c.store.List() }

// Upload validates and registers a matrix exactly like a single
// engine; blocks are cut and pushed lazily on first use.
func (c *Coordinator) Upload(_ context.Context, req *engine.UploadRequest) (*engine.UploadResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, badRequest(err)
	}
	d := c.store.Put(req.Name, req.Rows, req.Cols, req.Row, req.Col, req.Val)
	c.uploads.Add(1)
	return &engine.UploadResponse{
		Name:        d.Name,
		Fingerprint: fmt.Sprintf("%016x", uint64(d.FP)),
		NNZ:         len(d.Val),
	}, nil
}

// ProfileReport serves the coordinator's own scatter/gather timeline
// for class "shard" and forwards engine classes to shard 0.
func (c *Coordinator) ProfileReport(class string) (*prof.Report, error) {
	if class == "shard" {
		return c.sink.Snapshot().BuildReport(), nil
	}
	return c.engines[0].ProfileReport(class)
}

// Health aggregates shard healths: the plane is OK while it is not
// draining and every shard can still serve.
func (c *Coordinator) Health() engine.HealthSnapshot {
	out := engine.HealthSnapshot{OK: !c.draining.Load(), Draining: c.draining.Load()}
	for _, e := range c.engines {
		h := e.Health()
		out.Pool += h.Pool
		out.Healthy += h.Healthy
		out.Degraded += h.Degraded
		out.Replacements += h.Replacements
		out.BreakerTrips += h.BreakerTrips
		out.Workers = append(out.Workers, h.Workers...)
		if !h.OK {
			out.OK = false
		}
	}
	return out
}

// Metrics sums every shard engine's counters and appends the
// coordinator's per-shard comms accounting.
func (c *Coordinator) Metrics() engine.MetricsSnapshot {
	out := engine.MetricsSnapshot{Requests: map[string]engine.ClassMetrics{}}
	for _, e := range c.engines {
		s := e.Metrics()
		out.Inflight += s.Inflight
		out.Failures += s.Failures
		for k, v := range s.Requests {
			cur := out.Requests[k]
			cur.Count += v.Count
			cur.TotalNS += v.TotalNS
			out.Requests[k] = cur
		}
		out.BindingCache.Hits += s.BindingCache.Hits
		out.BindingCache.Misses += s.BindingCache.Misses
		out.BindingCache.Evictions += s.BindingCache.Evictions
		out.BindingCache.Invalidations += s.BindingCache.Invalidations
		out.Batching.Batches += s.Batching.Batches
		out.Batching.Jobs += s.Batching.Jobs
		if s.Batching.MaxSize > out.Batching.MaxSize {
			out.Batching.MaxSize = s.Batching.MaxSize
		}
		out.Pool.Workers += s.Pool.Workers
		out.Pool.Replacements += s.Pool.Replacements
		out.Pool.Retries += s.Pool.Retries
		out.Lifecycle.Sheds += s.Lifecycle.Sheds
		if out.Lifecycle.ShedByReason == nil {
			out.Lifecycle.ShedByReason = map[string]int64{}
		}
		for k, v := range s.Lifecycle.ShedByReason {
			out.Lifecycle.ShedByReason[k] += v
		}
		out.Lifecycle.QueueExpired += s.Lifecycle.QueueExpired
		out.Lifecycle.Cancellations += s.Lifecycle.Cancellations
		out.Lifecycle.BreakerTrips += s.Lifecycle.BreakerTrips
		out.PartitionCache.PartHits += s.PartitionCache.PartHits
		out.PartitionCache.PartMisses += s.PartitionCache.PartMisses
		out.PartitionCache.AlignHits += s.PartitionCache.AlignHits
		out.PartitionCache.AlignMisses += s.PartitionCache.AlignMisses
		out.PartitionCache.ImageHits += s.PartitionCache.ImageHits
		out.PartitionCache.ImageMisses += s.PartitionCache.ImageMisses
		out.PartitionCache.ImageSetHits += s.PartitionCache.ImageSetHits
		out.PartitionCache.ImageBuilds += s.PartitionCache.ImageBuilds
		out.PartitionCache.PartEntries += s.PartitionCache.PartEntries
		out.PartitionCache.AlignEntries += s.PartitionCache.AlignEntries
		out.PartitionCache.ImageEntries += s.PartitionCache.ImageEntries
		out.PartitionCache.ImageSetEntries += s.PartitionCache.ImageSetEntries
		out.PlanCache = s.PlanCache // process-wide registry counters: reported once, not summed
	}
	out.Uploads = c.uploads.Load()
	for k, v := range out.Requests {
		if v.Count > 0 {
			v.MeanNS = v.TotalNS / v.Count
			out.Requests[k] = v
		}
	}
	for s := range c.stats {
		st := &c.stats[s]
		out.Shards = append(out.Shards, engine.ShardMetrics{
			Shard:       s,
			Blocks:      st.blocks.Load(),
			Scatters:    st.scatters.Load(),
			Gathers:     st.gathers.Load(),
			BytesOut:    st.bytesOut.Load(),
			BytesIn:     st.bytesIn.Load(),
			DotPartials: st.dotPartials.Load(),
			Failovers:   st.failovers.Load(),
			Passthrough: st.passthrough.Load(),
		})
	}
	return out
}
