// Package shard is the multi-shard router of legate-serve: a
// Coordinator that implements engine.Backend over many in-process
// engine instances. Every request goes whole to one engine, the owner
// of its matrix name (hash of the name mod the shard count); when the
// owner fails with a service-side error the request fails over to the
// next shard, and so on through every shard. An uploaded matrix is held
// by the coordinator and pushed to a shard before that shard's first
// request for it, once per revision; a preset is materialized only by
// the engine that serves it. Because each answer comes from one
// unmodified engine, a sharded deployment returns bit-identical results
// to a single-process engine, failover included.
//
// The package never imports net/http or encoding/json (enforced by
// scripts/check_boundary.sh): transports stack on top of it exactly as
// they do on a single engine.
package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/prof"
	"repro/internal/serve/engine"
	"repro/internal/serve/loopback"
)

// Config sizes the shard plane.
type Config struct {
	Shards int           // engine instances behind the coordinator (default 2)
	Engine engine.Config // per-shard engine configuration

	// ShardFaults, when non-empty, overrides Engine.Faults per shard —
	// the chaos hook that degrades one shard while its peers stay
	// healthy. Must be empty or Shards long.
	ShardFaults []string
}

// shardCounters is one shard's routing accounting (ShardMetrics source).
type shardCounters struct {
	failovers   atomic.Int64
	passthrough atomic.Int64
}

// Coordinator implements engine.Backend over a fleet of engines. It
// owns the uploaded matrices; engines hold copies pushed on demand and
// the presets they materialized themselves.
type Coordinator struct {
	cfg     Config
	store   *engine.Store    // uploads only: presets are never materialized here
	engines []engine.Backend // loopback-wrapped: every crossing deep-copies

	mu     sync.Mutex
	pushed []map[string]int64 // per shard: matrix name → revision pushed

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
// upload store and profiling sink.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if len(cfg.ShardFaults) != 0 && len(cfg.ShardFaults) != cfg.Shards {
		return nil, fmt.Errorf("shard: ShardFaults has %d entries for %d shards", len(cfg.ShardFaults), cfg.Shards)
	}
	c := &Coordinator{
		cfg:    cfg,
		store:  engine.NewStore(),
		pushed: make([]map[string]int64, cfg.Shards),
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
			for _, prev := range c.engines {
				prev.Close()
			}
			return nil, err
		}
		c.engines = append(c.engines, loopback.New(e))
		c.pushed[s] = map[string]int64{}
	}
	return c, nil
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

// Matrices lists what a single engine would: the coordinator's uploads
// plus every preset some shard has materialized, one row per name.
// Pushed copies are not listed; the coordinator's row stands for them.
func (c *Coordinator) Matrices() []engine.MatrixInfo {
	out := c.store.List()
	seen := map[string]bool{}
	for _, mi := range out {
		seen[mi.Name] = true
	}
	for _, e := range c.engines {
		for _, mi := range e.Matrices() {
			if mi.Preset != "" && !seen[mi.Name] {
				seen[mi.Name] = true
				out = append(out, mi)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Upload validates and registers a matrix exactly like a single
// engine; it reaches a shard only when a request there needs it.
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

// ProfileReport serves the coordinator's own forwarding timeline for
// class "shard" and forwards engine classes to shard 0.
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
// coordinator's per-shard routing accounting.
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
		out.Shards = append(out.Shards, engine.ShardMetrics{
			Shard:       s,
			Failovers:   c.stats[s].failovers.Load(),
			Passthrough: c.stats[s].passthrough.Load(),
		})
	}
	return out
}
