package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distal"
	"repro/internal/legion"
)

// metrics is the engine's counter set, snapshotted by Metrics.
// Everything is atomic: counters are bumped from transport goroutines
// and worker goroutines concurrently.
type metrics struct {
	inflight atomic.Int64
	uploads  atomic.Int64
	failures atomic.Int64

	bindHits      atomic.Int64
	bindMisses    atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64

	batches     atomic.Int64
	batchedJobs atomic.Int64
	maxBatch    atomic.Int64

	replacements atomic.Int64
	spills       atomic.Int64

	// Request-lifecycle counters. sheds is the total; the per-reason
	// map is guarded by shedMu (bumped on shed paths only, which are
	// already the slow path).
	sheds         atomic.Int64
	shedMu        sync.Mutex
	shedByReason  map[string]int64
	queueExpired  atomic.Int64 // jobs whose deadline passed while queued
	cancellations atomic.Int64 // jobs abandoned at a cooperative cancellation checkpoint
	breakerTrips  atomic.Int64 // closed/half-open -> open transitions

	classCount [3]atomic.Int64
	classNS    [3]atomic.Int64
}

func newMetrics() *metrics { return &metrics{shedByReason: map[string]int64{}} }

func (m *metrics) noteShed(code string) {
	m.sheds.Add(1)
	m.shedMu.Lock()
	m.shedByReason[code]++
	m.shedMu.Unlock()
}

func (m *metrics) shedSnapshot() map[string]int64 {
	m.shedMu.Lock()
	defer m.shedMu.Unlock()
	out := make(map[string]int64, len(m.shedByReason))
	for k, v := range m.shedByReason {
		out[k] = v
	}
	return out
}

func (m *metrics) observe(c reqClass, lat time.Duration) {
	m.classCount[c].Add(1)
	m.classNS[c].Add(lat.Nanoseconds())
}

func (m *metrics) noteBatch(n int) {
	m.batches.Add(1)
	m.batchedJobs.Add(int64(n))
	for {
		cur := m.maxBatch.Load()
		if int64(n) <= cur || m.maxBatch.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// MetricsSnapshot is the engine's full counter snapshot (the JSON shape
// of the HTTP transport's GET /metrics).
type MetricsSnapshot struct {
	Inflight int64 `json:"inflight"`
	Uploads  int64 `json:"uploads"`
	Failures int64 `json:"failures"`

	Requests map[string]ClassMetrics `json:"requests"`

	BindingCache CacheMetrics     `json:"binding_cache"`
	Batching     BatchMetrics     `json:"batching"`
	Pool         PoolMetrics      `json:"pool"`
	Lifecycle    LifecycleMetrics `json:"lifecycle"`

	// PartitionCache aggregates every live pool runtime's legion cache
	// counters — the §4.1 partition reuse this service exists to exploit.
	PartitionCache legion.CacheStats `json:"partition_cache"`
	// PlanCache is the process-wide DISTAL kernel registry's counters
	// (distal.Standard.Stats()): every engine and runtime in the process
	// dispatches through that one registry.
	PlanCache distal.RegistryStats `json:"plan_cache"`

	// Shards is filled only by the shard coordinator: per-shard routing
	// accounting.
	Shards []ShardMetrics `json:"shards,omitempty"`
}

// ClassMetrics is the per-request-class roll-up.
type ClassMetrics struct {
	Count   int64 `json:"count"`
	MeanNS  int64 `json:"mean_ns"`
	TotalNS int64 `json:"total_ns"`
}

// CacheMetrics reports the worker binding caches.
type CacheMetrics struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// BatchMetrics reports request coalescing.
type BatchMetrics struct {
	Batches  int64   `json:"batches"`
	Jobs     int64   `json:"jobs"`
	MeanSize float64 `json:"mean_size"`
	MaxSize  int64   `json:"max_size"`
}

// PoolMetrics reports worker-pool health and routing.
type PoolMetrics struct {
	Workers      int   `json:"workers"`
	Replacements int64 `json:"replacements"`
	Spills       int64 `json:"spills"` // requests routed away from a busy owner to an idle worker
	Owners       int   `json:"owners"` // fingerprints with an owner; the store's live matrices at most

	// Deprecated: always 0; the engine never re-executes a group. Read
	// only by the frozen benchmark/layers.go; delete in the ruler PR
	// that drops `engine.retries`.
	Retries int64 `json:"retries"`
}

// LifecycleMetrics reports admission control and cancellation: how much
// load was shed (and why), how many admitted jobs expired in the queue
// or were cancelled mid-epoch, and breaker activity.
type LifecycleMetrics struct {
	Sheds         int64            `json:"sheds"`
	ShedByReason  map[string]int64 `json:"shed_by_reason"`
	QueueExpired  int64            `json:"queue_expired"`
	Cancellations int64            `json:"cancellations"`
	BreakerTrips  int64            `json:"breaker_trips"`
}

// ShardMetrics is one shard's routing row, filled by the internal/shard
// coordinator: how many whole requests were forwarded to the shard and
// how many of them failed over from it to the next shard.
//
// Scatters, BytesOut, BytesIn and DotPartials are always 0: the
// coordinator no longer splits a request across shards. They remain
// only because the benchmark's shardCounts still reads them; ROADMAP
// item 6 deletes them.
type ShardMetrics struct {
	Shard       int   `json:"shard"`
	Scatters    int64 `json:"scatters"`     // always 0
	BytesOut    int64 `json:"bytes_out"`    // always 0
	BytesIn     int64 `json:"bytes_in"`     // always 0
	DotPartials int64 `json:"dot_partials"` // always 0
	Failovers   int64 `json:"failovers"`    // requests retried on the next shard after failing here
	Passthrough int64 `json:"passthrough"`  // whole requests forwarded to it (one per attempt)
}

// Metrics snapshots every counter, including per-worker plan- and
// partition-cache views.
func (e *Engine) Metrics() MetricsSnapshot {
	m := e.metrics
	snap := MetricsSnapshot{
		Inflight: m.inflight.Load(),
		Uploads:  m.uploads.Load(),
		Failures: m.failures.Load(),
		Requests: map[string]ClassMetrics{},
		BindingCache: CacheMetrics{
			Hits:          m.bindHits.Load(),
			Misses:        m.bindMisses.Load(),
			Evictions:     m.evictions.Load(),
			Invalidations: m.invalidations.Load(),
		},
		Batching: BatchMetrics{
			Batches: m.batches.Load(),
			Jobs:    m.batchedJobs.Load(),
			MaxSize: m.maxBatch.Load(),
		},
		Pool: PoolMetrics{
			Workers:      len(e.workers),
			Replacements: m.replacements.Load(),
			Spills:       m.spills.Load(),
		},
		Lifecycle: LifecycleMetrics{
			Sheds:         m.sheds.Load(),
			ShedByReason:  m.shedSnapshot(),
			QueueExpired:  m.queueExpired.Load(),
			Cancellations: m.cancellations.Load(),
			BreakerTrips:  m.breakerTrips.Load(),
		},
	}
	e.mu.Lock()
	snap.Pool.Owners = len(e.owner)
	e.mu.Unlock()
	snap.PlanCache = distal.Standard.Stats()
	if snap.Batching.Batches > 0 {
		snap.Batching.MeanSize = float64(snap.Batching.Jobs) / float64(snap.Batching.Batches)
	}
	for c := classSolve; c <= classEigen; c++ {
		cm := ClassMetrics{Count: m.classCount[c].Load(), TotalNS: m.classNS[c].Load()}
		if cm.Count > 0 {
			cm.MeanNS = cm.TotalNS / cm.Count
		}
		snap.Requests[c.String()] = cm
	}
	for _, wk := range e.workers {
		cs := wk.cacheStats()
		snap.PartitionCache.PartHits += cs.PartHits
		snap.PartitionCache.PartMisses += cs.PartMisses
		snap.PartitionCache.AlignHits += cs.AlignHits
		snap.PartitionCache.AlignMisses += cs.AlignMisses
		snap.PartitionCache.ImageHits += cs.ImageHits
		snap.PartitionCache.ImageMisses += cs.ImageMisses
		snap.PartitionCache.ImageSetHits += cs.ImageSetHits
		snap.PartitionCache.ImageBuilds += cs.ImageBuilds
		snap.PartitionCache.PartEntries += cs.PartEntries
		snap.PartitionCache.AlignEntries += cs.AlignEntries
		snap.PartitionCache.ImageEntries += cs.ImageEntries
		snap.PartitionCache.ImageSetEntries += cs.ImageSetEntries
	}
	return snap
}
