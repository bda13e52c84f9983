package main

// The tables in this file are the benchmark's contract: the workloads,
// every metric by name with its unit, direction and bound. BENCHMARK.json
// at the repository root restates them for the driver, and a unit test
// keeps the two identical.

// The standard op of every CG workload, kept from BENCH_pr7/9 so the
// numbers stay comparable with those records.
const (
	cgMaxIter  = 8
	cgTol      = 1e-30
	eigenIters = 8
)

// workload describes one set of inputs. Ops per epoch are fixed, not
// timed, because a warm runtime slows as it ages: only a fresh process
// executing a fixed number of ops sees the same runtime age every time.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json

	Kind    string // "lib", "serve" or "shard": which stack the ops enter
	Clients int    // closed-loop clients; with what one op runs in parallel, at most nproc busy threads
	Ops     int    // ops per client per epoch
	Prime   int    // unmeasured ops per client before the window (CG workloads)
	NX      int64  // Poisson grid edge of the CG workloads (rows = NX²)

	// LadderOps is how many ops each depth of the traced depth ladder
	// runs; small on large matrices so a traced epoch stays affordable.
	LadderOps int
}

// churn-workload shape: working set (24) larger than the engine's
// binding cache (8 per worker, 2 workers), a skewed hot set, three
// request classes and periodic writes.
const (
	churnMatrices  = 24
	churnHotShare  = 0.70
	churnUploadGap = 40 // every 40th op of a client is a re-upload
)

var workloads = []*workload{
	{
		Name: "lib_cg_small", Kind: "lib", Clients: 1, Ops: 500, Prime: 20, NX: 32, LadderOps: 20,
		Why: "overhead-bound: 8-iteration CG on 1024 rows straight on one runtime, so the legion/constraint/core/cunumeric launch path is nearly all of the time; bypasses serve and shard",
	},
	{
		Name: "lib_cg_large", Kind: "lib", Clients: 1, Ops: 15, Prime: 2, NX: 512, LadderOps: 4,
		Why: "data-bound: the same op on 262,144 rows (21 MB of matrix, about 5x L2), so partition images, distal kernels and memory traffic dominate and a launch-path change predicts no change",
	},
	{
		Name: "serve_cg_hot", Kind: "serve", Clients: 2, Ops: 200, Prime: 10, NX: 32, LadderOps: 20,
		Why: "the httpapi->engine hot path on one matrix with 2 keep-alive clients: admission, sticky routing, batch window, binding-cache hit, JSON; same arithmetic as lib_cg_small, so the gap is the service",
	},
	{
		Name: "serve_mix_churn", Kind: "serve", Clients: 2, Ops: 300, LadderOps: 20,
		Why: "24 uploaded matrices over a binding cache of 8 with a 70/30 hot/cold skew, solve/spmv/eigen mixed and a re-upload every 40th op: cache miss, LRU eviction, fingerprinting and invalidation by writes",
	},
	{
		Name: "shard2_cg_mid", Kind: "shard", Clients: 1, Ops: 50, Prime: 2, NX: 256, LadderOps: 8,
		Why: "CG on 65,536 rows through a 2-shard coordinator: scatter/gather/fold and loopback copies do most of the work; the other four workloads bypass the shard plane entirely",
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// metric is one named measurement. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change
// counts as a regression; per-layer metrics carry none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload reports
// all of them, none is ever 0, and all but ops_per_s and ok_share are
// better when lower. ok_share is 1 - fail_share: the driver judges a
// metric relative to its median, which a share of failures that is
// almost always 0 cannot support.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "overhead_x", Unit: "x", Better: "lower", Bound: 0.25},
	{Name: "ok_share", Unit: "share", Better: "higher", Bound: 0.01},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer lists the single-layer metrics of the traced pass; the part
// of the name before the dot is the module it measures. The README's
// interaction table says which end-to-end metric each should move.
var perLayer = []metric{
	{Name: "seq.op_ms", Unit: "ms", Better: "lower"},
	{Name: "seq.spmv_ns_per_nnz", Unit: "ns", Better: "lower"},

	{Name: "distal.spmv_ns_per_nnz", Unit: "ns", Better: "lower"},
	{Name: "distal.kernel_vs_seq_x", Unit: "x", Better: "lower"},
	{Name: "distal.plan_hit_share", Unit: "share", Better: "higher"},
	{Name: "distal.compiles", Unit: "count", Better: "lower"},

	{Name: "machine.sim_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "machine.copied_kb_per_op", Unit: "kB", Better: "lower"},
	{Name: "machine.copies_per_op", Unit: "count", Better: "lower"},

	{Name: "legion.launches_per_op", Unit: "count", Better: "lower"},
	{Name: "legion.points_per_op", Unit: "count", Better: "lower"},
	{Name: "legion.launch_us", Unit: "us", Better: "lower"},
	{Name: "legion.launch_np_us", Unit: "us", Better: "lower"},
	{Name: "legion.wait_share", Unit: "share", Better: "lower"},
	{Name: "legion.image_ms", Unit: "ms", Better: "lower"},
	{Name: "legion.image_builds_per_op", Unit: "count", Better: "lower"},
	{Name: "legion.image_hit_share", Unit: "share", Better: "higher"},
	{Name: "legion.part_hit_share", Unit: "share", Better: "higher"},

	{Name: "constraint.task_us", Unit: "us", Better: "lower"},
	{Name: "constraint.image_task_us", Unit: "us", Better: "lower"},

	{Name: "core.spmv_issue_us", Unit: "us", Better: "lower"},
	{Name: "core.spmv_fenced_us", Unit: "us", Better: "lower"},
	{Name: "core.spmv_vs_kernel_x", Unit: "x", Better: "lower"},
	{Name: "core.fingerprint_ms", Unit: "ms", Better: "lower"},

	{Name: "cunumeric.axpy_fenced_us", Unit: "us", Better: "lower"},
	{Name: "cunumeric.dot_get_us", Unit: "us", Better: "lower"},
	{Name: "cunumeric.alloc_us", Unit: "us", Better: "lower"},

	{Name: "solvers.iters_per_op", Unit: "count", Better: "lower"},
	{Name: "solvers.cg_ms", Unit: "ms", Better: "lower"},
	{Name: "solvers.mirror_match", Unit: "bool", Better: "higher"},

	{Name: "tune.speedup_x", Unit: "x", Better: "higher"},
	{Name: "tune.decisions", Unit: "count", Better: "higher"},

	{Name: "engine.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.bind_hit_share", Unit: "share", Better: "higher"},
	{Name: "engine.bind_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.evictions", Unit: "count", Better: "lower"},
	{Name: "engine.invalidations", Unit: "count", Better: "lower"},
	{Name: "engine.upload_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.batch_mean", Unit: "count", Better: "higher"},
	{Name: "engine.sheds", Unit: "count", Better: "lower"},
	{Name: "engine.retries", Unit: "count", Better: "lower"},
	{Name: "engine.replacements", Unit: "count", Better: "lower"},

	{Name: "loopback.self_us", Unit: "us", Better: "lower"},

	{Name: "httpapi.self_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.resp_kb", Unit: "kB", Better: "lower"},
	{Name: "httpapi.req_kb", Unit: "kB", Better: "lower"},

	{Name: "shard.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.self_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.scaling_x", Unit: "x", Better: "higher"},
	{Name: "shard.scatters_per_op", Unit: "count", Better: "lower"},
	{Name: "shard.kb_per_op", Unit: "kB", Better: "lower"},
	{Name: "shard.dot_partials_per_op", Unit: "count", Better: "lower"},
	{Name: "shard.failovers", Unit: "count", Better: "lower"},

	{Name: "run.aging_x", Unit: "x", Better: "lower"},
	{Name: "run.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "run.alloc_kb_per_op", Unit: "kB", Better: "lower"},
	{Name: "run.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "run.gc_pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "run.op_tail_pct", Unit: "%", Better: "higher"},
	{Name: "run.op_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "run.epochs_ok", Unit: "count", Better: "higher"},
	{Name: "run.epochs_hung", Unit: "count", Better: "lower"},
	{Name: "run.hung_ops", Unit: "count", Better: "lower"},
	{Name: "run.probe_hangs", Unit: "count", Better: "lower"},
	{Name: "run.floor_drift_x", Unit: "x", Better: "lower"},
	{Name: "run.trace_overhead_x", Unit: "x", Better: "higher"},
}

// notMeasured is what a per-layer metric reads when every traced epoch
// of a run was killed before reaching it.
const notMeasured = -1
