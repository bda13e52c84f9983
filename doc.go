// Package repro is a from-scratch Go reproduction of "Legate Sparse:
// Distributed Sparse Computing in Python" (Yadav et al., SC '23):
// a distributed SciPy-Sparse-style library built on a Legion-like
// task-based runtime, composing with a cuNumeric-like dense array
// library through constraint-based partitioning, DISTAL-style generated
// kernels, and a composable mapper — all executing on a simulated
// heterogeneous machine so the paper's weak-scaling evaluation can be
// regenerated without a supercomputer.
//
// See DESIGN.md for the system inventory and the substitutions made for
// unavailable hardware, ARCHITECTURE.md for the package map and the
// life-of-a-launch data flow, EXPERIMENTS.md for the paper-vs-measured
// record of every figure and table, and the examples/ directory for
// runnable programs. The top-level benchmarks (bench_test.go)
// regenerate each of the paper's figures at test scale:
//
//	go test -bench=. -benchmem .
//
// # Package tree
//
// Foundation:
//
//	internal/geometry    index-space algebra: rects, interval sets, tilings
//	internal/machine     synthetic Summit-like machine and cost model
//	internal/seq         sequential host reference kernels (the test oracle)
//
// Runtime:
//
//	internal/legion      Legion-model runtime: regions, partitions, launch
//	                     stream, dependence analysis, fusion, mapper,
//	                     checkpoint/replay, partition caches
//	internal/constraint  constraint-based parallelization (§4.1)
//	internal/fault       deterministic seeded fault injection
//	internal/prof        observability: sink, traces, critical paths
//
// Compiler:
//
//	internal/distal      DISTAL-style kernel generation; the plan registry
//
// Libraries:
//
//	internal/core        Legate Sparse: SciPy-style sparse matrices as
//	                     region packs (CSR/CSC/COO/DIA/BSR), fingerprints
//	internal/cunumeric   cuNumeric-style distributed dense arrays
//
// Applications:
//
//	internal/solvers     Krylov solvers, multigrid, power iteration; CG/PCG
//	                     and power iteration once over a vector Space
//	internal/mlearn      matrix-factorization workload (§6.2)
//	internal/quantum     Rydberg-chain quantum simulation (§6.1)
//	internal/petsc       explicitly-parallel rank-local baseline
//
// Services and tools:
//
//	internal/serve/engine    the legate-serve solver engine: typed
//	                         request/response API, warm runtime pool,
//	                         admission control (wire-format agnostic)
//	internal/serve/httpapi   the HTTP JSON transport over any Backend
//	internal/serve/loopback  the in-process deep-copy transport
//	internal/shard           multi-shard router: each request goes whole
//	                         to the engine that owns its matrix name,
//	                         with failover to the next
//	internal/bench           figure/table regeneration and ablations
//
// Commands:
//
//	cmd/legate-serve     HTTP solver service with warm runtime pool
//	                     (-shards routes over several engines)
//	cmd/legate-bench     paper experiments and ablations, the
//	                     EXPERIMENTS.md tables (-exp figures) and the
//	                     machine/kernel/API inventory (-exp info)
//	cmd/legate-prof      profiler artifact exporter
//	cmd/solve            Matrix Market solver front end
package repro
