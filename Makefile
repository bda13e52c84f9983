GO ?= go

.PHONY: check fmt vet build test race stress fuzz bench-fusion bench-serve bench-vet chaos overload prof info serve shard boundary docs links

# check is the full pre-merge gate: formatting, static analysis, build,
# the race-enabled test suite — every package once, which includes the
# suites the chaos / overload / serve / shard targets select for focused
# runs — the determinism suites under CPU starvation (stress), one pass
# over the fusion and serve wall-clock benchmarks
# (compile + run, not a timing study — use `go test -bench` directly with
# a real -benchtime for numbers), a ten-second native fuzz of each of the
# six fuzz targets (their seed corpora already ran as normal tests under
# `race`),
# a vet + test build of the frozen benchmark/ module against this tree,
# the legate-prof artifact and legate-bench inventory smoke tests, the
# engine/transport boundary check, and the documentation gates.
#
# Every `go test` carries an explicit -timeout (300s for ./..., 120s for
# a single package or suite) so a hang fails in minutes with goroutine
# stacks instead of sitting out go's ten-minute default.
check: fmt vet build race stress fuzz bench-fusion bench-serve bench-vet prof info boundary docs links

# fmt fails (and lists offenders) if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 300s ./...

race:
	$(GO) test -race -timeout 300s ./...

# stress re-runs every suite whose claim is determinism three times
# under the race detector, beside two busy-loop CPU hogs it starts and
# stops itself: the preset and simulated-time pins, executor
# equivalence, the figure, recovery and launch-order goldens, the
# fault/recovery (chaos) suite, the worker wakeup protocol, and the
# serve routing, batching and overload suites, whose routing depends on
# timing and whose answers must stay bit-identical. Each runs
# at GOMAXPROCS 1 and 2 — TestPresetsDeterministic and
# TestExecutorsEquivalent set both themselves, so -cpu would only repeat
# them. Each suite has its own -timeout, so a hang fails with goroutine
# stacks before the next suite starts.
STRESS = $(GO) test -race -count=3
stress:
	@sh -c 'while :; do :; done' & h1=$$!; sh -c 'while :; do :; done' & h2=$$!; \
	trap 'kill $$h1 $$h2' EXIT; set -e; \
	$(STRESS) -timeout 600s -run 'TestPresetsDeterministic' ./internal/bench/; \
	$(STRESS) -timeout 120s -run 'TestExecutorsEquivalent' ./internal/legion/; \
	$(STRESS) -cpu 1,2 -timeout 480s -run 'TestCGPresetSimTimePinned|Golden' ./internal/bench/; \
	$(STRESS) -cpu 1,2 -timeout 120s -run 'TestSimDeterminism|TestDelayInjectionIsValueAndClockNeutral|TestLaunchOrderPinned' ./internal/legion/ ./internal/solvers/; \
	$(STRESS) -cpu 1,2 -timeout 180s -run 'Fault|Panic|Recovery|ProcDeath|Checkpoint|Sticky|Chaos|Replay|InlineLifecycle' ./internal/fault/ ./internal/legion/ ./internal/bench/; \
	$(STRESS) -cpu 1,2 -timeout 180s -run 'Wakeup' ./internal/legion/; \
	$(STRESS) -cpu 1,2 -timeout 120s -run 'BoundedLoadRouting|Batching|Overload' ./internal/serve/...

# fuzz is a smoke run of the native fuzz targets, not a campaign: ten
# seconds of mutation over each target's seed corpus. Between them the
# six cover every parser of untrusted input: index sets, Matrix Market
# files, fault specs, HTTP request bodies and uploaded triples.
fuzz:
	$(GO) test -timeout 120s -run='^$$' -fuzz=FuzzFromPoints -fuzztime=10s ./internal/geometry/
	$(GO) test -timeout 120s -run='^$$' -fuzz=FuzzIntervalSetAlgebra -fuzztime=10s ./internal/geometry/
	$(GO) test -timeout 120s -run='^$$' -fuzz=FuzzReadMatrixMarket -fuzztime=10s ./internal/core/
	$(GO) test -timeout 120s -run='^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/fault/
	$(GO) test -timeout 120s -run='^$$' -fuzz=FuzzSolveRequest -fuzztime=10s ./internal/serve/httpapi/
	$(GO) test -timeout 120s -run='^$$' -fuzz=FuzzFromTriples -fuzztime=10s ./internal/serve/engine/

# chaos runs the fault-injection and recovery suite under the race
# detector: injector determinism, kernel-panic routing, checkpoint/
# replay bit-identity (fused reductions included), cancellation
# mid-replay, the inline executor replay runs through, processor-death
# degradation, the CG chaos acceptance test, and the recovery golden.
chaos:
	$(GO) test -race -timeout 120s -run 'Fault|Panic|Recovery|ProcDeath|Checkpoint|Sticky|Chaos|Replay|InlineLifecycle|Golden' ./internal/fault/ ./internal/legion/ ./internal/bench/

# overload runs the deterministic overload-chaos lifecycle suite under
# the race detector: deadline cancellation that keeps the worker warm
# and bit-identical, bounded-queue / quota / queue-wait shedding with
# Retry-After envelopes, the circuit-breaker lifecycle, graceful drain,
# the mixed-traffic chaos run, and the goroutine-leak check.
overload:
	$(GO) test -race -count=1 -timeout 120s -run 'Overload' ./internal/serve/...

# serve runs the legate-serve end-to-end suite on its own (it is also
# part of `race`, like chaos, overload, and shard): served results
# bit-identical to direct solver calls, 64-way concurrency under fault
# injection, cache invalidation on re-upload, pool replacement on
# processor death, batching coalescing.
serve:
	$(GO) test -race -count=1 -timeout 120s ./internal/serve/...

# shard runs the shard router's chaos suite under the race detector: a
# 2-shard deployment bit-identical to a single-process engine for every
# preset (CG, power iteration, SpMV), failover under seeded fault
# injection with the same bit-identity, coordinator drain, re-upload
# routing, the matrix listing, and the name-placement invariants.
shard:
	$(GO) test -race -count=1 -timeout 120s -run 'Shard' ./internal/shard/

# boundary fails the build if the engine or shard packages grow a
# dependency on net/http or encoding/json — the line that keeps every
# transport thin and the solver plane wire-format agnostic.
boundary:
	./scripts/check_boundary.sh

bench-fusion:
	$(GO) test -timeout 300s -run=NONE -bench=BenchmarkFusion -benchtime=1x ./...

bench-serve:
	$(GO) test -timeout 120s -run=NONE -bench=BenchmarkServe -benchtime=1x ./internal/serve/...

# bench-vet builds the frozen ruler (benchmark/, a module of its own
# that tier-1 never compiles) against this tree, so deleting an API the
# ruler still reads fails here. It runs no benchmark.
bench-vet:
	cd benchmark && $(GO) vet . && $(GO) test -timeout 120s .

# docs fails if any package lacks a package-level doc comment, or if
# ARCHITECTURE.md / doc.go miss a package.
docs:
	./scripts/check_docs.sh

# links fails on broken relative links in the top-level markdown docs.
links:
	./scripts/check_links.sh

# prof smoke-tests the observability pipeline: run legate-prof on a
# small CG preset and let -check validate that the Chrome trace parses,
# the per-processor timelines never overlap, the DOT dependence graph is
# well-formed, and the critical-path bounds are self-consistent.
prof:
	$(GO) run ./cmd/legate-prof -preset cg -procs 4 -units 1024 \
		-out $${TMPDIR:-/tmp}/legate-prof-smoke -check >/dev/null

# info smoke-tests the inventory (the machine model, kernel registry,
# API coverage and the fusion demo's profile and copy tables) and the
# Poisson example's -profile table: two of the three callers that print
# a prof sink's per-task summary.
info:
	$(GO) run ./cmd/legate-bench -exp info >/dev/null
	$(GO) run ./examples/poisson -nx 16 -gpus 2 -profile >/dev/null
