package shard

// The shard chaos/acceptance suite (run by `make shard`): a 2-shard
// in-process deployment must return BIT-IDENTICAL results to a
// single-process engine for every preset — CG solve, power iteration,
// and SpMV — including under seeded fault injection with one shard's
// replica failing over. Plus deterministic unit coverage for the
// placement ring, the tile-quantized partition, and the host-side
// reduction fold.

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/cunumeric"
	"repro/internal/geometry"
	"repro/internal/legion"
	"repro/internal/machine"
	"repro/internal/serve/engine"
	"repro/internal/serve/loopback"
)

// testEngineConfig is the shared per-engine configuration: the same
// config must drive the sharded and single-process deployments or
// bit-identity is not a meaningful claim.
func testEngineConfig() engine.Config {
	return engine.Config{Pool: 1, Procs: 4, Seed: 7}
}

// newShardPlane builds a coordinator over shards engines.
func newShardPlane(t *testing.T, shards, replicas int, shardFaults []string) *Coordinator {
	t.Helper()
	c, err := New(Config{
		Shards: shards, Replicas: replicas,
		Engine:      testEngineConfig(),
		ShardFaults: shardFaults,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// newSingleEngine builds the loopback-wrapped single-process baseline.
func newSingleEngine(t *testing.T) engine.Backend {
	t.Helper()
	e, err := engine.New(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return loopback.New(e)
}

// bitsEqual compares float slices bitwise (NaN-safe, -0 ≠ +0 — the
// strictest possible identity).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// presets under test: one of each generator family, sized to keep the
// suite fast while exercising uneven tiles (n not divisible by procs).
var testPresets = []string{"poisson2d:10", "poisson3d:4", "banded:90", "random:70", "eye:33"}

// solveBoth runs the same request against both backends and asserts
// bit-identical solver-visible outcomes (transport-visible fields —
// cache, worker, latency — are explicitly out of scope).
func solveBoth(t *testing.T, sharded, single engine.Backend, req *engine.SolveRequest) {
	t.Helper()
	ctx := context.Background()
	sr := *req
	got, err := sharded.Solve(ctx, &sr)
	if err != nil {
		t.Fatalf("sharded solve(%s): %v", req.Matrix, err)
	}
	er := *req
	want, err := single.Solve(ctx, &er)
	if err != nil {
		t.Fatalf("single solve(%s): %v", req.Matrix, err)
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Errorf("%s: iterations/converged = %d/%v, want %d/%v",
			req.Matrix, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		t.Errorf("%s: residual %v != %v", req.Matrix, got.Residual, want.Residual)
	}
	if !bitsEqual(got.X, want.X) {
		t.Errorf("%s: solution vectors are not bit-identical", req.Matrix)
	}
}

// TestShardedServeBitIdenticalToSingleProcess is the acceptance test:
// a 2-shard deployment answers CG, power iteration, and SpMV with
// results bit-identical to a single-process engine for every preset.
func TestShardedServeBitIdenticalToSingleProcess(t *testing.T) {
	c := newShardPlane(t, 2, 2, nil)
	single := newSingleEngine(t)
	ctx := context.Background()

	// A negative tolerance is kept, not defaulted: neither path converges.
	solveBoth(t, c, single, &engine.SolveRequest{Matrix: "poisson2d:10", Tol: -1, MaxIter: 60})
	for _, m := range testPresets {
		solveBoth(t, c, single, &engine.SolveRequest{Matrix: m, Tol: 1e-10, MaxIter: 150})

		ge, err := c.Eigen(ctx, &engine.EigenRequest{Matrix: m, Iters: 20, Seed: 42})
		if err != nil {
			t.Fatalf("sharded eigen(%s): %v", m, err)
		}
		we, err := single.Eigen(ctx, &engine.EigenRequest{Matrix: m, Iters: 20, Seed: 42})
		if err != nil {
			t.Fatalf("single eigen(%s): %v", m, err)
		}
		if math.Float64bits(ge.Eigenvalue) != math.Float64bits(we.Eigenvalue) {
			t.Errorf("%s: eigenvalue %v != %v", m, ge.Eigenvalue, we.Eigenvalue)
		}
		if !bitsEqual(ge.Vector, we.Vector) {
			t.Errorf("%s: eigenvectors are not bit-identical", m)
		}

		gy, err := c.SpMV(ctx, &engine.SpMVRequest{Matrix: m})
		if err != nil {
			t.Fatalf("sharded spmv(%s): %v", m, err)
		}
		wy, err := single.SpMV(ctx, &engine.SpMVRequest{Matrix: m})
		if err != nil {
			t.Fatalf("single spmv(%s): %v", m, err)
		}
		if !bitsEqual(gy.Y, wy.Y) {
			t.Errorf("%s: spmv results are not bit-identical", m)
		}
	}
}

// TestShardScalingBitIdentity pins the invariant at other shard
// counts: 1-shard (degenerate) and 4-shard planes agree with the
// baseline too.
func TestShardScalingBitIdentity(t *testing.T) {
	single := newSingleEngine(t)
	for _, shards := range []int{1, 4} {
		c := newShardPlane(t, shards, 2, nil)
		solveBoth(t, c, single, &engine.SolveRequest{Matrix: "poisson2d:10", Tol: 1e-10})
	}
}

// TestShardFailoverBitIdentity degrades shard 0 with a seeded
// always-fault schedule (recovery off, one execution per epoch): every
// block request placed there fails over to its replica, and the
// results stay bit-identical to a healthy single-process engine.
func TestShardFailoverBitIdentity(t *testing.T) {
	// Recovery off and one execution per epoch, so shard 0's rate:1
	// schedule degrades every request deterministically instead of
	// healing mid-test. Numerical parameters (Procs) match the healthy
	// baseline — that is all bit-identity depends on.
	ecfg := testEngineConfig()
	ecfg.CheckpointEvery = -1
	ecfg.RetryBudget = 1
	c, err := New(Config{
		Shards: 2, Replicas: 2,
		Engine:      ecfg,
		ShardFaults: []string{"rate:1", ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	single := newSingleEngine(t)
	ctx := context.Background()

	// A negative tolerance is kept, not defaulted: neither path converges.
	solveBoth(t, c, single, &engine.SolveRequest{Matrix: "poisson2d:10", Tol: -1, MaxIter: 60})
	for _, m := range testPresets {
		solveBoth(t, c, single, &engine.SolveRequest{Matrix: m, Tol: 1e-10, MaxIter: 150})

		gy, err := c.SpMV(ctx, &engine.SpMVRequest{Matrix: m})
		if err != nil {
			t.Fatalf("sharded spmv(%s) under faults: %v", m, err)
		}
		wy, err := single.SpMV(ctx, &engine.SpMVRequest{Matrix: m})
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(gy.Y, wy.Y) {
			t.Errorf("%s: spmv under failover is not bit-identical", m)
		}
	}

	var failovers int64
	for _, row := range c.Metrics().Shards {
		failovers += row.Failovers
	}
	if failovers == 0 {
		t.Error("no block request failed over despite shard 0 being degraded")
	}
	rep, err := c.ProfileReport("shard")
	if err != nil || rep == nil {
		t.Fatalf("shard profile report: %v", err)
	}
}

// TestShardFailoverWithBrokenConfig rejects a ShardFaults vector whose
// length disagrees with the shard count.
func TestShardFailoverWithBrokenConfig(t *testing.T) {
	if _, err := New(Config{Shards: 3, ShardFaults: []string{"rate:1"}}); err == nil {
		t.Fatal("mismatched ShardFaults accepted")
	}
}

// TestShardCoordinatorDrain verifies the plane's lifecycle: a drained
// coordinator sheds new work with the retryable draining code, drains
// every engine within the budget, and closes cleanly.
func TestShardCoordinatorDrain(t *testing.T) {
	c := newShardPlane(t, 2, 2, nil)
	ctx := context.Background()
	if _, err := c.SpMV(ctx, &engine.SpMVRequest{Matrix: "eye:8"}); err != nil {
		t.Fatal(err)
	}
	if !c.Drain(5 * time.Second) {
		t.Fatal("drain did not complete in budget")
	}
	_, err := c.SpMV(ctx, &engine.SpMVRequest{Matrix: "eye:8"})
	ee := engine.AsError(err)
	if ee.Code != engine.CodeDraining || !ee.Retryable {
		t.Fatalf("post-drain request: code=%q retryable=%v, want %q retryable", ee.Code, ee.Retryable, engine.CodeDraining)
	}
	if h := c.Health(); h.OK || !h.Draining {
		t.Errorf("post-drain health: ok=%v draining=%v, want degraded draining", h.OK, h.Draining)
	}
}

// TestShardPassthroughNonCG routes what the plane does not distribute
// — non-CG solvers, non-CSR formats — whole to one engine, still
// bit-identical to the single-process baseline.
func TestShardPassthroughNonCG(t *testing.T) {
	c := newShardPlane(t, 2, 2, nil)
	single := newSingleEngine(t)
	ctx := context.Background()

	solveBoth(t, c, single, &engine.SolveRequest{Matrix: "poisson2d:8", Solver: "bicgstab", Tol: 1e-10})
	solveBoth(t, c, single, &engine.SolveRequest{Matrix: "banded:40", Solver: "gmres", Tol: 1e-10})
	solveBoth(t, c, single, &engine.SolveRequest{Matrix: "poisson2d:8", Solver: "pcg", Tol: 1e-10})

	gy, err := c.SpMV(ctx, &engine.SpMVRequest{Matrix: "poisson2d:8", Format: "coo"})
	if err != nil {
		t.Fatal(err)
	}
	wy, err := single.SpMV(ctx, &engine.SpMVRequest{Matrix: "poisson2d:8", Format: "coo"})
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(gy.Y, wy.Y) {
		t.Error("coo passthrough spmv is not bit-identical")
	}

	var passthrough int64
	for _, row := range c.Metrics().Shards {
		passthrough += row.Passthrough
	}
	if passthrough < 3 {
		t.Errorf("passthrough count = %d, want >= 3", passthrough)
	}

	if _, err := c.Solve(ctx, &engine.SolveRequest{Matrix: "eye:8", Solver: "qr"}); engine.AsError(err).Code != engine.CodeBadRequest {
		t.Errorf("unknown solver: got %v, want bad_request", err)
	}
}

// TestShardUploadInvalidation re-uploads a name with new contents: the
// new fingerprint gets a fresh plan and fresh content-addressed
// blocks, so sharded results track the new matrix — and still match a
// single-process engine fed the same sequence.
func TestShardUploadInvalidation(t *testing.T) {
	c := newShardPlane(t, 2, 2, nil)
	single := newSingleEngine(t)
	ctx := context.Background()

	upload := func(scale float64) *engine.UploadRequest {
		n := int64(12)
		req := &engine.UploadRequest{Name: "m", Rows: n, Cols: n}
		for i := int64(0); i < n; i++ {
			req.Row = append(req.Row, i)
			req.Col = append(req.Col, i)
			req.Val = append(req.Val, scale+float64(i))
		}
		return req
	}

	for _, scale := range []float64{2, 5} {
		ur := upload(scale)
		cu, err := c.Upload(ctx, ur)
		if err != nil {
			t.Fatal(err)
		}
		su, err := single.Upload(ctx, ur)
		if err != nil {
			t.Fatal(err)
		}
		if cu.Fingerprint != su.Fingerprint || cu.NNZ != su.NNZ {
			t.Fatalf("upload ack mismatch: %+v vs %+v", cu, su)
		}
		solveBoth(t, c, single, &engine.SolveRequest{Matrix: "m", Tol: 1e-12})
	}

	c.mu.Lock()
	plans := len(c.plans)
	c.mu.Unlock()
	if plans != 2 {
		t.Errorf("plan cache has %d entries after re-upload, want 2 (one per fingerprint)", plans)
	}

	found := false
	for _, mi := range c.Matrices() {
		if mi.Name == "m" && mi.Revision >= 2 {
			found = true
		}
	}
	if !found {
		t.Error("listing does not show re-uploaded matrix at revision >= 2")
	}
}

// TestShardDotMatchesRuntimeDot pins the fold to the machine: the
// host-side tiled fold must reproduce cunumeric.Dot bit-for-bit across
// sizes and launch-domain widths, including n < procs (empty tiles).
func TestShardDotMatchesRuntimeDot(t *testing.T) {
	for _, procs := range []int{1, 3, 4, 7} {
		for _, n := range []int64{1, 2, 5, 16, 33, 100} {
			a := make([]float64, n)
			b := make([]float64, n)
			for i := range a {
				a[i] = cunumeric.Uniform01(11, uint64(i))*2 - 1
				b[i] = cunumeric.Uniform01(23, uint64(i))*2 - 1
			}
			p := &plan{n: n, tiles: geometry.Tile(geometry.NewRect(0, n-1), procs)}
			got := p.fold(a, b)

			m := machine.New(machine.Config{Nodes: (procs + 1) / 2})
			rt := legion.NewRuntime(m, m.Select(machine.CPU, procs))
			av := cunumeric.FromSlice(rt, a)
			bv := cunumeric.FromSlice(rt, b)
			want := cunumeric.Dot(av, bv).Get()
			rt.Shutdown()

			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("procs=%d n=%d: fold %v != runtime dot %v", procs, n, got, want)
			}
		}
	}
}

// TestShardPartitionQuantizedBalanced checks the cut invariants: block
// boundaries land exactly on reduction-tile boundaries, groups tile
// the row space, localized triples are complete, and the nnz balance
// matches core.BalancedCuts' greedy guarantee.
func TestShardPartitionQuantizedBalanced(t *testing.T) {
	def, err := engine.BuildPreset("poisson2d:10")
	if err != nil {
		t.Fatal(err)
	}
	r := newRing(3, 0)
	p := buildPlan(def, 4, 3, 2, r)

	tileLo := map[int64]bool{}
	tileHi := map[int64]bool{}
	for _, tile := range p.tiles {
		if !tile.Empty() {
			tileLo[tile.Lo] = true
			tileHi[tile.Hi] = true
		}
	}
	next := int64(0)
	var nnz int64
	for g, grp := range p.groups {
		if grp.rows.Empty() {
			continue
		}
		if grp.rows.Lo != next {
			t.Fatalf("group %d starts at %d, want %d (groups must tile the rows)", g, grp.rows.Lo, next)
		}
		if !tileLo[grp.rows.Lo] || !tileHi[grp.rows.Hi] {
			t.Errorf("group %d [%d,%d] is not tile-aligned", g, grp.rows.Lo, grp.rows.Hi)
		}
		if int64(len(grp.row)) != grp.nnz {
			t.Errorf("group %d: %d triples, nnz says %d", g, len(grp.row), grp.nnz)
		}
		for i, ri := range grp.row {
			if ri < 0 || ri >= grp.rows.Size() {
				t.Fatalf("group %d triple %d: local row %d out of [0,%d)", g, i, ri, grp.rows.Size())
			}
		}
		if len(grp.owners) != 2 || grp.owners[0] == grp.owners[1] {
			t.Errorf("group %d owners = %v, want 2 distinct shards", g, grp.owners)
		}
		nnz += grp.nnz
		next = grp.rows.Hi + 1
	}
	if next != def.Rows {
		t.Fatalf("groups cover rows [0,%d), want [0,%d)", next, def.Rows)
	}
	if nnz != int64(len(def.Val)) {
		t.Fatalf("groups hold %d triples, matrix has %d", nnz, len(def.Val))
	}
}

// TestShardRingDeterministicPlacement checks that placement is a pure
// function of contents, yields distinct replicas, and respects caps.
func TestShardRingDeterministicPlacement(t *testing.T) {
	a := newRing(5, 64)
	b := newRing(5, 64)
	for key := uint64(0); key < 200; key++ {
		pa := a.place(key, 3)
		pb := b.place(key, 3)
		if len(pa) != 3 {
			t.Fatalf("key %d: %d replicas, want 3", key, len(pa))
		}
		seen := map[int]bool{}
		for i, s := range pa {
			if s != pb[i] {
				t.Fatalf("key %d: placement not deterministic: %v vs %v", key, pa, pb)
			}
			if s < 0 || s >= 5 || seen[s] {
				t.Fatalf("key %d: bad replica set %v", key, pa)
			}
			seen[s] = true
		}
	}
	if got := a.place(1, 99); len(got) != 5 {
		t.Errorf("replicas should cap at shard count: got %d", len(got))
	}
	// Spread: no shard owns everything.
	counts := map[int]int{}
	for key := uint64(0); key < 500; key++ {
		counts[a.place(key, 1)[0]]++
	}
	for s, n := range counts {
		if n > 350 {
			t.Errorf("shard %d owns %d/500 keys — ring badly skewed", s, n)
		}
	}
}

// TestShardMetricsAndSpans checks the comms accounting: scatters,
// gathers, byte counts, dot partials, and block placements all move,
// and the shard profile class serves the scatter/gather timeline.
func TestShardMetricsAndSpans(t *testing.T) {
	c := newShardPlane(t, 2, 2, nil)
	ctx := context.Background()
	if _, err := c.Solve(ctx, &engine.SolveRequest{Matrix: "poisson2d:8", Tol: 1e-10}); err != nil {
		t.Fatal(err)
	}
	snap := c.Metrics()
	if len(snap.Shards) != 2 {
		t.Fatalf("metrics has %d shard rows, want 2", len(snap.Shards))
	}
	var scatters, gathers, bytesOut, bytesIn, partials, blocks int64
	for _, row := range snap.Shards {
		scatters += row.Scatters
		gathers += row.Gathers
		bytesOut += row.BytesOut
		bytesIn += row.BytesIn
		partials += row.DotPartials
		blocks += row.Blocks
	}
	if scatters == 0 || gathers == 0 || bytesOut == 0 || bytesIn == 0 || partials == 0 {
		t.Errorf("comms accounting did not move: scatters=%d gathers=%d out=%d in=%d partials=%d",
			scatters, gathers, bytesOut, bytesIn, partials)
	}
	if scatters != gathers {
		t.Errorf("scatters=%d != gathers=%d on the healthy path", scatters, gathers)
	}
	if blocks == 0 {
		t.Error("no block placements recorded")
	}
	if snap.Uploads != 0 {
		t.Errorf("coordinator uploads = %d, want 0 (preset only)", snap.Uploads)
	}

	rep, err := c.ProfileReport("shard")
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("nil shard profile report")
	}
	if len(rep.Runs) != 1 {
		t.Fatalf("shard profile report has %d runs, want 1", len(rep.Runs))
	}
	if rr := rep.Runs[0]; rr.Spans == 0 || rr.Launches == 0 {
		t.Errorf("shard run report empty: %d spans, %d launches", rr.Spans, rr.Launches)
	}

	// Aggregated engine surfaces stay well-formed.
	if h := c.Health(); !h.OK || h.Pool != 2 {
		t.Errorf("health: ok=%v pool=%d, want ok with pool 2", h.OK, h.Pool)
	}
}
