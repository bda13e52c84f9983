package shard

// The shard chaos/acceptance suite (run by `make shard`): a 2-shard
// in-process deployment must return BIT-IDENTICAL results to a
// single-process engine for every preset — CG solve, power iteration,
// and SpMV — including under seeded fault injection with requests
// failing over from a degraded shard. Plus deterministic unit coverage
// for name placement, re-upload routing and the matrix listing.

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/prof"
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
func newShardPlane(t *testing.T, shards int, shardFaults []string) *Coordinator {
	t.Helper()
	c, err := New(Config{
		Shards:      shards,
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

// diagonal is an n=12 diagonal upload whose contents depend on scale.
func diagonal(name string, scale float64) *engine.UploadRequest {
	n := int64(12)
	req := &engine.UploadRequest{Name: name, Rows: n, Cols: n}
	for i := int64(0); i < n; i++ {
		req.Row = append(req.Row, i)
		req.Col = append(req.Col, i)
		req.Val = append(req.Val, scale+float64(i))
	}
	return req
}

// uploadBoth sends the same upload to both backends.
func uploadBoth(t *testing.T, sharded, single engine.Backend, req *engine.UploadRequest) {
	t.Helper()
	for _, b := range []engine.Backend{sharded, single} {
		if _, err := b.Upload(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
}

// lookup returns name's row in a listing.
func lookup(list []engine.MatrixInfo, name string) (engine.MatrixInfo, bool) {
	for _, mi := range list {
		if mi.Name == name {
			return mi, true
		}
	}
	return engine.MatrixInfo{}, false
}

// totals sums the coordinator's per-shard routing counters.
func totals(c *Coordinator) (failovers, passthrough int64) {
	for _, row := range c.Metrics().Shards {
		failovers += row.Failovers
		passthrough += row.Passthrough
	}
	return failovers, passthrough
}

// sameListing compares two matrix listings on everything but the
// revision, which counts store writes and differs by deployment.
func sameListing(t *testing.T, got, want []engine.MatrixInfo) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("listing has %d rows, want %d: %+v vs %+v", len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		g.Revision, w.Revision = 0, 0
		if g != w {
			t.Errorf("listing row %d = %+v, want %+v", i, g, w)
		}
	}
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
	c := newShardPlane(t, 2, nil)
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
		c := newShardPlane(t, shards, nil)
		solveBoth(t, c, single, &engine.SolveRequest{Matrix: "poisson2d:10", Tol: 1e-10})
	}
}

// TestShardFailoverBitIdentity degrades shard 0 with a seeded
// always-fault schedule (recovery off, one execution per epoch): every
// request owned by it fails over to shard 1, and the results stay
// bit-identical to a healthy single-process engine.
func TestShardFailoverBitIdentity(t *testing.T) {
	// Recovery off and one execution per epoch, so shard 0's rate:1
	// schedule degrades every request deterministically instead of
	// healing mid-test. Numerical parameters (Procs) match the healthy
	// baseline — that is all bit-identity depends on.
	ecfg := testEngineConfig()
	ecfg.CheckpointEvery = -1
	ecfg.RetryBudget = 1
	c, err := New(Config{
		Shards:      2,
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

	// An upload owned by the degraded shard is pushed to shard 1 only
	// when its request fails over there.
	if placement("m", 2)[0] != 0 {
		t.Fatal("m must be owned by the degraded shard 0")
	}
	uploadBoth(t, c, single, diagonal("m", 3))
	if _, ok := lookup(c.engines[1].Matrices(), "m"); ok {
		t.Error("m reached shard 1 before any request failed over")
	}
	solveBoth(t, c, single, &engine.SolveRequest{Matrix: "m", Tol: 1e-12})
	if _, ok := lookup(c.engines[1].Matrices(), "m"); !ok {
		t.Error("failover did not push m to shard 1")
	}

	// An unknown name is the client's error: not_found, no failover.
	if placement("nope", 2)[0] != 0 {
		t.Fatal("nope must be owned by the degraded shard 0")
	}
	before, _ := totals(c)
	_, err = c.Solve(ctx, &engine.SolveRequest{Matrix: "nope"})
	if code := engine.AsError(err).Code; code != engine.CodeNotFound {
		t.Errorf("unknown matrix: code %q, want %q", code, engine.CodeNotFound)
	}
	after, _ := totals(c)
	if after != before {
		t.Errorf("unknown matrix failed over %d times, want 0", after-before)
	}

	// Every failover left a mark, and presets materialized on both
	// shards are listed once.
	marks := 0
	for _, m := range c.sink.Snapshot().Marks {
		if m.Kind == prof.MarkFailover {
			marks++
		}
	}
	if int64(marks) != after {
		t.Errorf("%d failover marks for %d failovers", marks, after)
	}
	sameListing(t, c.Matrices(), single.Matrices())
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
	c := newShardPlane(t, 2, nil)
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

// TestShardPassthroughNonCG routes non-CG solvers and non-CSR formats
// whole to one engine like every other request, still bit-identical to
// the single-process baseline.
func TestShardPassthroughNonCG(t *testing.T) {
	c := newShardPlane(t, 2, nil)
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
// name keeps its owner, whose engine replaces the old copy, so sharded
// results track the new matrix — and still match a single-process
// engine fed the same sequence — and no other shard holds a copy.
func TestShardUploadInvalidation(t *testing.T) {
	c := newShardPlane(t, 2, nil)
	single := newSingleEngine(t)
	ctx := context.Background()

	var latest string
	for _, scale := range []float64{2, 5} {
		ur := diagonal("m", scale)
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
		latest = cu.Fingerprint
		solveBoth(t, c, single, &engine.SolveRequest{Matrix: "m", Tol: 1e-12})
	}

	owner := placement("m", 2)[0]
	for s, e := range c.engines {
		mi, ok := lookup(e.Matrices(), "m")
		switch {
		case s == owner && (!ok || mi.Fingerprint != latest):
			t.Errorf("owner shard %d lists m as %+v (present %v), want fingerprint %s", s, mi, ok, latest)
		case s != owner && ok:
			t.Errorf("shard %d holds a copy of m; only its owner %d should", s, owner)
		}
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

// TestShardRingDeterministicPlacement checks that placement is a pure
// function of (name, shard count), that it orders every shard exactly
// once, and that owners spread evenly over the shards.
func TestShardRingDeterministicPlacement(t *testing.T) {
	const shards, names = 5, 500
	owned := make([]int, shards)
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("matrix-%d", i)
		pa, pb := placement(name, shards), placement(name, shards)
		if len(pa) != shards {
			t.Fatalf("%s: %d shards in the order, want %d", name, len(pa), shards)
		}
		seen := make([]bool, shards)
		for j, s := range pa {
			if s != pb[j] {
				t.Fatalf("%s: placement not deterministic: %v vs %v", name, pa, pb)
			}
			if s < 0 || s >= shards || seen[s] {
				t.Fatalf("%s: order %v does not visit every shard once", name, pa)
			}
			seen[s] = true
		}
		owned[pa[0]]++
	}
	for s, n := range owned {
		if n < names/shards/2 || n > 2*names/shards {
			t.Errorf("shard %d owns %d/%d names — placement badly skewed", s, n, names)
		}
	}
	if got := placement("x", 1); len(got) != 1 || got[0] != 0 {
		t.Errorf("one shard: order %v, want [0]", got)
	}
}

// TestShardMetricsAndSpans checks the routing accounting on a healthy
// plane: each request is one passthrough on its owner and one
// shard.forward span, nothing fails over, the split-era counters stay
// 0, and the shard profile class serves the forwarding timeline.
func TestShardMetricsAndSpans(t *testing.T) {
	c := newShardPlane(t, 2, nil)
	ctx := context.Background()
	names := []string{"poisson2d:8", "poisson2d:10"}
	for _, m := range names {
		if _, err := c.Solve(ctx, &engine.SolveRequest{Matrix: m, Tol: 1e-10}); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Metrics()
	if len(snap.Shards) != 2 {
		t.Fatalf("metrics has %d shard rows, want 2", len(snap.Shards))
	}
	for s, row := range snap.Shards {
		var want int64
		for _, m := range names {
			if placement(m, 2)[0] == s {
				want++
			}
		}
		if row.Passthrough != want {
			t.Errorf("shard %d: %d passthroughs, want %d", s, row.Passthrough, want)
		}
		if row.Failovers != 0 || row.Scatters != 0 || row.BytesOut != 0 || row.BytesIn != 0 || row.DotPartials != 0 {
			t.Errorf("shard %d: healthy routing row %+v, want only passthroughs", s, row)
		}
	}
	if snap.Uploads != 0 {
		t.Errorf("coordinator uploads = %d, want 0 (preset only)", snap.Uploads)
	}

	forwards := 0
	trace := c.sink.Snapshot()
	for _, sp := range trace.Spans {
		if sp.Task == "shard.forward" {
			forwards++
		}
	}
	if forwards != len(names) || len(trace.Marks) != 0 {
		t.Errorf("%d shard.forward spans and %d marks, want %d and 0", forwards, len(trace.Marks), len(names))
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
	if rr := rep.Runs[0]; rr.Spans != len(names) || rr.Launches != len(names) {
		t.Errorf("shard run report: %d spans, %d launches, want %d each", rr.Spans, rr.Launches, len(names))
	}

	// Aggregated engine surfaces stay well-formed.
	if h := c.Health(); !h.OK || h.Pool != 2 {
		t.Errorf("health: ok=%v pool=%d, want ok with pool 2", h.OK, h.Pool)
	}
}

// TestShardMatricesMatchSingle: after the same uploads and preset
// requests, the coordinator lists what a single engine lists — each
// preset, although only the shard that served it materialized it, and
// each upload at its latest contents.
func TestShardMatricesMatchSingle(t *testing.T) {
	c := newShardPlane(t, 2, nil)
	single := newSingleEngine(t)
	ctx := context.Background()
	for _, ur := range []*engine.UploadRequest{diagonal("m", 2), diagonal("tri", 1), diagonal("m", 5)} {
		uploadBoth(t, c, single, ur)
	}
	for _, m := range append([]string{"m"}, testPresets...) {
		for _, b := range []engine.Backend{c, single} {
			if _, err := b.SpMV(ctx, &engine.SpMVRequest{Matrix: m}); err != nil {
				t.Fatal(err)
			}
		}
	}
	sameListing(t, c.Matrices(), single.Matrices())
}
