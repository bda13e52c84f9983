package httpapi

// End-to-end suite for the HTTP transport over the single-process
// engine: every assertion about solver results, caching, batching, and
// fault recovery runs through the JSON surface exactly the way a
// client would see it. Engine-internal counters are read through the
// typed Metrics snapshot — the transport has no private view.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/legion"
	"repro/internal/machine"
	"repro/internal/serve/engine"
	"repro/internal/solvers"
)

// ---- helpers ----------------------------------------------------------

func newTestServer(t testing.TB, cfg engine.Config) (*engine.Engine, *httptest.Server) {
	t.Helper()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	ts := httptest.NewServer(Handler(e))
	t.Cleanup(func() {
		ts.Close()
		e.Close()
	})
	return e, ts
}

// postJSON posts body and decodes the reply into out (if non-nil),
// returning the HTTP status.
func postJSON(t testing.TB, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// directRuntime mirrors the engine pool's CPU configuration so direct
// solver calls are an apples-to-apples reference for served replies.
func directRuntime(procs int) *legion.Runtime {
	m := machine.New(machine.Config{Nodes: (procs + 1) / 2})
	rt := legion.NewRuntime(m, m.Select(machine.CPU, procs))
	rt.EnableCheckpointing(64)
	return rt
}

// directBind reproduces the engine's binding path: preset triples via
// the store's builder, then FromTriples plus format conversion.
func directBind(t testing.TB, rt *legion.Runtime, matrix, format string) core.SparseMatrix {
	t.Helper()
	d, err := engine.BuildPreset(matrix)
	if err != nil {
		t.Fatalf("BuildPreset(%s): %v", matrix, err)
	}
	mat, err := d.Bind(rt, format)
	if err != nil {
		t.Fatalf("bind(%s, %s): %v", matrix, format, err)
	}
	return mat
}

// directCG solves A x = 1 with CG exactly the way the engine does.
func directCG(t testing.TB, procs int, matrix string, maxIter int, tol float64) ([]float64, int, bool) {
	t.Helper()
	rt := directRuntime(procs)
	defer rt.Shutdown()
	a := directBind(t, rt, matrix, "csr")
	defer a.Destroy()
	rows, _ := a.Shape()
	rhs := cunumeric.Full(rt, rows, 1)
	defer rhs.Destroy()
	res := solvers.CG(a, rhs, maxIter, tol)
	if rt.Err() != nil {
		t.Fatalf("direct runtime error: %v", rt.Err())
	}
	x := res.X.ToSlice()
	res.X.Destroy()
	return x, res.Iterations, res.Converged
}

// directSpMV computes A @ x (x defaulting to ones) the way the engine does.
func directSpMV(t testing.TB, procs int, matrix, format string, xs []float64) []float64 {
	t.Helper()
	rt := directRuntime(procs)
	defer rt.Shutdown()
	a := directBind(t, rt, matrix, format)
	defer a.Destroy()
	rows, cols := a.Shape()
	var x *cunumeric.Array
	if xs != nil {
		x = cunumeric.FromSlice(rt, xs)
	} else {
		x = cunumeric.Full(rt, cols, 1)
	}
	defer x.Destroy()
	y := cunumeric.Zeros(rt, rows)
	defer y.Destroy()
	a.SpMVInto(y, x)
	rt.Fence()
	return y.ToSlice()
}

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

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// ---- correctness vs direct calls --------------------------------------

func TestSolveMatchesDirectCG(t *testing.T) {
	const procs = 4
	_, ts := newTestServer(t, engine.Config{Pool: 1, Procs: procs})

	var got engine.SolveResponse
	if code := postJSON(t, ts.URL+"/solve", engine.SolveRequest{Matrix: "poisson2d:16"}, &got); code != 200 {
		t.Fatalf("solve status %d", code)
	}
	want, iters, conv := directCG(t, procs, "poisson2d:16", 200, 1e-8)
	if !conv || !got.Converged {
		t.Fatalf("converged: direct=%v served=%v", conv, got.Converged)
	}
	if got.Iterations != iters {
		t.Fatalf("iterations: direct=%d served=%d", iters, got.Iterations)
	}
	if !bitsEqual(got.X, want) {
		t.Fatalf("served CG solution is not bit-identical to direct call (max |diff| %g)", maxAbsDiff(got.X, want))
	}

	// A second identical request must hit the binding cache and return
	// the exact same bits.
	var again engine.SolveResponse
	postJSON(t, ts.URL+"/solve", engine.SolveRequest{Matrix: "poisson2d:16"}, &again)
	if again.Cache != "hit" {
		t.Fatalf("second request cache = %q, want hit", again.Cache)
	}
	if !bitsEqual(again.X, want) {
		t.Fatal("warm-cache solve differs from cold solve")
	}
}

func TestSpMVMatchesDirectPerFormat(t *testing.T) {
	const procs = 4
	_, ts := newTestServer(t, engine.Config{Pool: 1, Procs: procs})

	// poisson2d:8 is 64x64 with even dimensions, so every format
	// (including BSR with block size 2) can bind it.
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i%7) - 3
	}
	for _, format := range []string{"csr", "dia", "bsr", "csc", "coo"} {
		var got engine.SpMVResponse
		req := engine.SpMVRequest{Matrix: "poisson2d:8", Format: format, X: xs}
		if code := postJSON(t, ts.URL+"/spmv", req, &got); code != 200 {
			t.Fatalf("[%s] spmv status %d", format, code)
		}
		want := directSpMV(t, procs, "poisson2d:8", format, xs)
		switch format {
		case "csr", "dia", "bsr":
			// Gather formats are deterministic: bit-identical.
			if !bitsEqual(got.Y, want) {
				t.Errorf("[%s] served SpMV not bit-identical to direct (max |diff| %g)", format, maxAbsDiff(got.Y, want))
			}
		default:
			// Scatter formats reduce with ReduceAdd; only roundoff-identical.
			if d := maxAbsDiff(got.Y, want); d > 1e-12 {
				t.Errorf("[%s] served SpMV differs from direct by %g", format, d)
			}
		}
	}
}

func TestEigenMatchesDirect(t *testing.T) {
	const procs = 4
	_, ts := newTestServer(t, engine.Config{Pool: 1, Procs: procs})

	var got engine.EigenResponse
	req := engine.EigenRequest{Matrix: "poisson2d:8", Iters: 30, Seed: 9}
	if code := postJSON(t, ts.URL+"/eigen", req, &got); code != 200 {
		t.Fatalf("eigen status %d", code)
	}

	rt := directRuntime(procs)
	defer rt.Shutdown()
	a := directBind(t, rt, "poisson2d:8", "csr")
	defer a.Destroy()
	lambda, vec := solvers.PowerIteration(a, 30, 9)
	want := vec.ToSlice()
	vec.Destroy()

	if math.Float64bits(got.Eigenvalue) != math.Float64bits(lambda) {
		t.Fatalf("eigenvalue: direct=%v served=%v", lambda, got.Eigenvalue)
	}
	if !bitsEqual(got.Vector, want) {
		t.Fatal("served eigenvector is not bit-identical to direct call")
	}
}

// ---- upload & invalidation --------------------------------------------

func TestUploadReuploadInvalidatesBindings(t *testing.T) {
	e, ts := newTestServer(t, engine.Config{Pool: 1, Procs: 4})

	diag := func(v float64) engine.UploadRequest {
		req := engine.UploadRequest{Name: "m", Rows: 8, Cols: 8}
		for i := int64(0); i < 8; i++ {
			req.Row = append(req.Row, i)
			req.Col = append(req.Col, i)
			req.Val = append(req.Val, v)
		}
		return req
	}

	if code := postJSON(t, ts.URL+"/matrix", diag(2), nil); code != 200 {
		t.Fatalf("upload status %d", code)
	}
	var first engine.SolveResponse
	postJSON(t, ts.URL+"/solve", engine.SolveRequest{Matrix: "m"}, &first)
	for i, x := range first.X {
		if x != 0.5 {
			t.Fatalf("x[%d] = %v solving diag(2) x = 1, want 0.5", i, x)
		}
	}

	// Re-upload under the same name with different contents: cached
	// bindings of the old fingerprint must be dropped and the next
	// solve must see the new matrix.
	if code := postJSON(t, ts.URL+"/matrix", diag(4), nil); code != 200 {
		t.Fatalf("re-upload status %d", code)
	}
	var second engine.SolveResponse
	postJSON(t, ts.URL+"/solve", engine.SolveRequest{Matrix: "m"}, &second)
	for i, x := range second.X {
		if x != 0.25 {
			t.Fatalf("x[%d] = %v solving diag(4) x = 1 after re-upload, want 0.25", i, x)
		}
	}
	if second.Cache != "miss" {
		t.Fatalf("solve after re-upload hit a stale binding (cache=%q)", second.Cache)
	}
	if n := e.Metrics().BindingCache.Invalidations; n < 1 {
		t.Fatalf("invalidations = %d after re-upload, want >= 1", n)
	}

	// The listing reflects the upload (satellite: GET /matrix).
	var listing []engine.MatrixInfo
	if code := getJSON(t, ts.URL+"/matrix", &listing); code != 200 {
		t.Fatalf("list status %d", code)
	}
	found := false
	for _, mi := range listing {
		if mi.Name == "m" && mi.NNZ == 8 {
			found = true
		}
	}
	if !found {
		t.Fatalf("uploaded matrix missing from listing: %+v", listing)
	}
}

// ---- concurrency, batching, faults ------------------------------------

func TestConcurrentMixedRequestsUnderFaults(t *testing.T) {
	const procs = 4
	_, ts := newTestServer(t, engine.Config{
		Pool:            2,
		Procs:           procs,
		Faults:          "rate:0.002:4",
		Seed:            11,
		CheckpointEvery: 16,
	})

	wantSolve, _, _ := directCG(t, procs, "poisson2d:12", 200, 1e-8)
	wantSpMV := directSpMV(t, procs, "banded:48", "csr", nil)
	wantEye := directSpMV(t, procs, "eye:32", "csr", nil)

	const n = 64
	errs := make([]error, n)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait() // all n requests in flight together
			switch i % 3 {
			case 0:
				var got engine.SolveResponse
				if code := postJSON(t, ts.URL+"/solve", engine.SolveRequest{Matrix: "poisson2d:12"}, &got); code != 200 {
					errs[i] = fmt.Errorf("solve status %d", code)
				} else if !bitsEqual(got.X, wantSolve) {
					errs[i] = fmt.Errorf("solve result not bit-identical to direct call")
				}
			case 1:
				var got engine.SpMVResponse
				if code := postJSON(t, ts.URL+"/spmv", engine.SpMVRequest{Matrix: "banded:48"}, &got); code != 200 {
					errs[i] = fmt.Errorf("spmv status %d", code)
				} else if !bitsEqual(got.Y, wantSpMV) {
					errs[i] = fmt.Errorf("spmv result not bit-identical to direct call")
				}
			default:
				var got engine.SpMVResponse
				if code := postJSON(t, ts.URL+"/spmv", engine.SpMVRequest{Matrix: "eye:32"}, &got); code != 200 {
					errs[i] = fmt.Errorf("eye spmv status %d", code)
				} else if !bitsEqual(got.Y, wantEye) {
					errs[i] = fmt.Errorf("eye spmv result not bit-identical to direct call")
				}
			}
		}(i)
	}
	start.Done()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchingCoalescesSameMatrixRequests pins the single worker in a
// head-of-line stall, queues 8 same-matrix SpMVs behind it, and checks
// that group commit serves the backlog as one epoch — no batch window
// involved.
func TestBatchingCoalescesSameMatrixRequests(t *testing.T) {
	e, ts := newTestServer(t, engine.Config{Pool: 1, Procs: 4, Faults: "stall@1:400ms", Seed: 1})

	want := directSpMV(t, 4, "poisson2d:8", "csr", nil)
	const n = 8
	got := make([]engine.SpMVResponse, 1+n)
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		if code := postJSON(t, ts.URL+"/spmv", engine.SpMVRequest{Matrix: "poisson2d:8"}, &got[i]); code != 200 {
			t.Errorf("spmv %d status %d", i, code)
		}
	}
	wg.Add(1)
	go post(0) // head-of-line: its first launch stalls 400ms
	waitFor(t, "the head-of-line batch to start", func() bool { return e.Metrics().Batching.Batches == 1 })
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go post(i)
	}
	waitFor(t, "the backlog to queue behind the stall", func() bool { return e.Health().Workers[0].Queued == n })
	wg.Wait()

	if got[0].Batched != 1 {
		t.Errorf("head-of-line request batched = %d, want 1 (an idle worker serves a batch of one)", got[0].Batched)
	}
	for i := range got {
		if !bitsEqual(got[i].Y, want) {
			t.Errorf("spmv %d differs from direct call", i)
		}
	}
	for i := 1; i <= n; i++ {
		if got[i].Batched < 2 {
			t.Errorf("backlogged spmv %d batched = %d, want >= 2", i, got[i].Batched)
		}
	}
	if mb := e.Metrics().Batching.MaxSize; mb < 2 {
		t.Fatalf("metrics max batch = %d, want >= 2", mb)
	}
}

// TestBoundedLoadRouting pins the routing rule on a pool of two: a
// request runs on its matrix's owner unless the owner is busy and the
// other worker is idle with a closed breaker, and a re-upload drops the
// old fingerprint's owner.
func TestBoundedLoadRouting(t *testing.T) {
	want, _, _ := directCG(t, 2, "poisson2d:8", 200, 1e-8)

	t.Run("busy owner spills to the idle worker", func(t *testing.T) {
		e, ts := newTestServer(t, engine.Config{Pool: 2, Procs: 2, Faults: "stall@1:300ms", Seed: 1})
		var got [2]engine.SolveResponse
		var wg sync.WaitGroup
		solve := func(i int) {
			defer wg.Done()
			if code := postJSON(t, ts.URL+"/solve", engine.SolveRequest{Matrix: "poisson2d:8"}, &got[i]); code != 200 {
				t.Errorf("solve %d status %d", i, code)
			}
		}
		wg.Add(1)
		go solve(0) // each point of the owner's first launch stalls 300ms
		waitFor(t, "the owner's batch to start", func() bool { return e.Metrics().Batching.Batches == 1 })
		wg.Add(1)
		go solve(1)
		wg.Wait()
		if got[0].Worker == got[1].Worker {
			t.Errorf("both solves ran on worker %d; the second must spill off the busy owner", got[0].Worker)
		}
		for i := range got {
			if !bitsEqual(got[i].X, want) {
				t.Errorf("solve %d (worker %d) differs from direct call", i, got[i].Worker)
			}
		}
		if s := e.Metrics().Pool.Spills; s != 1 {
			t.Errorf("spills = %d, want 1", s)
		}
	})

	t.Run("idle engine stays at the owner", func(t *testing.T) {
		e, ts := newTestServer(t, engine.Config{Pool: 2, Procs: 2})
		const n = 6
		owner := -1
		for i := 0; i < n; i++ {
			var got engine.SolveResponse
			if code := postJSON(t, ts.URL+"/solve", engine.SolveRequest{Matrix: "poisson2d:8"}, &got); code != 200 {
				t.Fatalf("solve %d status %d", i, code)
			}
			if owner < 0 {
				owner = got.Worker
			}
			if got.Worker != owner {
				t.Errorf("solve %d ran on worker %d, want the owner %d", i, got.Worker, owner)
			}
			if !bitsEqual(got.X, want) {
				t.Errorf("solve %d differs from direct call", i)
			}
		}
		if m := e.Metrics(); m.BindingCache.Misses != 1 || m.Pool.Spills != 0 {
			t.Errorf("after %d sequential solves: misses=%d spills=%d, want 1 and 0", n, m.BindingCache.Misses, m.Pool.Spills)
		}
	})

	// Every runtime's first launch stalls and its 40th fails. With
	// recovery off, a CG solve (past launch 40) degrades worker 0 and
	// trips its breaker; eye:8 SpMVs stay far below launch 40. A short
	// stall suffices: a request that misses it also lands on the owner.
	for _, tc := range []struct {
		state    string
		cooldown time.Duration
	}{{"open", time.Minute}, {"half-open", time.Millisecond}} {
		t.Run("no spill to a "+tc.state+" breaker", func(t *testing.T) {
			e, ts := newTestServer(t, engine.Config{
				Pool: 2, Procs: 2, Faults: "stall@1:100ms,point@40:0",
				CheckpointEvery: -1, BreakerThreshold: 1, BreakerCooldown: tc.cooldown,
			})
			if code := postJSON(t, ts.URL+"/solve", engine.SolveRequest{Matrix: "poisson2d:8"}, nil); code != http.StatusServiceUnavailable {
				t.Fatalf("degrading solve status %d, want 503", code)
			}
			if tc.state == "half-open" {
				// A probe whose deadline expires in the queue is admitted
				// but never runs, so the breaker stays half-open.
				probe := &engine.SpMVRequest{Matrix: "poisson2d:8", Meta: engine.RequestMeta{Deadline: time.Nanosecond}}
				waitFor(t, "the breaker to admit a probe", func() bool {
					_, err := e.SpMV(context.Background(), probe)
					var ee *engine.Error
					return errors.As(err, &ee) && ee.Code == engine.CodeDeadline
				})
			}
			if h := e.Health(); h.Workers[0].Breaker != tc.state || h.Workers[1].Breaker != "closed" {
				t.Fatalf("breakers = %q/%q, want %q/closed", h.Workers[0].Breaker, h.Workers[1].Breaker, tc.state)
			}

			wantY := directSpMV(t, 2, "eye:8", "csr", nil)
			batches := e.Metrics().Batching.Batches
			var got [2]engine.SpMVResponse
			var wg sync.WaitGroup
			spmv := func(i int) {
				defer wg.Done()
				if code := postJSON(t, ts.URL+"/spmv", engine.SpMVRequest{Matrix: "eye:8"}, &got[i]); code != 200 {
					t.Errorf("spmv %d status %d", i, code)
				}
			}
			wg.Add(1)
			go spmv(0) // worker 1 owns eye:8; its first launch stalls
			waitFor(t, "the owner's batch to start", func() bool { return e.Metrics().Batching.Batches == batches+1 })
			wg.Add(1)
			go spmv(1)
			wg.Wait()
			for i := range got {
				if got[i].Worker != 1 {
					t.Errorf("spmv %d ran on worker %d, want the owner 1 (worker 0's breaker is %s)", i, got[i].Worker, tc.state)
				}
				if !bitsEqual(got[i].Y, wantY) {
					t.Errorf("spmv %d differs from direct call", i)
				}
			}
			if s := e.Metrics().Pool.Spills; s != 0 {
				t.Errorf("spills = %d, want 0", s)
			}
		})
	}

	t.Run("re-upload forgets the old fingerprint", func(t *testing.T) {
		e, ts := newTestServer(t, engine.Config{Pool: 2, Procs: 2})
		upload := func(name string, v float64) {
			req := engine.UploadRequest{Name: name, Rows: 8, Cols: 8}
			for i := int64(0); i < 8; i++ {
				req.Row = append(req.Row, i)
				req.Col = append(req.Col, i)
				req.Val = append(req.Val, v)
			}
			if code := postJSON(t, ts.URL+"/matrix", req, nil); code != 200 {
				t.Fatalf("upload %s status %d", name, code)
			}
		}
		owners := func(want int, after string) {
			t.Helper()
			if got := e.Metrics().Pool.Owners; got != want {
				t.Errorf("owners = %d after %s, want %d", got, after, want)
			}
		}
		upload("m", 2)
		upload("twin", 2) // same contents, same fingerprint
		if code := postJSON(t, ts.URL+"/solve", engine.SolveRequest{Matrix: "m"}, nil); code != 200 {
			t.Fatalf("solve status %d", code)
		}
		owners(1, "the first solve")
		upload("m", 4)
		owners(1, "re-uploading m while twin still carries its old fingerprint")
		upload("twin", 3)
		owners(0, "re-uploading twin too")
		if code := postJSON(t, ts.URL+"/solve", engine.SolveRequest{Matrix: "m"}, nil); code != 200 {
			t.Fatalf("solve after re-upload status %d", code)
		}
		owners(1, "solving the new m")
	})
}

// TestIdleWorkerDoesNotWait: with an empty queue a request is served at
// once, as a batch of one. The minimum latency is asserted because it is
// robust under -race and CPU starvation; a fixed batch window puts a
// floor under every request.
func TestIdleWorkerDoesNotWait(t *testing.T) {
	e, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	defer e.Close()
	const n = 20
	fastest := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		resp, err := e.SpMV(context.Background(), &engine.SpMVRequest{Matrix: "eye:8"})
		if err != nil {
			t.Fatalf("spmv %d: %v", i, err)
		}
		if resp.Batched != 1 {
			t.Errorf("spmv %d batched = %d, want 1", i, resp.Batched)
		}
		fastest = min(fastest, time.Duration(resp.LatencyNS))
	}
	if fastest >= 2*time.Millisecond {
		t.Errorf("fastest of %d sequential requests took %v, want < 2ms: an idle worker must not wait", n, fastest)
	}
	if b := e.Metrics().Batching; b.Batches != n || b.Jobs != n {
		t.Errorf("batching = %d batches of %d jobs, want %d batches of 1", b.Batches, b.Jobs, n)
	}
}

func TestProcDeathReplacesPoolRuntime(t *testing.T) {
	const procs = 4
	// Processor 0 (the first selected CPU) dies at the first clock
	// boundary of every pool runtime; checkpoint recovery re-homes the
	// in-flight epoch, the worker answers, then swaps the runtime.
	e, ts := newTestServer(t, engine.Config{
		Pool:            1,
		Procs:           procs,
		Faults:          "proc@0:1ns",
		CheckpointEvery: 8,
	})

	want, _, _ := directCG(t, procs, "poisson2d:12", 200, 1e-8)
	for i := 0; i < 2; i++ {
		var got engine.SolveResponse
		if code := postJSON(t, ts.URL+"/solve", engine.SolveRequest{Matrix: "poisson2d:12"}, &got); code != 200 {
			t.Fatalf("solve %d status %d", i, code)
		}
		if !bitsEqual(got.X, want) {
			t.Fatalf("solve %d after processor death is not bit-identical to the healthy direct call", i)
		}
	}
	if n := e.Metrics().Pool.Replacements; n < 1 {
		t.Fatalf("pool replacements = %d after processor deaths, want >= 1", n)
	}
}

// ---- endpoints & validation -------------------------------------------

func TestMetricsAndProfileEndpoints(t *testing.T) {
	_, ts := newTestServer(t, engine.Config{Pool: 1, Procs: 4})

	postJSON(t, ts.URL+"/solve", engine.SolveRequest{Matrix: "poisson2d:8"}, nil)
	postJSON(t, ts.URL+"/solve", engine.SolveRequest{Matrix: "poisson2d:8"}, nil)
	postJSON(t, ts.URL+"/spmv", engine.SpMVRequest{Matrix: "poisson2d:8"}, nil)

	var m engine.MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if m.Requests["solve"].Count != 2 || m.Requests["spmv"].Count != 1 {
		t.Fatalf("request counts = %+v", m.Requests)
	}
	if m.BindingCache.Hits < 1 {
		t.Fatalf("binding cache hits = %d, want >= 1 (second solve reused the binding)", m.BindingCache.Hits)
	}
	if m.PartitionCache.PartHits == 0 && m.PartitionCache.AlignHits == 0 && m.PartitionCache.ImageHits == 0 {
		t.Fatal("partition cache shows no hits at all after repeated requests")
	}
	if m.PlanCache.Hits < 1 {
		t.Fatalf("plan cache hits = %d, want >= 1", m.PlanCache.Hits)
	}

	var report map[string]any
	if code := getJSON(t, ts.URL+"/profile?class=solve", &report); code != 200 {
		t.Fatalf("profile status %d", code)
	}
	if code := getJSON(t, ts.URL+"/profile?class=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("profile bogus class status %d, want 400", code)
	}
	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	// The autotuner and its endpoint are gone, not switched off.
	if code := getJSON(t, ts.URL+"/tune", nil); code != http.StatusNotFound {
		t.Fatalf("GET /tune status %d, want 404", code)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, engine.Config{Pool: 1, Procs: 4})

	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"unknown solver", "/solve", engine.SolveRequest{Matrix: "eye:8", Solver: "qr"}, 400},
		{"missing matrix", "/solve", engine.SolveRequest{}, 400},
		{"unknown preset", "/solve", engine.SolveRequest{Matrix: "hilbert:9"}, 404},
		{"bad format", "/spmv", engine.SpMVRequest{Matrix: "eye:8", Format: "ellpack"}, 400},
		{"bsr odd size", "/spmv", engine.SpMVRequest{Matrix: "poisson2d:5", Format: "bsr"}, 400},
		{"wrong x length", "/spmv", engine.SpMVRequest{Matrix: "eye:8", X: []float64{1, 2}}, 400},
		{"wrong b length", "/solve", engine.SolveRequest{Matrix: "eye:8", B: []float64{1}}, 400},
		{"upload length mismatch", "/matrix", engine.UploadRequest{Name: "u", Rows: 2, Cols: 2, Row: []int64{0}, Col: []int64{0, 1}, Val: []float64{1, 2}}, 400},
		{"upload out of bounds", "/matrix", engine.UploadRequest{Name: "u", Rows: 2, Cols: 2, Row: []int64{5}, Col: []int64{0}, Val: []float64{1}}, 400},
	}
	for _, tc := range cases {
		if code := postJSON(t, ts.URL+tc.path, tc.body, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}

	// Client errors must not have burned the pool: the runtime is
	// healthy and a well-formed request still succeeds.
	var ok engine.SolveResponse
	if code := postJSON(t, ts.URL+"/solve", engine.SolveRequest{Matrix: "eye:8"}, &ok); code != 200 {
		t.Fatalf("solve after bad requests: status %d", code)
	}
}

func TestGPUPoolSmoke(t *testing.T) {
	_, ts := newTestServer(t, engine.Config{Pool: 1, Procs: 4, Kind: "gpu"})
	var got engine.SolveResponse
	if code := postJSON(t, ts.URL+"/solve", engine.SolveRequest{Matrix: "poisson2d:8"}, &got); code != 200 {
		t.Fatalf("gpu solve status %d", code)
	}
	if !got.Converged {
		t.Fatal("gpu solve did not converge")
	}
}

// ---- benchmarks: the cache ablation -----------------------------------

// benchServe measures one /solve request per iteration against a shared
// server; cold flushes every cache between iterations.
func benchServe(b *testing.B, cold bool) {
	e, ts := newTestServer(b, engine.Config{Pool: 1, Procs: 4})
	req := engine.SolveRequest{Matrix: "poisson2d:48", MaxIter: 1, Tol: 1e-30}

	// Prime: materialize the preset and warm every cache once.
	if code := postJSON(b, ts.URL+"/solve", req, nil); code != 200 {
		b.Fatalf("prime status %d", code)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			b.StopTimer()
			e.FlushCaches()
			b.StartTimer()
		}
		if code := postJSON(b, ts.URL+"/solve", req, nil); code != 200 {
			b.Fatalf("status %d", code)
		}
	}
}

func BenchmarkServeColdCG(b *testing.B) { benchServe(b, true) }
func BenchmarkServeWarmCG(b *testing.B) { benchServe(b, false) }
