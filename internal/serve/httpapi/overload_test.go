package httpapi

// Deterministic overload-chaos suite for the request lifecycle:
// deadlines and cooperative cancellation, admission control (bounded
// queues, quotas, queue-wait pricing), the one-execution degraded
// answer, the per-worker circuit breaker, and graceful drain. The latency faults
// (internal/fault's slow/stall/lag schedules) never touch computed
// values, so the headline invariant is checkable exactly: every request
// the engine ADMITS and answers 200 returns bits identical to an
// unloaded run; everything else is an envelope with a stable code.
// Breaker unit tests live with the engine
// (engine/lifecycle_test.go); this file is the end-to-end view.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/serve/engine"
)

// postEnvelope posts body with extra headers and returns the status,
// the decoded success body (into out, when 200) or the error envelope,
// and the Retry-After header.
func postEnvelope(t testing.TB, url string, headers map[string]string, body, out any) (int, ErrorResponse, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var env ErrorResponse
	if resp.StatusCode == http.StatusOK {
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("decode %s: %v", url, err)
			}
		}
	} else {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("decode envelope (%d) %s: %v", resp.StatusCode, url, err)
		}
	}
	return resp.StatusCode, env, resp.Header.Get("Retry-After")
}

// TestOverloadErrorEnvelope pins the envelope contract: every non-2xx
// reply carries {error, code, retryable} with a stable code.
func TestOverloadErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, engine.Config{Pool: 1, Procs: 2})

	cases := []struct {
		name      string
		url       string
		headers   map[string]string
		body      any
		status    int
		code      string
		retryable bool
	}{
		{"unknown matrix", ts.URL + "/solve", nil,
			&engine.SolveRequest{Matrix: "nope"}, http.StatusNotFound, string(engine.CodeNotFound), false},
		{"unknown solver", ts.URL + "/solve", nil,
			&engine.SolveRequest{Matrix: "eye:8", Solver: "jacobi"}, http.StatusBadRequest, string(engine.CodeBadRequest), false},
		{"missing matrix", ts.URL + "/spmv", nil,
			&engine.SpMVRequest{}, http.StatusBadRequest, string(engine.CodeBadRequest), false},
		{"bad deadline header", ts.URL + "/spmv", map[string]string{"X-Deadline": "soon"},
			&engine.SpMVRequest{Matrix: "eye:8"}, http.StatusBadRequest, string(engine.CodeBadRequest), false},
		{"wrong-length rhs", ts.URL + "/solve", nil,
			&engine.SolveRequest{Matrix: "eye:8", B: []float64{1, 2, 3}}, http.StatusBadRequest, string(engine.CodeBadRequest), false},
		{"wrong-length x", ts.URL + "/spmv", nil,
			&engine.SpMVRequest{Matrix: "eye:8", X: []float64{1}}, http.StatusBadRequest, string(engine.CodeBadRequest), false},
	}
	for _, tc := range cases {
		status, env, _ := postEnvelope(t, tc.url, tc.headers, tc.body, nil)
		if status != tc.status || env.Code != tc.code || env.Retryable != tc.retryable {
			t.Errorf("%s: got status=%d code=%q retryable=%v, want %d %q %v",
				tc.name, status, env.Code, env.Retryable, tc.status, tc.code, tc.retryable)
		}
		if env.Error == "" {
			t.Errorf("%s: empty error message in envelope", tc.name)
		}
	}
}

// TestOverloadDeadlineCancelKeepsWorker is the cancellation composition
// test: under a lag schedule (every point 1ms slower) plus a low-rate
// fault schedule (checkpoint replay in play), a request with a short
// X-Deadline is cancelled at a cooperative checkpoint mid-solve and
// answered 504 — and the SAME warm runtime then serves the follow-up
// request bit-identically to an unloaded reference run. The worker is
// reused, not replaced: cancellation is not degradation.
func TestOverloadDeadlineCancelKeepsWorker(t *testing.T) {
	e, ts := newTestServer(t, engine.Config{
		Pool: 1, Procs: 4, Seed: 7,
		Faults:          "rate:0.02:2,lag:1:1ms",
		CheckpointEvery: 16,
	})

	solve := &engine.SolveRequest{Matrix: "poisson2d:8", Solver: "cg", MaxIter: 200, Tol: 1e-6}
	status, env, _ := postEnvelope(t, ts.URL+"/solve", map[string]string{"X-Deadline": "15ms"}, solve, nil)
	if status != http.StatusGatewayTimeout || env.Code != string(engine.CodeDeadline) || !env.Retryable {
		t.Fatalf("deadline request: got status=%d code=%q retryable=%v, want 504 %q true",
			status, env.Code, env.Retryable, engine.CodeDeadline)
	}

	// The follow-up (no deadline) reuses the same worker and must match
	// the unloaded direct run exactly: latency schedules and the
	// interrupted predecessor change when things run, never what they
	// compute.
	var got engine.SolveResponse
	if st := postJSON(t, ts.URL+"/solve", solve, &got); st != http.StatusOK {
		t.Fatalf("follow-up solve: status %d", st)
	}
	wantX, wantIt, wantConv := directCG(t, 4, "poisson2d:8", 200, 1e-6)
	if !wantConv || !got.Converged {
		t.Fatalf("convergence: direct=%v served=%v", wantConv, got.Converged)
	}
	if got.Iterations != wantIt {
		t.Errorf("iterations: served %d, direct %d", got.Iterations, wantIt)
	}
	if !bitsEqual(got.X, wantX) {
		t.Errorf("follow-up solve not bit-identical to unloaded run (max |diff| %g)", maxAbsDiff(got.X, wantX))
	}

	snap := e.Metrics()
	if n := snap.Lifecycle.Cancellations + snap.Lifecycle.QueueExpired; n == 0 {
		t.Error("no cancellation was recorded for the deadline request")
	}
	if n := snap.Pool.Replacements; n != 0 {
		t.Errorf("cancellation replaced %d runtimes; it must keep the worker", n)
	}

	var health engine.HealthSnapshot
	if st := getJSON(t, ts.URL+"/healthz", &health); st != http.StatusOK {
		t.Fatalf("/healthz status %d", st)
	}
	if !health.OK || health.Healthy != 1 {
		t.Errorf("post-cancellation health: ok=%v healthy=%d, want ok with 1 healthy worker", health.OK, health.Healthy)
	}
}

// TestOverloadQueueFullShed fills the bounded per-worker queue while a
// head-of-line stall pins the worker and checks the overflow request is
// shed with a queue_full envelope and a Retry-After.
func TestOverloadQueueFullShed(t *testing.T) {
	e, ts := newTestServer(t, engine.Config{
		Pool: 1, Procs: 2, MaxQueue: 1,
		Faults: "stall@1:400ms", Seed: 1,
	})

	spmv := &engine.SpMVRequest{Matrix: "eye:16"}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // head-of-line: the first launch stalls 400ms
		defer wg.Done()
		postJSON(t, ts.URL+"/spmv", spmv, nil)
	}()
	time.Sleep(100 * time.Millisecond)

	// Worker busy in the stall; this one occupies the 1-deep queue.
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts.URL+"/spmv", spmv, nil)
	}()
	time.Sleep(50 * time.Millisecond)

	status, env, retryAfter := postEnvelope(t, ts.URL+"/spmv", nil, spmv, nil)
	if status != http.StatusServiceUnavailable || env.Code != string(engine.CodeQueueFull) || !env.Retryable {
		t.Fatalf("overflow request: got status=%d code=%q retryable=%v, want 503 %q true",
			status, env.Code, env.Retryable, engine.CodeQueueFull)
	}
	if retryAfter == "" {
		t.Error("queue_full shed has no Retry-After header")
	}
	wg.Wait()

	if got := e.Metrics().Lifecycle.ShedByReason[string(engine.CodeQueueFull)]; got < 1 {
		t.Errorf("shed_by_reason[%s] = %d, want >= 1", engine.CodeQueueFull, got)
	}
}

// TestOverloadQuotaShed checks the per-tenant token buckets: a tenant
// that burns its burst is shed 429 with a Retry-After, while another
// tenant's bucket is untouched.
func TestOverloadQuotaShed(t *testing.T) {
	_, ts := newTestServer(t, engine.Config{
		Pool: 1, Procs: 2, QuotaRate: 0.5, QuotaBurst: 2,
	})
	spmv := &engine.SpMVRequest{Matrix: "eye:8"}
	for i := 0; i < 2; i++ {
		if st, env, _ := postEnvelope(t, ts.URL+"/spmv", nil, spmv, nil); st != http.StatusOK {
			t.Fatalf("burst request %d: status %d (%s)", i, st, env.Code)
		}
	}
	status, env, retryAfter := postEnvelope(t, ts.URL+"/spmv", nil, spmv, nil)
	if status != http.StatusTooManyRequests || env.Code != string(engine.CodeOverQuota) || !env.Retryable {
		t.Fatalf("over-quota request: got status=%d code=%q retryable=%v, want 429 %q true",
			status, env.Code, env.Retryable, engine.CodeOverQuota)
	}
	if retryAfter == "" {
		t.Error("over_quota shed has no Retry-After header")
	}
	// An independent tenant still has its full burst.
	if st, env, _ := postEnvelope(t, ts.URL+"/spmv", map[string]string{"X-Tenant": "other"}, spmv, nil); st != http.StatusOK {
		t.Fatalf("other tenant: status %d (%s), want 200", st, env.Code)
	}
}

// TestOverloadBreakerLifecycle drives a worker's circuit breaker
// end-to-end with a deterministic always-fail schedule (recovery
// disabled, so every epoch ends with a sticky error): consecutive
// degradations trip it open, admissions shed breaker_open while open,
// the post-cooldown half-open probe is admitted, and its failure
// re-opens the breaker.
func TestOverloadBreakerLifecycle(t *testing.T) {
	e, ts := newTestServer(t, engine.Config{
		Pool: 1, Procs: 2,
		Faults: "rate:1", Seed: 3,
		CheckpointEvery:  -1, // recovery off: every fault is sticky
		BreakerThreshold: 2,
		BreakerCooldown:  300 * time.Millisecond,
	})
	spmv := &engine.SpMVRequest{Matrix: "eye:8"}

	// Two consecutive degradations trip the breaker.
	for i := 0; i < 2; i++ {
		status, env, _ := postEnvelope(t, ts.URL+"/spmv", nil, spmv, nil)
		if status != http.StatusServiceUnavailable || env.Code != string(engine.CodeDegraded) || !env.Retryable {
			t.Fatalf("degrading request %d: got status=%d code=%q retryable=%v, want 503 %q true",
				i, status, env.Code, env.Retryable, engine.CodeDegraded)
		}
	}
	// One degraded request is one execution and one replacement.
	if pool := e.Metrics().Pool; pool.Replacements != 2 || pool.Retries != 0 {
		t.Fatalf("after two degraded requests: replacements=%d retries=%d, want 2 and 0",
			pool.Replacements, pool.Retries)
	}

	status, env, retryAfter := postEnvelope(t, ts.URL+"/spmv", nil, spmv, nil)
	if status != http.StatusServiceUnavailable || env.Code != string(engine.CodeBreakerOpen) {
		t.Fatalf("open-breaker request: got status=%d code=%q, want 503 %q", status, env.Code, engine.CodeBreakerOpen)
	}
	if retryAfter == "" {
		t.Error("breaker_open shed has no Retry-After header")
	}

	// With the pool's only breaker open, /healthz reports the instance
	// out of rotation.
	var health engine.HealthSnapshot
	if st := getJSON(t, ts.URL+"/healthz", &health); st != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with all breakers open: status %d, want 503", st)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.OK || len(health.Workers) != 1 || health.Workers[0].Breaker != "open" {
		t.Errorf("health snapshot: ok=%v workers=%+v, want breaker open", health.OK, health.Workers)
	}
	if health.BreakerTrips < 1 {
		t.Errorf("breaker_trips = %d, want >= 1", health.BreakerTrips)
	}

	// After the cooldown the half-open probe is admitted — and fails
	// (the schedule is rate:1 on every replacement runtime too), so the
	// breaker re-opens and the next admission sheds again.
	time.Sleep(350 * time.Millisecond)
	status, env, _ = postEnvelope(t, ts.URL+"/spmv", nil, spmv, nil)
	if status != http.StatusServiceUnavailable || env.Code != string(engine.CodeDegraded) {
		t.Fatalf("half-open probe: got status=%d code=%q, want 503 %q (admitted, then degraded)", status, env.Code, engine.CodeDegraded)
	}
	status, env, _ = postEnvelope(t, ts.URL+"/spmv", nil, spmv, nil)
	if status != http.StatusServiceUnavailable || env.Code != string(engine.CodeBreakerOpen) {
		t.Fatalf("post-probe request: got status=%d code=%q, want 503 %q (re-opened)", status, env.Code, engine.CodeBreakerOpen)
	}
	if trips := e.Metrics().Lifecycle.BreakerTrips; trips != 2 {
		t.Errorf("breaker trips = %d, want 2 (initial + probe failure)", trips)
	}
}

// TestOverloadDrain checks graceful shutdown: draining sheds new work
// with a draining envelope, in-flight work completes, and Drain reports
// whether the drain beat its timeout.
func TestOverloadDrain(t *testing.T) {
	e, ts := newTestServer(t, engine.Config{
		Pool: 1, Procs: 2,
		Faults: "stall@1:300ms", Seed: 2,
	})
	spmv := &engine.SpMVRequest{Matrix: "eye:16"}

	inflight := make(chan int, 1)
	go func() {
		var out engine.SpMVResponse
		inflight <- postJSON(t, ts.URL+"/spmv", spmv, &out)
	}()
	time.Sleep(100 * time.Millisecond)

	if e.Drain(10 * time.Millisecond) {
		t.Error("Drain(10ms) reported clean with a 300ms stall in flight")
	}
	status, env, _ := postEnvelope(t, ts.URL+"/spmv", nil, spmv, nil)
	if status != http.StatusServiceUnavailable || env.Code != string(engine.CodeDraining) || !env.Retryable {
		t.Fatalf("request during drain: got status=%d code=%q retryable=%v, want 503 %q true",
			status, env.Code, env.Retryable, engine.CodeDraining)
	}
	var health engine.HealthSnapshot
	if st := getJSON(t, ts.URL+"/healthz", &health); st != http.StatusServiceUnavailable {
		t.Errorf("/healthz while draining: status %d, want 503", st)
	}

	// The stalled request was admitted before the drain began: it must
	// complete, and then the drain is clean.
	if st := <-inflight; st != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200", st)
	}
	if !e.Drain(2 * time.Second) {
		t.Error("Drain did not complete after the in-flight request finished")
	}
}

// TestOverloadChaosBitIdentical is the headline chaos run: two bursts
// of mixed solve/SpMV traffic against a small pool with a probabilistic
// lag schedule, per-request deadlines, and a shallow queue. Every reply
// must be either a 200 whose payload is bit-identical to the unloaded
// reference, or a shed/timeout envelope from the known set. Latency
// faults never touch values, so admitted work is exact even when its
// neighbors are cancelled mid-batch around it.
func TestOverloadChaosBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, engine.Config{
		Pool: 2, Procs: 4, Seed: 11,
		Faults:   "lag:0.15:1ms:400",
		Deadline: 500 * time.Millisecond,
		MaxQueue: 3,
	})

	matrices := []string{"poisson2d:8", "poisson2d:12"}
	type ref struct {
		x    []float64
		iter int
		y    []float64
	}
	refs := map[string]ref{}
	for _, m := range matrices {
		x, iter, conv := directCG(t, 4, m, 60, 1e-6)
		if !conv {
			t.Fatalf("reference CG on %s did not converge", m)
		}
		refs[m] = ref{x: x, iter: iter, y: directSpMV(t, 4, m, "csr", nil)}
	}

	allowedShed := map[string]bool{
		string(engine.CodeQueueFull): true, string(engine.CodeQueueWait): true,
		string(engine.CodeDeadline): true, string(engine.CodeCancelled): true,
	}
	var mu sync.Mutex
	outcomes := map[string]int{}
	var wg sync.WaitGroup
	fire := func(n int) {
		for i := 0; i < n; i++ {
			m := matrices[i%len(matrices)]
			wg.Add(2)
			go func(m string) {
				defer wg.Done()
				var out engine.SolveResponse
				status, env, _ := postEnvelope(t, ts.URL+"/solve",
					nil, &engine.SolveRequest{Matrix: m, Solver: "cg", MaxIter: 60, Tol: 1e-6}, &out)
				mu.Lock()
				defer mu.Unlock()
				switch status {
				case http.StatusOK:
					outcomes["ok"]++
					r := refs[m]
					if !bitsEqual(out.X, r.x) || out.Iterations != r.iter {
						t.Errorf("admitted solve on %s not bit-identical (iter %d vs %d, max |diff| %g)",
							m, out.Iterations, r.iter, maxAbsDiff(out.X, r.x))
					}
				default:
					outcomes[env.Code]++
					if !allowedShed[env.Code] {
						t.Errorf("solve on %s: unexpected status=%d code=%q (%s)", m, status, env.Code, env.Error)
					}
				}
			}(m)
			go func(m string) {
				defer wg.Done()
				var out engine.SpMVResponse
				status, env, _ := postEnvelope(t, ts.URL+"/spmv", nil, &engine.SpMVRequest{Matrix: m}, &out)
				mu.Lock()
				defer mu.Unlock()
				switch status {
				case http.StatusOK:
					outcomes["ok"]++
					if !bitsEqual(out.Y, refs[m].y) {
						t.Errorf("admitted SpMV on %s not bit-identical (max |diff| %g)", m, maxAbsDiff(out.Y, refs[m].y))
					}
				default:
					outcomes[env.Code]++
					if !allowedShed[env.Code] {
						t.Errorf("spmv on %s: unexpected status=%d code=%q (%s)", m, status, env.Code, env.Error)
					}
				}
			}(m)
		}
	}
	fire(6)
	time.Sleep(30 * time.Millisecond)
	fire(6)
	wg.Wait()

	t.Logf("chaos outcomes: %v", outcomes)
	if outcomes["ok"] == 0 {
		t.Error("chaos run admitted nothing — overload control is shedding everything")
	}

	// Metrics coherence: the shed total equals the per-reason sum.
	var snap engine.MetricsSnapshot
	if st := getJSON(t, ts.URL+"/metrics", &snap); st != http.StatusOK {
		t.Fatalf("/metrics status %d", st)
	}
	var sum int64
	for _, v := range snap.Lifecycle.ShedByReason {
		sum += v
	}
	if snap.Lifecycle.Sheds != sum {
		t.Errorf("lifecycle.sheds = %d but per-reason sum = %d", snap.Lifecycle.Sheds, sum)
	}
}

// TestOverloadGoroutineLeak runs a compact lifecycle workload —
// admissions, cancellations, sheds, drain, close — and checks the
// process goroutine count settles back to its baseline.
func TestOverloadGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()

	func() {
		e, err := engine.New(engine.Config{
			Pool: 2, Procs: 2, Seed: 5,
			Faults:   "lag:0.3:1ms:100",
			Deadline: 50 * time.Millisecond,
			MaxQueue: 2,
		})
		if err != nil {
			t.Fatalf("engine.New: %v", err)
		}
		ts := httptest.NewServer(Handler(e))
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				postEnvelope(t, ts.URL+"/solve", nil,
					&engine.SolveRequest{Matrix: "poisson2d:8", MaxIter: 60, Tol: 1e-6}, nil)
			}()
		}
		wg.Wait()
		e.Drain(time.Second)
		ts.Close()
		e.Close()
	}()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d at baseline", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
