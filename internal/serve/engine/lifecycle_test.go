package engine

// Unit tests for the lifecycle machinery that the end-to-end overload
// suite (httpapi) cannot reach deterministically: the breaker's close
// path and a worker that must survive hostile request fields.

import (
	"context"
	"testing"
	"time"
)

// TestOverloadBreakerCloses exercises the unit-level close path the
// always-fail end-to-end schedule cannot reach: a successful half-open
// probe closes the breaker.
func TestOverloadBreakerCloses(t *testing.T) {
	var transitions []breakerState
	b := newBreaker(2, 50*time.Millisecond, func(to breakerState) { transitions = append(transitions, to) })
	now := time.Now()

	if _, ok := b.allow(now); !ok {
		t.Fatal("fresh breaker refused")
	}
	b.onFailure(now)
	if _, ok := b.allow(now); !ok {
		t.Fatal("one failure below threshold tripped the breaker")
	}
	b.onSuccess() // success resets the streak
	b.onFailure(now)
	if _, ok := b.allow(now); !ok {
		t.Fatal("streak was not reset by success")
	}
	b.onFailure(now)
	b.onFailure(now)
	if wait, ok := b.allow(now); ok || wait <= 0 {
		t.Fatalf("threshold reached but breaker admitted (wait=%v ok=%v)", wait, ok)
	}
	// Cooldown elapsed: exactly one probe is admitted.
	later := now.Add(60 * time.Millisecond)
	if _, ok := b.allow(later); !ok {
		t.Fatal("post-cooldown probe refused")
	}
	if _, ok := b.allow(later); ok {
		t.Fatal("second concurrent probe admitted")
	}
	b.onSuccess()
	if b.snapshot() != breakerClosed {
		t.Fatalf("successful probe left breaker %v, want closed", b.snapshot())
	}
	if _, ok := b.allow(later); !ok {
		t.Fatal("closed breaker refused")
	}
	want := []breakerState{breakerOpen, breakerHalfOpen, breakerClosed}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions %v, want %v", transitions, want)
		}
	}
}

// queuedProbe is a job context that records the worker's queued count
// every time the worker consults it: when the batch is grouped, and at
// the cancellation checkpoints of the job's own group.
type queuedProbe struct {
	context.Context
	w    *worker
	seen *[]int64
}

func (p queuedProbe) Err() error {
	*p.seen = append(*p.seen, p.w.queued.Load())
	return nil
}

// TestOverloadQueuedCountsBatch drives collectBatch/serveBatch by hand
// over a pre-filled queue: a job stays in the count admission prices
// (estimateWait, Health) from submit until its group starts running —
// drained-but-unserved jobs included — and the count never goes
// negative.
func TestOverloadQueuedCountsBatch(t *testing.T) {
	e, err := New(Config{Pool: 1, MaxQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// A worker nobody runs: the test is its goroutine.
	w := newWorker(1, e)
	w.rt = e.newPoolRuntime()
	w.bindings = map[bindKey]*binding{}
	defer func() {
		w.dropAllBindings()
		w.rt.Shutdown()
	}()

	var seenA, seenB []int64
	newJob := func(matrix string, ctx context.Context) *job {
		d, err := e.store.Get(matrix)
		if err != nil {
			t.Fatal(err)
		}
		return &job{class: classSpMV, def: d, format: "csr", req: &SpMVRequest{Matrix: matrix}, ctx: ctx, done: make(chan struct{})}
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []*job{
		newJob("eye:8", queuedProbe{context.Background(), w, &seenA}),
		newJob("eye:16", queuedProbe{context.Background(), w, &seenB}),
		newJob("eye:16", context.Background()),
		newJob("eye:8", expired),
	}
	for i, j := range jobs {
		if r := w.submit(j); r != submitOK {
			t.Fatalf("submit %d = %v, want ok", i, r)
		}
	}
	if r := w.submit(newJob("eye:8", context.Background())); r != submitFull {
		t.Fatalf("submit into a full queue = %v, want full", r)
	}
	if got := w.queued.Load(); got != 4 {
		t.Fatalf("queued after 4 accepted + 1 refused submits = %d, want 4", got)
	}

	batch := w.collectBatch(<-w.jobs)
	if len(batch) != 4 {
		t.Fatalf("collectBatch drained %d jobs, want 4", len(batch))
	}
	if got := w.queued.Load(); got != 4 {
		t.Fatalf("queued with the whole batch drained but unserved = %d, want 4", got)
	}
	w.svcEWMA.Store(int64(time.Millisecond))
	if got := w.estimateWait(); got != 4*time.Millisecond {
		t.Fatalf("estimateWait = %v, want 4ms (the batch is still ahead of a new arrival)", got)
	}

	w.serveBatch(batch)
	for i, j := range jobs {
		select {
		case <-j.done:
		default:
			t.Fatalf("job %d not completed", i)
		}
	}
	if jobs[3].err == nil || jobs[0].err != nil || jobs[1].err != nil || jobs[2].err != nil {
		t.Fatalf("errors = %v %v %v %v, want only the expired job to fail", jobs[0].err, jobs[1].err, jobs[2].err, jobs[3].err)
	}
	if got := w.queued.Load(); got != 0 {
		t.Fatalf("queued after the batch = %d, want 0", got)
	}
	// Group A (eye:8) runs first: while it does, group B's two jobs are
	// still waiting and must still be priced.
	if len(seenA) < 2 || len(seenB) < 2 {
		t.Fatalf("probes consulted %d and %d times, want >= 2 each", len(seenA), len(seenB))
	}
	if first, last := seenA[0], seenA[len(seenA)-1]; first != 4 || last != 2 {
		t.Errorf("group A saw queued %v, want 4 at grouping and 2 while it ran", seenA)
	}
	if first, last := seenB[0], seenB[len(seenB)-1]; first != 4 || last != 0 {
		t.Errorf("group B saw queued %v, want 4 at grouping and 0 while it ran", seenB)
	}

	w.close()
	if r := w.submit(newJob("eye:8", context.Background())); r != submitClosed {
		t.Fatalf("submit to a closed worker = %v, want closed", r)
	}
	if got := w.queued.Load(); got != 0 {
		t.Fatalf("queued after a refused submit = %d, want 0", got)
	}
}

// TestSolveHugeRestartServed: restart is client input. GMRES sizes its
// basis by the steps it runs, not by restart, so an absurd restart is
// served like any other instead of panicking the worker and costing a
// runtime replacement.
func TestSolveHugeRestartServed(t *testing.T) {
	e, err := New(Config{Pool: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	resp, err := e.Solve(context.Background(), &SolveRequest{Matrix: "eye:8", Solver: "gmres", Restart: 1 << 62})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Converged {
		t.Errorf("gmres on eye:8 did not converge in %d iterations", resp.Iterations)
	}
	if n := e.Metrics().Pool.Replacements; n != 0 {
		t.Errorf("runtime replacements = %d, want 0", n)
	}
}
