package legion

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
)

// incLaunch issues one "inc" launch over r that adds 1 to every element.
func incLaunch(rt *Runtime, r *Region, parts int) {
	part := rt.BlockPartition(r, parts)
	l := rt.NewLaunch("inc", parts, func(tc *TaskContext) {
		d := tc.Float64(0)
		tc.Subspace(0).Each(func(j int64) { d[j]++ })
	})
	l.Add(r, part, ReadWrite)
	l.Execute()
}

// TestCancelSkipsKernelsAndKeepsRuntimeReusable: once the cancel check
// fires, later launches must not run their kernels (the stream drains
// without work), the sticky Err stays nil, and after ClearCancel the
// runtime computes fresh results exactly like an untouched one.
func TestCancelSkipsKernelsAndKeepsRuntimeReusable(t *testing.T) {
	rt := newTestRuntime(t, 4)
	r := rt.CreateRegion("v", 64, Float64)

	cancelled := false
	cause := errors.New("deadline exceeded")
	rt.SetCancelCheck(func() error {
		if cancelled {
			return cause
		}
		return nil
	})

	incLaunch(rt, r, 4)
	rt.Fence()
	cancelled = true
	for i := 0; i < 5; i++ {
		incLaunch(rt, r, 4) // kernels must be skipped from here on
	}
	rt.Fence()

	var ce *CancelledError
	if err := rt.Cancelled(); !errors.As(err, &ce) || !errors.Is(err, cause) {
		t.Fatalf("Cancelled = %v, want CancelledError wrapping the check's cause", err)
	}
	if rt.Err() != nil {
		t.Fatalf("cancellation must not set the sticky Err, got %v", rt.Err())
	}
	for _, v := range r.Float64s() {
		if v != 1 {
			t.Fatalf("kernel ran after cancellation: element = %v, want 1", v)
		}
	}

	rt.ClearCancel()
	if rt.Cancelled() != nil {
		t.Fatal("ClearCancel did not clear the cancellation")
	}
	// The worker is reusable: a fresh region computed after the clear is
	// bit-identical to what a fresh runtime produces (3 increments = 3).
	r2 := rt.CreateRegion("v2", 64, Float64)
	for i := 0; i < 3; i++ {
		incLaunch(rt, r2, 4)
	}
	rt.Fence()
	for _, v := range r2.Float64s() {
		if v != 3 {
			t.Fatalf("post-clear result = %v, want 3", v)
		}
	}
}

// TestCancelMidReplayLeavesRuntimeReusable: the cancel check fires
// between entries of a recovery replay (triggered by an injected fault
// under checkpointing). The replay must be abandoned without a sticky
// error, and after ClearCancel — which discards the interrupted epoch —
// the runtime must recover a *new* fault bit-identically to a fresh run.
func TestCancelMidReplayLeavesRuntimeReusable(t *testing.T) {
	rt := newTestRuntime(t, 4)
	rt.EnableCheckpointing(32)
	inj := fault.New(7).KillPoint(6, 1).KillPoint(14, 2)
	rt.SetFaultInjector(inj)

	// Fire cancellation only once a restore has begun: the first poll
	// the check rejects is, by construction, between replay entries.
	cause := errors.New("deadline expired mid-replay")
	rt.SetCancelCheck(func() error {
		if rt.Stats().Restores.Load() > 0 {
			return cause
		}
		return nil
	})

	r := rt.CreateRegion("v", 64, Float64)
	for i := 0; i < 8; i++ {
		incLaunch(rt, r, 4) // stream 6 faults mid-sequence
	}
	rt.Fence()

	if err := rt.Cancelled(); err == nil || !errors.Is(err, cause) {
		t.Fatalf("Cancelled = %v, want the mid-replay cause", err)
	}
	if rt.Err() != nil {
		t.Fatalf("abandoned replay must not set the sticky Err, got %v", rt.Err())
	}
	if inj.PointFaults() == 0 {
		t.Fatal("test did not exercise a fault; replay never ran")
	}
	if rt.Stats().Restores.Load() == 0 {
		t.Fatal("test did not exercise a restore; cancellation was not mid-replay")
	}

	rt.ClearCancel()

	// Fresh epoch, fresh region: the second scheduled fault (stream 14)
	// must now recover normally and the result must equal a fresh run's.
	r2 := rt.CreateRegion("v2", 64, Float64)
	for i := 0; i < 10; i++ {
		incLaunch(rt, r2, 4)
	}
	rt.Fence()
	if err := rt.Err(); err != nil {
		t.Fatalf("post-clear recovery failed: %v", err)
	}
	if inj.PointFaults() < 2 {
		t.Fatal("second fault did not fire; the reuse path was not exercised")
	}
	for _, v := range r2.Float64s() {
		if v != 10 {
			t.Fatalf("post-clear recovered result = %v, want 10 (bit-identical to a fresh run)", v)
		}
	}
}

// TestDelayInjectionIsValueAndClockNeutral: a lag schedule must slow
// the wall clock only — the whole Outcome, computed values and the
// simulated clock included, equals an undelayed run's.
func TestDelayInjectionIsValueAndClockNeutral(t *testing.T) {
	run := func(lagged bool) (Outcome, int) {
		rt := newTestRuntime(t, 4)
		inj := fault.New(11)
		if lagged {
			inj.SetLag(1, 200*time.Microsecond, 8)
		}
		rt.SetFaultInjector(inj)
		r := rt.CreateRegion("v", 64, Float64)
		for i := 0; i < 4; i++ {
			incLaunch(rt, r, 4)
		}
		rt.Fence()
		if rt.Err() != nil {
			t.Fatalf("lagged run errored: %v", rt.Err())
		}
		return Capture(rt, nil, nil, nil, r), inj.Delays()
	}
	base, _ := run(false)
	lag, delays := run(true)
	if delays == 0 {
		t.Fatal("lag schedule never fired")
	}
	if diff := Diff(lag, base); diff != "" {
		t.Fatalf("lagged run differs from the unlagged one: %s", diff)
	}
}
