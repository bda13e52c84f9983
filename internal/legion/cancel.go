package legion

// Cooperative cancellation for the launch stream. The serve path needs
// a timed-out or abandoned request to release its warm runtime instead
// of running to completion — but the runtime's sequential application-
// goroutine discipline means it cannot be preempted, only asked.
//
// The mechanism mirrors the fault injector's attachment style: the
// application goroutine installs a cheap check function (typically a
// context.Context's Err), and the runtime polls it at its cooperative
// checkpoints — launch issue, fences, and between entries of a recovery
// replay, i.e. the gaps *between* legion epochs. When the check fires,
// the runtime enters the cancelled state:
//
//   - worker goroutines stop running kernels (points still complete,
//     so nothing hangs and Fence returns promptly), and launches issued
//     from then on charge no work;
//   - an in-progress recovery replay is abandoned between entries;
//   - Cancelled reports the cause so solvers can stop iterating.
//
// Cancellation is NOT the sticky Err: the runtime stays healthy and is
// reusable after ClearCancel, which quiesces, discards the interrupted
// checkpoint epoch (its log mixes real and skipped kernels), and starts
// a fresh one. Regions written while cancelled hold unspecified values;
// callers that keep state across a cancellation (the serve binding
// cache) must only keep regions the cancelled work never wrote — which
// is exactly the read-only matrix operands — or refill them before use.

import (
	"fmt"
	"sync"
	"time"
)

// CancelledError is the error reported by Cancelled and by solvers that
// stopped at a cooperative cancellation checkpoint.
type CancelledError struct{ Cause error }

func (e *CancelledError) Error() string {
	return fmt.Sprintf("legion: launch stream cancelled: %v", e.Cause)
}

func (e *CancelledError) Unwrap() error { return e.Cause }

// cancelState is the runtime's cancellation bookkeeping. The check
// function and err are application-goroutine-adjacent (err is read
// cross-goroutine under the mutex); the fired flag is the lock-free
// signal worker goroutines poll to skip kernels.
type cancelState struct {
	mu  sync.Mutex
	err error
}

// SetCancelCheck installs fn as the runtime's cooperative cancellation
// check, polled on the application goroutine at launch-issue, fence,
// and replay boundaries; a non-nil return cancels the stream. nil
// removes the check without clearing a cancellation that already fired.
// Call only from the application goroutine.
func (rt *Runtime) SetCancelCheck(fn func() error) { rt.cancelCheck = fn }

// Cancelled returns the CancelledError if the cancel check has fired,
// or nil. Safe from any goroutine.
func (rt *Runtime) Cancelled() error {
	if !rt.cancelFired.Load() {
		return nil
	}
	rt.cancel.mu.Lock()
	defer rt.cancel.mu.Unlock()
	return rt.cancel.err
}

// pollCancel runs the installed check once; on its first non-nil return
// the runtime enters the cancelled state. Application goroutine only.
func (rt *Runtime) pollCancel() {
	if rt.cancelCheck == nil || rt.cancelFired.Load() {
		return
	}
	if err := rt.cancelCheck(); err != nil {
		rt.cancel.mu.Lock()
		rt.cancel.err = &CancelledError{Cause: err}
		rt.cancel.mu.Unlock()
		rt.cancelFired.Store(true)
	}
}

// ClearCancel returns a cancelled runtime to service: it removes the
// check, quiesces the (kernel-skipping, therefore fast) remainder of
// the stream, discards outstanding point failures and the interrupted
// checkpoint epoch — its log interleaves launches whose kernels ran
// with launches whose kernels were skipped, so replaying it would be
// meaningless — and re-arms a fresh epoch. The sticky Err is untouched:
// a runtime that degraded *while* cancelled still needs replacement.
// Call from the application goroutine; a no-op when nothing fired.
func (rt *Runtime) ClearCancel() {
	rt.cancelCheck = nil
	if !rt.cancelFired.Load() {
		return
	}
	rt.FlushFusion()
	rt.pending.Wait()
	if ft := rt.ft; ft != nil {
		ft.takeFailures()
		fresh := &ftState{every: ft.every, epoch: ft.epoch + 1, snaps: map[RegionID]*regionSnap{}}
		rt.ft = fresh
	}
	rt.cancel.mu.Lock()
	rt.cancel.err = nil
	rt.cancel.mu.Unlock()
	rt.cancelFired.Store(false)
}

// DelayInjector is implemented by fault injectors that also schedule
// latency (internal/fault's slow/stall/lag schedules). Delay is
// consulted once per point-task execution; a positive result makes the
// worker sleep that long on the wall clock before running the kernel.
// Delays model slow kernels and overload: they never touch the
// simulated clock or any computed value, so a delayed run is
// bit-identical to an undelayed one.
type DelayInjector interface {
	Delay(stream int64, point int) time.Duration
}

// injectDelay sleeps out any latency the attached injector schedules
// for this (stream, point). Runs on worker goroutines (and on the
// application goroutine during replay); the injector is attached before
// the launches it applies to, as for decideFault.
func (rt *Runtime) injectDelay(stream int64, point int) {
	di, ok := rt.faultInj.(DelayInjector)
	if !ok {
		return
	}
	if d := di.Delay(stream, point); d > 0 {
		time.Sleep(d)
	}
}
