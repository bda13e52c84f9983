package engine

// Request-lifecycle machinery: admission control (per-tenant
// token-bucket quotas, bounded queues, queue-wait shedding) and the
// per-worker circuit breaker. Together with the runtime's cooperative
// cancellation (legion/cancel.go) and the fault injector's latency
// schedules (internal/fault), these bound what overload can do to the
// service: work is either admitted — and then completes within its
// deadline budget or is cancelled cleanly — or it is refused up front
// with a typed *Error carrying a RetryAfter the client can act on. The
// wire spelling of refusals (JSON envelope, Retry-After header) lives in
// the transport layer. See DESIGN.md ("request lifecycle & overload").

import (
	"math"
	"sync"
	"time"
)

// degradedError reports a batch group whose one execution ended with a
// sticky runtime error or a recovered panic. Re-running it elsewhere is
// the shard router's job, not the engine's.
type degradedError struct{ cause error }

func (e *degradedError) Error() string { return "runtime degraded: " + e.cause.Error() }

func (e *degradedError) Unwrap() error { return e.cause }

// ---- per-tenant quotas -------------------------------------------------

// quotas is the per-tenant token-bucket admission gate. Each tenant
// (RequestMeta.Tenant; "default" when absent) gets an independent
// bucket refilled at rate tokens/second up to burst; an admission
// spends one token, and an empty bucket refuses the request with a
// CodeOverQuota error whose RetryAfter is the time until the next
// token.
type quotas struct {
	rate  float64
	burst float64

	mu sync.Mutex
	m  map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newQuotas(rate float64, burst int) *quotas {
	if burst <= 0 {
		burst = int(math.Ceil(rate))
		if burst < 1 {
			burst = 1
		}
	}
	return &quotas{rate: rate, burst: float64(burst), m: map[string]*bucket{}}
}

// admit spends one token from tenant's bucket. On refusal it returns
// the wait until a token is available.
func (q *quotas) admit(tenant string, now time.Time) (time.Duration, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.m[tenant]
	if b == nil {
		b = &bucket{tokens: q.burst, last: now}
		q.m[tenant] = b
	}
	b.tokens = math.Min(q.burst, b.tokens+q.rate*now.Sub(b.last).Seconds())
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	wait := time.Duration((1 - b.tokens) / q.rate * float64(time.Second))
	return wait, false
}

// ---- circuit breaker ---------------------------------------------------

// breakerState is a circuit breaker's position.
type breakerState int

const (
	breakerClosed   breakerState = iota // admitting normally
	breakerOpen                         // shedding; waiting out the cooldown
	breakerHalfOpen                     // one probe in flight decides
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "breaker?"
	}
}

// breaker is the per-worker circuit breaker. It trips open after
// threshold consecutive degraded groups, sheds admissions while open,
// and after the cooldown half-opens to admit a single probe: the
// probe's outcome closes the breaker or re-opens it for another
// cooldown. A probe that reports no outcome within a cooldown (shed
// after admission, expired in the queue, or a client error) no longer
// holds the slot: the next admission becomes the probe.
type breaker struct {
	threshold int           // consecutive degradations to trip; <= 0 disables
	cooldown  time.Duration // open -> half-open probe delay
	notify    func(to breakerState)

	mu       sync.Mutex
	state    breakerState
	fails    int
	openedAt time.Time
	probeAt  time.Time // admission of the outstanding probe; zero when none
}

func newBreaker(threshold int, cooldown time.Duration, notify func(breakerState)) *breaker {
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	return &breaker{threshold: threshold, cooldown: cooldown, notify: notify}
}

// allow decides whether an admission may proceed. When it refuses, the
// returned duration is the remaining cooldown — the RetryAfter hint.
func (b *breaker) allow(now time.Time) (time.Duration, bool) {
	if b.threshold <= 0 {
		return 0, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if wait := b.wait(now); wait > 0 {
		return wait, false
	}
	if b.state == breakerOpen {
		b.transition(breakerHalfOpen)
	}
	if b.state == breakerHalfOpen {
		b.probeAt = now // the probe
	}
	return 0, true
}

// admits reports whether allow(now) would admit, without taking the
// probe slot.
func (b *breaker) admits(now time.Time) bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.wait(now) <= 0
}

// wait is how much longer the breaker refuses admissions: the rest of
// the cooldown while open, and while half-open the rest of the
// outstanding probe's cooldown (one probe at a time). Callers hold b.mu.
func (b *breaker) wait(now time.Time) time.Duration {
	switch {
	case b.state == breakerOpen:
		return b.cooldown - now.Sub(b.openedAt)
	case b.state == breakerHalfOpen && !b.probeAt.IsZero():
		return b.cooldown - now.Sub(b.probeAt)
	}
	return 0
}

// onSuccess records a cleanly served batch group: it resets the failure
// streak and closes a half-open breaker.
func (b *breaker) onSuccess() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.probeAt = time.Time{}
	if b.state != breakerClosed {
		b.transition(breakerClosed)
	}
}

// onFailure records a degradation. A half-open probe failure re-opens
// immediately; a closed breaker opens once the streak hits threshold.
func (b *breaker) onFailure(now time.Time) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	b.probeAt = time.Time{}
	switch b.state {
	case breakerHalfOpen:
		b.openedAt = now
		b.transition(breakerOpen)
	case breakerClosed:
		if b.fails >= b.threshold {
			b.openedAt = now
			b.transition(breakerOpen)
		}
	}
}

// transition flips the state and fires the notify hook. Callers hold
// b.mu; the hook must not call back into the breaker.
func (b *breaker) transition(to breakerState) {
	b.state = to
	if b.notify != nil {
		b.notify(to)
	}
}

// snapshot returns the current state for health reporting.
func (b *breaker) snapshot() breakerState {
	if b.threshold <= 0 {
		return breakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
