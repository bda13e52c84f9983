package engine

import "time"

// ErrorCode is the stable machine-readable failure taxonomy every
// Backend method reports. Transports map codes onto their own status
// vocabulary (the HTTP transport maps CodeDeadline to 504, shed codes
// to 429/503, and so on); the engine only decides WHAT failed, never
// how to spell it on a wire.
type ErrorCode string

const (
	CodeBadRequest  ErrorCode = "bad_request"       // malformed request; retry is pointless
	CodeNotFound    ErrorCode = "not_found"         // unknown matrix
	CodeOverQuota   ErrorCode = "over_quota"        // tenant token bucket empty
	CodeQueueFull   ErrorCode = "queue_full"        // worker's bounded queue is full
	CodeQueueWait   ErrorCode = "queue_wait"        // estimated queue wait exceeds the deadline budget
	CodeBreakerOpen ErrorCode = "breaker_open"      // worker's circuit breaker is open
	CodeDraining    ErrorCode = "draining"          // engine is shutting down
	CodeDeadline    ErrorCode = "deadline_exceeded" // admitted, but the deadline expired; cancelled cleanly
	CodeCancelled   ErrorCode = "cancelled"         // client abandoned the request mid-flight
	CodeDegraded    ErrorCode = "degraded"          // the group's one execution left the runtime degraded
	CodeInternal    ErrorCode = "internal"
)

// Error is the typed failure of a Backend call: the code, whether
// retrying the same request can succeed, and an optional hint for when
// a retry could be admitted (shed paths fill it from the quota bucket,
// breaker cooldown, or queue estimate).
type Error struct {
	Code       ErrorCode
	Retryable  bool
	RetryAfter time.Duration // > 0: wait this long before retrying
	Err        error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// badRequest wraps a malformed-request failure.
func badRequest(err error) *Error { return &Error{Code: CodeBadRequest, Err: err} }

// AsError coerces any failure into a typed *Error, wrapping foreign
// errors as CodeInternal so transports always have a code to map.
func AsError(err error) *Error {
	if te, ok := err.(*Error); ok {
		return te
	}
	return &Error{Code: CodeInternal, Retryable: true, Err: err}
}
