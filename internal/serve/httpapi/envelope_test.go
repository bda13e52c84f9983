package httpapi

// Table test over the single error-envelope constructor: every
// ErrorCode in the engine taxonomy maps to exactly one HTTP status,
// serializes the same {error, code, retryable} shape, and carries a
// Retry-After header iff the typed error priced a wait. Handlers never
// build envelopes by hand, so this table IS the wire contract.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve/engine"
)

func TestEnvelopeTable(t *testing.T) {
	cases := []struct {
		code       engine.ErrorCode
		retryable  bool
		retryAfter time.Duration
		wantStatus int
		wantHeader string // expected Retry-After header ("" = absent)
	}{
		{engine.CodeBadRequest, false, 0, 400, ""},
		{engine.CodeNotFound, false, 0, 404, ""},
		{engine.CodeOverQuota, true, 1500 * time.Millisecond, 429, "2"},
		{engine.CodeQueueFull, true, 250 * time.Millisecond, 503, "1"},
		{engine.CodeQueueWait, true, 3 * time.Second, 503, "3"},
		{engine.CodeBreakerOpen, true, 2 * time.Second, 503, "2"},
		{engine.CodeDraining, true, time.Second, 503, "1"},
		{engine.CodeDeadline, true, 0, 504, ""},
		{engine.CodeCancelled, false, 0, 503, ""},
		{engine.CodeDegraded, true, time.Second, 503, "1"},
		{engine.CodeInternal, true, 0, 503, ""},
		{engine.CodeInternal, false, 0, 500, ""},
	}
	for _, tc := range cases {
		t.Run(string(tc.code), func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeError(rec, &engine.Error{
				Code:       tc.code,
				Retryable:  tc.retryable,
				RetryAfter: tc.retryAfter,
				Err:        errTest{},
			})
			if rec.Code != tc.wantStatus {
				t.Errorf("status = %d, want %d", rec.Code, tc.wantStatus)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.wantHeader {
				t.Errorf("Retry-After = %q, want %q", got, tc.wantHeader)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
			var env ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("envelope is not JSON: %v", err)
			}
			if env.Code != string(tc.code) {
				t.Errorf("envelope code = %q, want %q", env.Code, tc.code)
			}
			if env.Retryable != tc.retryable {
				t.Errorf("envelope retryable = %v, want %v", env.Retryable, tc.retryable)
			}
			if env.Error == "" {
				t.Error("envelope has an empty error message")
			}
			// The envelope has exactly the three contract fields.
			var raw map[string]any
			json.Unmarshal(rec.Body.Bytes(), &raw)
			if len(raw) != 3 {
				t.Errorf("envelope fields = %v, want exactly {error, code, retryable}", raw)
			}
		})
	}
}

type errTest struct{}

func (errTest) Error() string { return "synthetic failure" }

// TestEnvelopeAsErrorWrapsForeign: a non-typed error surfaced through a
// handler still produces a well-formed internal envelope.
func TestEnvelopeAsErrorWrapsForeign(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, engine.AsError(errTest{}))
	if rec.Code != 503 {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	var env ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != string(engine.CodeInternal) || !env.Retryable {
		t.Fatalf("envelope = %+v, want internal/retryable", env)
	}
}

// TestEnvelopeSubSecondRetryAfterRoundsUp: HTTP Retry-After is whole
// delta-seconds; a sub-second wait must round up to 1, never down to 0.
func TestEnvelopeSubSecondRetryAfterRoundsUp(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, &engine.Error{Code: engine.CodeQueueFull, Retryable: true, RetryAfter: time.Millisecond, Err: errTest{}})
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q for a 1ms wait, want \"1\"", got)
	}
}

// TestUnencodableAnswerIsAnError: an SpMV whose answer overflows to +Inf
// cannot be written as JSON; the client gets the internal envelope, not a
// 200 with an empty body.
func TestUnencodableAnswerIsAnError(t *testing.T) {
	_, ts := newTestServer(t, engine.Config{Pool: 1, Procs: 2})
	up := engine.UploadRequest{Name: "big", Rows: 2, Cols: 2,
		Row: []int64{0, 0, 1}, Col: []int64{0, 1, 1}, Val: []float64{1e308, 1e308, 1}}
	if code := postJSON(t, ts.URL+"/matrix", up, nil); code != 200 {
		t.Fatalf("upload status %d", code)
	}
	body, _ := json.Marshal(engine.SpMVRequest{Matrix: "big", X: []float64{1, 1}})
	resp, err := http.Post(ts.URL+"/spmv", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("status %d, body is not an envelope: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != 500 || env.Code != string(engine.CodeInternal) || env.Retryable ||
		!strings.Contains(env.Error, "Inf") {
		t.Fatalf("status %d, envelope %+v; want 500, internal, not retryable, naming the +Inf", resp.StatusCode, env)
	}
}
