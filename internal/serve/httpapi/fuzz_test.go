package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve/engine"
)

// captureBackend is the engine side of a decode test: it keeps the
// solve request the transport handed it and answers with a fixed reply.
// Only Solve is ever reached.
type captureBackend struct {
	engine.Backend
	got *engine.SolveRequest
}

func (c *captureBackend) Solve(_ context.Context, req *engine.SolveRequest) (*engine.SolveResponse, error) {
	c.got = req
	return &engine.SolveResponse{X: []float64{1}, Converged: true}, nil
}

// testBodyLimit is the body limit the decode tests run under: small
// enough that a fuzz input can cross it.
const testBodyLimit = 4 << 10

// postSolve sends body to POST /solve on a handler with testBodyLimit
// and returns the status, the reply and the request the backend saw
// (nil if the transport refused it).
func postSolve(t *testing.T, body io.Reader, deadline string) (int, []byte, *engine.SolveRequest) {
	t.Helper()
	backend := &captureBackend{}
	req := httptest.NewRequest(http.MethodPost, "/solve", body)
	if deadline != "" {
		req.Header.Set("X-Deadline", deadline)
	}
	rec := httptest.NewRecorder()
	newHandler(backend, testBodyLimit).ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), backend.got
}

// FuzzSolveRequest: whatever bytes arrive as a solve request — hostile
// sizes, NaN and Inf spellings, duplicate keys, truncated bodies — the
// transport never panics. It either hands the engine a request whose
// every number is finite and whose right-hand side is no longer than
// the body could spell, or answers 400 with the JSON error envelope.
func FuzzSolveRequest(f *testing.F) {
	f.Add(`{"matrix":"poisson2d:16","solver":"cg"}`, "")
	f.Add(`{"matrix":"m","solver":"gmres","format":"bsr","tol":1e-12,"max_iter":50,"restart":7,"b":[1,2.5,-3e-7]}`, "250ms")
	f.Add(`{"matrix":"m","max_iter":99999999999999999999,"restart":-1}`, "")
	f.Add(`{"matrix":"m","tol":NaN}`, "")
	f.Add(`{"matrix":"m","tol":1e999,"b":[Infinity,-Infinity]}`, "")
	f.Add(`{"matrix":"a","matrix":"b","b":[1],"b":[2,3]}`, "")
	f.Add(`{"matrix":"m","b":[1,2,`, "")
	f.Add(`{"matrix":"m","b":`+strings.Repeat("[", 10000), "")
	f.Add(`{"matrix":"m"}{"matrix":"n"}`, "-1s")
	f.Add(`{"matrix":"m","b":[`+strings.Repeat("1,", testBodyLimit/2)+`1]}`, "") // past the body limit
	f.Add(`null`, "1h")
	f.Add(``, "soon")
	f.Fuzz(func(t *testing.T, body, deadline string) {
		status, reply, got := postSolve(t, strings.NewReader(body), deadline)
		switch status {
		case http.StatusOK:
			if got == nil {
				t.Fatal("200 without the backend having seen a request")
			}
			if len(got.B) > len(body)/2 {
				t.Fatalf("a %d-byte body decoded into %d right-hand-side entries", len(body), len(got.B))
			}
			for i, v := range append([]float64{got.Tol}, got.B...) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("decoded number %d is %v", i, v)
				}
			}
			if got.Meta.Deadline < 0 {
				t.Fatalf("negative deadline %v reached the engine", got.Meta.Deadline)
			}
		case http.StatusBadRequest:
			var env ErrorResponse
			if err := json.Unmarshal(reply, &env); err != nil || env.Code != string(engine.CodeBadRequest) || env.Error == "" {
				t.Fatalf("400 reply is not the bad_request envelope: %q (%v)", reply, err)
			}
			if got != nil {
				t.Fatal("a refused request still reached the backend")
			}
		default:
			t.Fatalf("status %d: %s", status, reply)
		}
	})
}

// TestBodyLimit: a body one byte past the limit is refused as a bad
// request without reaching the backend, however well-formed; one of
// exactly the limit is served.
func TestBodyLimit(t *testing.T) {
	req := []byte(`{"matrix":"m"}`)
	pad := func(n int) io.Reader {
		return io.MultiReader(bytes.NewReader(bytes.Repeat([]byte{' '}, n-len(req))), bytes.NewReader(req))
	}
	if status, reply, got := postSolve(t, pad(testBodyLimit), ""); status != http.StatusOK || got == nil || got.Matrix != "m" {
		t.Fatalf("body of exactly the limit: status %d, %s", status, reply)
	}
	status, reply, got := postSolve(t, pad(testBodyLimit+1), "")
	if status != http.StatusBadRequest || got != nil || !strings.Contains(string(reply), "too large") {
		t.Fatalf("body past the limit: status %d, reached backend %v, reply %s", status, got != nil, reply)
	}
}
