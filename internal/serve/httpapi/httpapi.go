// Package httpapi is the HTTP JSON transport of legate-serve: a thin
// marshalling layer over any engine.Backend — the single-process
// engine or the internal/shard coordinator, which is how one binary
// serves both deployments from the same handler. It owns everything
// wire-shaped: route registration, request decoding, the X-Deadline
// and X-Tenant header conventions, the uniform JSON error envelope
// with its ErrorCode→status mapping, and Retry-After headers. No
// solver, admission, or caching logic lives here.
//
// Endpoints: POST /solve, /spmv, /eigen, /matrix; GET /matrix,
// /metrics, /profile, /healthz.
package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve/engine"
)

// ErrorResponse is the uniform JSON error envelope every handler
// returns on a non-2xx status: the human-readable error, a stable
// machine-readable code, and whether retrying the same request can
// succeed. Shed responses (429/503) additionally carry a Retry-After
// header.
type ErrorResponse struct {
	Error     string `json:"error"`
	Code      string `json:"code"`
	Retryable bool   `json:"retryable"`
}

// statusOf maps the engine's typed error taxonomy onto HTTP statuses.
// This is the only place the mapping exists.
func statusOf(e *engine.Error) int {
	switch e.Code {
	case engine.CodeBadRequest:
		return http.StatusBadRequest
	case engine.CodeNotFound:
		return http.StatusNotFound
	case engine.CodeOverQuota:
		return http.StatusTooManyRequests
	case engine.CodeDeadline:
		return http.StatusGatewayTimeout
	case engine.CodeInternal:
		if !e.Retryable {
			return http.StatusInternalServerError // the same request fails the same way
		}
		return http.StatusServiceUnavailable
	default:
		// queue_full, queue_wait, breaker_open, draining, cancelled,
		// degraded: all service-side, all 503.
		return http.StatusServiceUnavailable
	}
}

// writeError writes the envelope for a typed engine error — the single
// place the JSON error shape is constructed. RetryAfter > 0 adds a
// Retry-After header (whole seconds, minimum 1 — the HTTP
// delta-seconds format).
func writeError(w http.ResponseWriter, e *engine.Error) {
	if e.RetryAfter > 0 {
		secs := int64(math.Ceil(e.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(statusOf(e))
	json.NewEncoder(w).Encode(ErrorResponse{Error: e.Error(), Code: string(e.Code), Retryable: e.Retryable})
}

// badRequest writes a malformed-request envelope for transport-level
// failures (undecodable body, bad header) that never reach the engine.
func badRequest(w http.ResponseWriter, err error) {
	writeError(w, &engine.Error{Code: engine.CodeBadRequest, Err: err})
}

// maxBodyBytes bounds a request body. Decoding allocates in proportion
// to the bytes read, so this is also the bound on what one request can
// make the transport allocate; 64 MiB holds the triples of a matrix with
// a few million entries.
const maxBodyBytes = 64 << 20

// decodeBody reads the request's JSON body into v. A body past the
// server's limit fails like any other malformed one.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(v)
}

// writeJSON answers v with status 200. An answer whose vector holds two
// encoding grains or more is encoded on every processor at once
// (encodeAnswer) and goes out in one write with its Content-Length;
// anything else takes the serial encoder. Both write the same bytes,
// and both marshal v whole before they write anything, so an answer
// JSON cannot hold (a ±Inf or NaN value) is sent as the internal error
// envelope, not as a 200 with an empty body. Computing it again gives
// the same value: not retryable.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if body, ok := encodeAnswer(v, answerParts(v)); ok {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
		return
	}
	if err := json.NewEncoder(w).Encode(v); err != nil {
		writeError(w, &engine.Error{Code: engine.CodeInternal, Err: fmt.Errorf("encoding the answer: %w", err)})
	}
}

// server binds the handler set to one backend.
type server struct {
	b       engine.Backend
	maxBody int64 // maxBodyBytes, except in tests
}

// Handler returns the HTTP surface over b.
func Handler(b engine.Backend) http.Handler { return newHandler(b, maxBodyBytes) }

func newHandler(b engine.Backend, maxBody int64) http.Handler {
	s := &server{b: b, maxBody: maxBody}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("POST /spmv", s.handleSpMV)
	mux.HandleFunc("POST /eigen", s.handleEigen)
	mux.HandleFunc("POST /matrix", s.handleUpload)
	mux.HandleFunc("GET /matrix", s.handleList)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /profile", s.handleProfile)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// meta extracts the transport conventions for request context: the
// X-Tenant header names the quota bucket, the X-Deadline header (a
// positive Go duration) overrides the engine's deadline budget.
func meta(r *http.Request) (engine.RequestMeta, error) {
	m := engine.RequestMeta{Tenant: r.Header.Get("X-Tenant")}
	if h := r.Header.Get("X-Deadline"); h != "" {
		v, err := time.ParseDuration(h)
		if err != nil || v <= 0 {
			return m, fmt.Errorf("bad X-Deadline %q (want a positive Go duration)", h)
		}
		m.Deadline = v
	}
	return m, nil
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req engine.SolveRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		badRequest(w, err)
		return
	}
	var err error
	if req.Meta, err = meta(r); err != nil {
		badRequest(w, err)
		return
	}
	resp, err := s.b.Solve(r.Context(), &req)
	if err != nil {
		writeError(w, engine.AsError(err))
		return
	}
	writeJSON(w, resp)
}

func (s *server) handleSpMV(w http.ResponseWriter, r *http.Request) {
	var req engine.SpMVRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		badRequest(w, err)
		return
	}
	var err error
	if req.Meta, err = meta(r); err != nil {
		badRequest(w, err)
		return
	}
	resp, err := s.b.SpMV(r.Context(), &req)
	if err != nil {
		writeError(w, engine.AsError(err))
		return
	}
	writeJSON(w, resp)
}

func (s *server) handleEigen(w http.ResponseWriter, r *http.Request) {
	var req engine.EigenRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		badRequest(w, err)
		return
	}
	var err error
	if req.Meta, err = meta(r); err != nil {
		badRequest(w, err)
		return
	}
	resp, err := s.b.Eigen(r.Context(), &req)
	if err != nil {
		writeError(w, engine.AsError(err))
		return
	}
	writeJSON(w, resp)
}

// handleUpload reads the whole body through the server's limit before
// decoding it (decodeUpload), so a body past the limit is refused even
// when a valid object ends before it.
func (s *server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		badRequest(w, err)
		return
	}
	var req engine.UploadRequest
	if err := decodeUpload(body, &req); err != nil {
		badRequest(w, err)
		return
	}
	resp, err := s.b.Upload(r.Context(), &req)
	if err != nil {
		writeError(w, engine.AsError(err))
		return
	}
	writeJSON(w, resp)
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.b.Matrices())
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.b.Metrics())
}

func (s *server) handleProfile(w http.ResponseWriter, r *http.Request) {
	report, err := s.b.ProfileReport(r.URL.Query().Get("class"))
	if err != nil {
		writeError(w, engine.AsError(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := report.WriteJSON(w); err != nil {
		writeError(w, &engine.Error{Code: engine.CodeInternal, Retryable: true, Err: err})
	}
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	snap := s.b.Health()
	if !snap.OK {
		// 503 so a load balancer rotates the instance out.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(snap)
		return
	}
	writeJSON(w, snap)
}
