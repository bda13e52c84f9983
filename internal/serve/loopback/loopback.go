// Package loopback is the in-process transport over an engine.Backend:
// a Client that deep-copies every request and response crossing the
// seam, so callers observe exactly the isolation a wire transport
// would give them — no aliasing of operand slices into engine state,
// no mutation of responses reaching back into caches. Deterministic
// tests and the shard coordinator both talk to engines through it; a
// networked wire format can replace it without touching either side.
package loopback

import (
	"context"
	"time"

	"repro/internal/prof"
	"repro/internal/serve/engine"
)

// Client wraps a Backend with copy-on-call semantics. It implements
// engine.Backend itself, so transports and coordinators stack on it
// transparently.
type Client struct{ b engine.Backend }

var _ engine.Backend = (*Client)(nil)

// New returns a loopback client over b.
func New(b engine.Backend) *Client { return &Client{b: b} }

func cloneF64(s []float64) []float64 {
	if s == nil {
		return nil
	}
	return append([]float64(nil), s...)
}

func cloneI64(s []int64) []int64 {
	if s == nil {
		return nil
	}
	return append([]int64(nil), s...)
}

// Solve serves a deep-copied SolveRequest and returns a deep-copied
// response.
func (c *Client) Solve(ctx context.Context, req *engine.SolveRequest) (*engine.SolveResponse, error) {
	r := *req
	r.B = cloneF64(req.B)
	resp, err := c.b.Solve(ctx, &r)
	if err != nil {
		return nil, err
	}
	out := *resp
	out.X = cloneF64(resp.X)
	return &out, nil
}

// SpMV serves a deep-copied SpMVRequest and returns a deep-copied
// response.
func (c *Client) SpMV(ctx context.Context, req *engine.SpMVRequest) (*engine.SpMVResponse, error) {
	r := *req
	r.X = cloneF64(req.X)
	resp, err := c.b.SpMV(ctx, &r)
	if err != nil {
		return nil, err
	}
	out := *resp
	out.Y = cloneF64(resp.Y)
	return &out, nil
}

// Eigen serves a copied EigenRequest and returns a deep-copied
// response.
func (c *Client) Eigen(ctx context.Context, req *engine.EigenRequest) (*engine.EigenResponse, error) {
	r := *req
	resp, err := c.b.Eigen(ctx, &r)
	if err != nil {
		return nil, err
	}
	out := *resp
	out.Vector = cloneF64(resp.Vector)
	return &out, nil
}

// Upload serves a deep-copied UploadRequest.
func (c *Client) Upload(ctx context.Context, req *engine.UploadRequest) (*engine.UploadResponse, error) {
	r := *req
	r.Row = cloneI64(req.Row)
	r.Col = cloneI64(req.Col)
	r.Val = cloneF64(req.Val)
	resp, err := c.b.Upload(ctx, &r)
	if err != nil {
		return nil, err
	}
	out := *resp
	return &out, nil
}

// Matrices forwards the listing (rows are value types already).
func (c *Client) Matrices() []engine.MatrixInfo { return c.b.Matrices() }

// Metrics forwards the counter snapshot.
func (c *Client) Metrics() engine.MetricsSnapshot { return c.b.Metrics() }

// ProfileReport forwards the profiling report.
func (c *Client) ProfileReport(class string) (*prof.Report, error) {
	return c.b.ProfileReport(class)
}

// Health forwards the health snapshot.
func (c *Client) Health() engine.HealthSnapshot { return c.b.Health() }

// Drain forwards the graceful-shutdown gate.
func (c *Client) Drain(timeout time.Duration) bool { return c.b.Drain(timeout) }

// Close forwards shutdown.
func (c *Client) Close() { c.b.Close() }
