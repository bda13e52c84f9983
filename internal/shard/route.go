package shard

// Routing: every request goes whole to the owner of its matrix name and
// fails over through the owner's successors. Placement is a pure
// function of (name, shard count), so a re-uploaded matrix stays on its
// shard and the engine's own revision bump invalidates the old binding,
// exactly as on a single engine.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/prof"
	"repro/internal/serve/engine"
)

// splitmix64 is the repo's standard avalanche hash (the same mix the
// fault injector and retry jitter use).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// placement returns every shard in the order a request for name tries
// them: the owner, hash(name) mod shards, then its successors.
func placement(name string, shards int) []int {
	h := fnv.New64a()
	h.Write([]byte(name))
	owner := int(splitmix64(h.Sum64()) % uint64(shards))
	order := make([]int, shards)
	for i := range order {
		order[i] = (owner + i) % shards
	}
	return order
}

// badRequest wraps err as a typed client error.
func badRequest(err error) *engine.Error {
	return &engine.Error{Code: engine.CodeBadRequest, Err: err}
}

// ctxError maps a cancelled coordinator context onto the engine's
// deadline/cancel taxonomy.
func ctxError(ctx context.Context) *engine.Error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return &engine.Error{Code: engine.CodeDeadline, Retryable: true, Err: ctx.Err()}
	}
	return &engine.Error{Code: engine.CodeCancelled, Err: ctx.Err()}
}

// failoverable reports whether an error justifies trying the next
// shard: service-side degradations do, client errors (an unknown name
// included) and the coordinator's own deadline/cancel do not.
func failoverable(err error) bool {
	switch engine.AsError(err).Code {
	case engine.CodeBadRequest, engine.CodeNotFound, engine.CodeDeadline, engine.CodeCancelled:
		return false
	}
	return true
}

// admit runs the coordinator-level gate shared by every request: drain
// check, the uploaded definition if there is one (a preset is left to
// the serving engine), and the deadline budget context.
func (c *Coordinator) admit(ctx context.Context, meta engine.RequestMeta, matrix string) (context.Context, context.CancelFunc, *engine.MatrixDef, error) {
	if matrix == "" {
		return nil, nil, nil, badRequest(fmt.Errorf("missing matrix name"))
	}
	if c.draining.Load() {
		return nil, nil, nil, &engine.Error{Code: engine.CodeDraining, Retryable: true, RetryAfter: time.Second, Err: errors.New("coordinator draining")}
	}
	budget := c.cfg.Engine.Deadline
	if meta.Deadline > 0 {
		budget = meta.Deadline
	}
	cancel := context.CancelFunc(func() {})
	if budget > 0 {
		ctx, cancel = context.WithTimeout(ctx, budget)
	}
	return ctx, cancel, c.store.Peek(matrix), nil
}

// push uploads d to a shard unless the shard already holds this
// revision or a newer one. The lock spans the upload so that two
// revisions racing to one shard land in revision order.
func (c *Coordinator) push(ctx context.Context, shard int, d *engine.MatrixDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pushed[shard][d.Name] >= d.Revision {
		return nil
	}
	_, err := c.engines[shard].Upload(ctx, &engine.UploadRequest{
		Name: d.Name, Rows: d.Rows, Cols: d.Cols,
		Row: d.Row, Col: d.Col, Val: d.Val,
	})
	if err == nil {
		c.pushed[shard][d.Name] = d.Revision
	}
	return err
}

// span records one forwarding attempt on the coordinator's profiling
// timeline, registered as its own single-point launch so BuildReport
// produces a per-task breakdown for the shard class.
func (c *Coordinator) span(task string, shard int, start time.Time) {
	now := time.Now()
	seq := c.seq.Add(1)
	c.sink.RecordLaunch(prof.LaunchInfo{Run: c.run, Seq: seq, Name: task, Points: 1}, nil)
	c.sink.RecordSpan(prof.Span{
		Run: c.run, Task: task, Launch: seq,
		Proc: shard, Node: shard,
		Start: start.Sub(c.epoch), Dur: now.Sub(start),
	})
}

// route admits one request and forwards it whole to the matrix's
// owner, failing over to each successor in turn while the error is
// failoverable. Generic over the response type so each endpoint keeps
// its own call.
func route[R any](c *Coordinator, ctx context.Context, meta engine.RequestMeta, matrix string, call func(context.Context, engine.Backend) (*R, error)) (*R, error) {
	ctx, cancel, d, err := c.admit(ctx, meta, matrix)
	if err != nil {
		return nil, err
	}
	defer cancel()
	var lastErr error
	order := placement(matrix, len(c.engines))
	for attempt, shard := range order {
		if attempt > 0 {
			prev := order[attempt-1]
			c.stats[prev].failovers.Add(1)
			c.sink.RecordMark(prof.Mark{Run: c.run, Kind: prof.MarkFailover, At: time.Since(c.epoch), Proc: prev, Task: matrix})
		}
		if d != nil {
			if err := c.push(ctx, shard, d); err != nil {
				if !failoverable(err) {
					return nil, err
				}
				lastErr = err
				continue
			}
		}
		c.stats[shard].passthrough.Add(1)
		t0 := time.Now()
		resp, err := call(ctx, c.engines[shard])
		c.span("shard.forward", shard, t0)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctxError(ctx)
		}
		if !failoverable(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// Solve validates at admission, so a malformed request reaches no shard.
func (c *Coordinator) Solve(ctx context.Context, req *engine.SolveRequest) (*engine.SolveResponse, error) {
	if err := req.Validate(); err != nil {
		return nil, badRequest(err)
	}
	return route(c, ctx, req.Meta, req.Matrix, func(ctx context.Context, e engine.Backend) (*engine.SolveResponse, error) {
		return e.Solve(ctx, req)
	})
}

// SpMV forwards y = A @ x to one engine.
func (c *Coordinator) SpMV(ctx context.Context, req *engine.SpMVRequest) (*engine.SpMVResponse, error) {
	return route(c, ctx, req.Meta, req.Matrix, func(ctx context.Context, e engine.Backend) (*engine.SpMVResponse, error) {
		return e.SpMV(ctx, req)
	})
}

// Eigen forwards power iteration to one engine.
func (c *Coordinator) Eigen(ctx context.Context, req *engine.EigenRequest) (*engine.EigenResponse, error) {
	return route(c, ctx, req.Meta, req.Matrix, func(ctx context.Context, e engine.Backend) (*engine.EigenResponse, error) {
		return e.Eigen(ctx, req)
	})
}
