package shard

// The distributed execution paths. The coordinator owns no solver
// recurrence: it runs solvers.PCGOn and solvers.PowerOn — the same
// loops a single-process engine runs — on a host space (hostSpace)
// whose operator is the scatter/gather plane; why that is bit-identical
// is DESIGN.md's "Host-side solver loop".
//
// Anything the plane does not distribute — non-CG solvers, non-CSR
// formats — passes through whole to the matrix fingerprint's ring
// owner, keeping every request answerable.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cunumeric"
	"repro/internal/geometry"
	"repro/internal/serve/engine"
	"repro/internal/solvers"
)

// hostSpace is the solvers.Space the coordinator solves on: vectors are
// host slices, MatVec is one scatter/gather round over the plan's
// blocks, Dot is the runtime's tiled reduction replayed in its fixed
// order, and the three element kernels are the cunumeric kernel bodies
// verbatim over the whole vector (no cross-element reduction, so order
// cannot matter; only Dot needs the tiled fold).
//
// The first MatVec failure sticks and turns later MatVecs into no-ops;
// Err reports it, or the request context's end, which outranks it.
type hostSpace struct {
	c   *Coordinator
	ctx context.Context
	p   *plan
	err error
}

func (s *hostSpace) Zeros() []float64        { return make([]float64, s.p.n) }
func (s *hostSpace) Free([]float64)          {}
func (s *hostSpace) Copy(dst, src []float64) { copy(dst, src) }

func (s *hostSpace) MatVec(dst, src []float64) {
	if s.Err() == nil {
		s.err = s.c.distSpMV(s.ctx, s.p, dst, src)
	}
}

func (s *hostSpace) Dot(a, b []float64) float64 { return s.c.dot(s.p, a, b) }

// AXPY: y += a*x (cn.axpy).
func (s *hostSpace) AXPY(a float64, x, y []float64) {
	for i := range y {
		y[i] += a * x[i]
	}
}

// AXPBY: y = a*x + b*y (cn.axpby).
func (s *hostSpace) AXPBY(a float64, x []float64, b float64, y []float64) {
	for i := range y {
		y[i] = a*x[i] + b*y[i]
	}
}

// Scale: v *= a (cn.scale).
func (s *hostSpace) Scale(a float64, v []float64) {
	for i := range v {
		v[i] *= a
	}
}

func (s *hostSpace) Err() error {
	if s.ctx.Err() != nil {
		return ctxError(s.ctx)
	}
	return s.err
}

// ones is the engines' default operand (Ones array).
func ones(n int64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// distributable reports whether a request can take the scatter/gather
// path: the plane replays CSR SpMV and the CG/power-iteration loops
// only.
func distributableFormat(format string) bool {
	return format == "" || format == "csr"
}

// SpMV computes y = A @ x by scatter/gather when the format is CSR,
// and passes the whole request through otherwise.
func (c *Coordinator) SpMV(ctx context.Context, req *engine.SpMVRequest) (*engine.SpMVResponse, error) {
	start := time.Now()
	ctx, cancel, d, err := c.admit(ctx, req.Meta, req.Matrix)
	if err != nil {
		return nil, err
	}
	defer cancel()
	if !distributableFormat(req.Format) {
		return passthrough(c, ctx, d, func(e engine.Backend) (*engine.SpMVResponse, error) {
			return e.SpMV(ctx, req)
		})
	}
	x := req.X
	if len(x) == 0 {
		x = ones(d.Cols)
	} else if int64(len(x)) != d.Cols {
		return nil, badRequest(fmt.Errorf("x has %d entries, matrix has %d columns", len(x), d.Cols))
	}
	p, hit := c.planFor(d)
	sp := &hostSpace{c: c, ctx: ctx, p: p}
	y := sp.Zeros()
	sp.MatVec(y, x)
	if err := sp.Err(); err != nil {
		return nil, err
	}
	return &engine.SpMVResponse{
		Y: y, Cache: cacheWord(hit), Worker: -1,
		LatencyNS: time.Since(start).Nanoseconds(),
	}, nil
}

// Solve runs CG distributed (the scatter/gather showcase) and passes
// other solvers through whole.
func (c *Coordinator) Solve(ctx context.Context, req *engine.SolveRequest) (*engine.SolveResponse, error) {
	start := time.Now()
	if err := req.Validate(); err != nil {
		return nil, badRequest(err)
	}
	ctx, cancel, d, err := c.admit(ctx, req.Meta, req.Matrix)
	if err != nil {
		return nil, err
	}
	defer cancel()
	if req.Solver != "cg" || !distributableFormat(req.Format) {
		return passthrough(c, ctx, d, func(e engine.Backend) (*engine.SolveResponse, error) {
			return e.Solve(ctx, req)
		})
	}
	b := req.B
	if len(b) == 0 {
		b = ones(d.Rows)
	} else if int64(len(b)) != d.Rows {
		return nil, badRequest(fmt.Errorf("b has %d entries, matrix has %d rows", len(b), d.Rows))
	}
	p, hit := c.planFor(d)
	resp, err := c.distCG(ctx, p, b, req.Tol, req.MaxIter)
	if err != nil {
		return nil, err
	}
	resp.Cache = cacheWord(hit)
	resp.Worker = -1
	resp.LatencyNS = time.Since(start).Nanoseconds()
	return resp, nil
}

// distCG runs solvers.PCGOn, unpreconditioned, on the host space. Like
// the engine, it reports a numerical breakdown as a solve that did not
// converge; only the space's own failure is an error.
func (c *Coordinator) distCG(ctx context.Context, p *plan, b []float64, tol float64, maxIter int) (*engine.SolveResponse, error) {
	sp := &hostSpace{c: c, ctx: ctx, p: p}
	out := solvers.PCGOn(sp, "cg", b, nil, maxIter, tol)
	if err := sp.Err(); err != nil {
		return nil, err
	}
	resp := &engine.SolveResponse{X: out.X, Iterations: out.Iterations, Converged: out.Converged}
	if n := len(out.Residuals); n > 0 {
		resp.Residual = out.Residuals[n-1]
	}
	return resp, nil
}

// Eigen runs power iteration distributed for CSR and passes other
// formats through whole.
func (c *Coordinator) Eigen(ctx context.Context, req *engine.EigenRequest) (*engine.EigenResponse, error) {
	start := time.Now()
	req.SetDefaults()
	ctx, cancel, d, err := c.admit(ctx, req.Meta, req.Matrix)
	if err != nil {
		return nil, err
	}
	defer cancel()
	if !distributableFormat(req.Format) {
		return passthrough(c, ctx, d, func(e engine.Backend) (*engine.EigenResponse, error) {
			return e.Eigen(ctx, req)
		})
	}
	p, hit := c.planFor(d)
	lambda, vec, err := c.distEigen(ctx, p, req.Iters, req.Seed)
	if err != nil {
		return nil, err
	}
	return &engine.EigenResponse{
		Eigenvalue: lambda, Vector: vec, Cache: cacheWord(hit), Worker: -1,
		LatencyNS: time.Since(start).Nanoseconds(),
	}, nil
}

// distEigen runs solvers.PowerOn on the host space from the start
// vector cunumeric.Random would generate.
func (c *Coordinator) distEigen(ctx context.Context, p *plan, iters int, seed uint64) (float64, []float64, error) {
	sp := &hostSpace{c: c, ctx: ctx, p: p}
	x := sp.Zeros()
	for i := range x {
		x[i] = cunumeric.Uniform01(seed, uint64(i))
	}
	return solvers.PowerOn(sp, x, iters)
}

// cacheWord spells a plan-cache outcome the way engine responses do.
func cacheWord(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// passthrough routes a whole request to the matrix fingerprint's ring
// owner, pushing the full matrix first when it was uploaded (presets
// materialize identically from their name on any engine). Generic over
// the response type so each endpoint keeps its own call.
func passthrough[R any](c *Coordinator, ctx context.Context, d *engine.MatrixDef, call func(engine.Backend) (*R, error)) (*R, error) {
	shard := c.ring.place(uint64(d.FP), 1)[0]
	if d.Preset == "" {
		g := &blockGroup{
			rows: geometry.NewRect(0, d.Rows-1), cols: d.Cols,
			name: d.Name, row: d.Row, col: d.Col, val: d.Val,
		}
		if err := c.ensurePassthroughCopy(ctx, shard, d, g); err != nil {
			return nil, err
		}
	}
	c.stats[shard].passthrough.Add(1)
	return call(c.engines[shard])
}

// ensurePassthroughCopy pushes an uploaded matrix whole to one shard,
// keyed by revision so a re-upload re-pushes.
func (c *Coordinator) ensurePassthroughCopy(ctx context.Context, shard int, d *engine.MatrixDef, g *blockGroup) error {
	key := fmt.Sprintf("%d/%s@%016x#r%d", shard, d.Name, uint64(d.FP), d.Revision)
	c.mu.Lock()
	done := c.pushed[key]
	c.mu.Unlock()
	if done {
		return nil
	}
	_, err := c.engines[shard].Upload(ctx, &engine.UploadRequest{
		Name: g.name, Rows: d.Rows, Cols: g.cols,
		Row: g.row, Col: g.col, Val: g.val,
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.pushed[key] = true
	c.mu.Unlock()
	return nil
}
