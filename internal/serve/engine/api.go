package engine

// Typed request/response surface of the solver engine. These are the
// wire-format-agnostic shapes every transport speaks: the HTTP
// transport (internal/serve/httpapi) marshals them as JSON envelopes,
// the loopback transport (internal/serve/loopback) passes deep copies
// in process, and the shard coordinator (internal/shard) both consumes
// and implements them. The JSON struct tags here describe how a JSON
// transport SHOULD spell the fields; the engine itself never marshals
// anything (see scripts/check_boundary.sh).

import (
	"context"
	"fmt"
	"time"

	"repro/internal/prof"
	"repro/internal/solvers"
)

// RequestMeta carries transport-derived request context into the
// engine: the tenant identity (quota bucket key) and an optional
// per-request deadline budget that overrides the configured default.
// Transports fill it from their own conventions — the HTTP transport
// maps the X-Tenant and X-Deadline headers — so it never appears in a
// request body.
type RequestMeta struct {
	Tenant   string        `json:"-"`
	Deadline time.Duration `json:"-"`
}

// SolveRequest asks for an iterative solve of A x = b.
type SolveRequest struct {
	Matrix  string    `json:"matrix"`             // preset name or uploaded matrix
	Solver  string    `json:"solver,omitempty"`   // solvers.MethodNames: cg|pcg|cgs|bicg|bicgstab|gmres (default cg)
	Format  string    `json:"format,omitempty"`   // csr|csc|coo|dia|bsr (default csr)
	Tol     float64   `json:"tol,omitempty"`      // convergence tolerance (default 1e-8)
	MaxIter int       `json:"max_iter,omitempty"` // iteration cap (default 200)
	Restart int       `json:"restart,omitempty"`  // GMRES restart length (default 30)
	B       []float64 `json:"b,omitempty"`        // right-hand side (default all ones)

	Meta RequestMeta `json:"-"`
}

// Validate fills the request's defaults and reports an unknown solver.
// Only a zero tolerance takes the default: a negative one is kept, so the
// solve runs its max_iter iterations without converging. Every backend's
// Solve applies it first, so the sharded and the single-process paths
// read the same request.
func (r *SolveRequest) Validate() error {
	if r.Solver == "" {
		r.Solver = "cg"
	}
	if _, err := solvers.Lookup(r.Solver); err != nil {
		return err
	}
	if r.Tol == 0 {
		r.Tol = 1e-8
	}
	if r.MaxIter <= 0 {
		r.MaxIter = 200
	}
	if r.Restart <= 0 {
		r.Restart = 30
	}
	return nil
}

// SolveResponse is the outcome of a SolveRequest.
type SolveResponse struct {
	X          []float64 `json:"x"`
	Iterations int       `json:"iterations"`
	Residual   float64   `json:"residual"`
	Converged  bool      `json:"converged"`
	Cache      string    `json:"cache"`   // "hit" or "miss" (binding cache)
	Batched    int       `json:"batched"` // requests coalesced into this epoch
	Worker     int       `json:"worker"`
	LatencyNS  int64     `json:"latency_ns"`
}

// SpMVRequest asks for y = A @ x.
type SpMVRequest struct {
	Matrix string    `json:"matrix"`
	Format string    `json:"format,omitempty"`
	X      []float64 `json:"x,omitempty"` // default all ones

	Meta RequestMeta `json:"-"`
}

// SpMVResponse is the outcome of a SpMVRequest.
type SpMVResponse struct {
	Y         []float64 `json:"y"`
	Cache     string    `json:"cache"`
	Batched   int       `json:"batched"`
	Worker    int       `json:"worker"`
	LatencyNS int64     `json:"latency_ns"`
}

// EigenRequest asks for the dominant eigenpair by power iteration.
type EigenRequest struct {
	Matrix string `json:"matrix"`
	Format string `json:"format,omitempty"`
	Iters  int    `json:"iters,omitempty"` // default 50
	Seed   uint64 `json:"seed,omitempty"`

	Meta RequestMeta `json:"-"`
}

// SetDefaults fills the request's defaults; every backend's Eigen
// applies it first.
func (r *EigenRequest) SetDefaults() {
	if r.Iters <= 0 {
		r.Iters = 50
	}
}

// EigenResponse is the outcome of an EigenRequest.
type EigenResponse struct {
	Eigenvalue float64   `json:"eigenvalue"`
	Vector     []float64 `json:"vector"`
	Cache      string    `json:"cache"`
	Worker     int       `json:"worker"`
	LatencyNS  int64     `json:"latency_ns"`
}

// UploadRequest registers (or replaces) a named matrix as COO triples.
// Re-uploading a name replaces it and invalidates every cached binding
// of the old contents.
type UploadRequest struct {
	Name string    `json:"name"`
	Rows int64     `json:"rows"`
	Cols int64     `json:"cols"`
	Row  []int64   `json:"row"`
	Col  []int64   `json:"col"`
	Val  []float64 `json:"val"`

	Meta RequestMeta `json:"-"`
}

// maxUploadDim bounds an uploaded matrix's rows and columns. Storage and
// every solver vector are O(dimension) whatever the entry count, so a
// declared dimension is a memory commitment that the size of the request
// body does not limit.
const maxUploadDim = 1 << 24

// Validate reports what makes the request unusable as a matrix
// definition — a missing name, a non-positive or oversized shape, ragged
// triple arrays, an index outside the shape — or nil. Every backend's
// Upload applies it before storing anything; duplicates and unsorted
// triples are fine (the store sums and sorts them once, on upload).
func (r *UploadRequest) Validate() error {
	if r.Name == "" || r.Rows <= 0 || r.Cols <= 0 {
		return fmt.Errorf("upload needs name and positive rows/cols")
	}
	if r.Rows > maxUploadDim || r.Cols > maxUploadDim {
		return fmt.Errorf("upload shape %dx%d exceeds the %d limit per dimension", r.Rows, r.Cols, maxUploadDim)
	}
	if len(r.Row) != len(r.Col) || len(r.Col) != len(r.Val) {
		return fmt.Errorf("row/col/val lengths differ")
	}
	for i := range r.Row {
		if r.Row[i] < 0 || r.Row[i] >= r.Rows || r.Col[i] < 0 || r.Col[i] >= r.Cols {
			return fmt.Errorf("triple %d out of bounds", i)
		}
	}
	return nil
}

// UploadResponse acknowledges an upload with the content fingerprint
// that keys every cross-request cache.
type UploadResponse struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	NNZ         int    `json:"nnz"`
}

// MatrixInfo is one row of the matrix listing.
type MatrixInfo struct {
	Name        string `json:"name"`
	Rows        int64  `json:"rows"`
	Cols        int64  `json:"cols"`
	NNZ         int    `json:"nnz"`
	Fingerprint string `json:"fingerprint"`
	Preset      string `json:"preset,omitempty"` // preset kind when materialized from one
	Revision    int64  `json:"revision"`
}

// Backend is the full engine surface a transport exposes. The
// single-process Engine implements it, the loopback transport wraps
// it, and the shard coordinator implements it over many Engines —
// which is exactly what lets every transport and test run unchanged
// against a sharded deployment.
type Backend interface {
	Solve(ctx context.Context, req *SolveRequest) (*SolveResponse, error)
	SpMV(ctx context.Context, req *SpMVRequest) (*SpMVResponse, error)
	Eigen(ctx context.Context, req *EigenRequest) (*EigenResponse, error)
	// Upload keeps none of the request's slices: the store holds
	// canonical copies of its own.
	Upload(ctx context.Context, req *UploadRequest) (*UploadResponse, error)

	Matrices() []MatrixInfo
	Metrics() MetricsSnapshot
	ProfileReport(class string) (*prof.Report, error)
	Health() HealthSnapshot

	Drain(timeout time.Duration) bool
	Close()
}
