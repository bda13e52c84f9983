// Package petsc is the hand-tuned, explicitly-parallel baseline the
// paper compares against (§6): a rank-local sparse linear algebra
// library in the mold of PETSc's MatAIJ/VecScatter. Where Legate Sparse
// stores a sparse matrix as a set of global regions and derives
// communication dynamically from image partitions, this library does
// what PETSc does: each rank owns a contiguous block of rows and the
// matching vector slice, the ghost entries every rank needs are
// precomputed into a static scatter plan at assembly time, and the SpMV
// exchanges exactly those entries. There is no dynamic dependence
// analysis, no partition solving, and no Python-level dispatch — the
// per-operation overhead is a few microseconds of static C-like
// schedule, which is why PETSc's curves sit slightly above Legate's in
// Figures 8 and 9.
//
// Kernels execute real Go computation; simulated time accrues on
// per-rank timelines using the same machine cost model as the runtime,
// so the two systems are compared under identical hardware assumptions.
package petsc

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/machine"
	"repro/internal/seq"
	"repro/internal/solvers"
)

// Comm is the communicator: the set of ranks, their processor
// placement, and their simulated timelines.
type Comm struct {
	mach  *machine.Machine
	procs []machine.ProcID
	cost  *machine.CostModel
	busy  []time.Duration
	stats *machine.Stats
}

// NewComm creates a communicator over the given processors.
func NewComm(m *machine.Machine, procs []machine.ProcID) *Comm {
	return &Comm{
		mach:  m,
		procs: procs,
		cost:  m.Cost(),
		busy:  make([]time.Duration, len(procs)),
		stats: &machine.Stats{},
	}
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.procs) }

// Stats returns the communicator's data-movement counters.
func (c *Comm) Stats() *machine.Stats { return c.stats }

// SimTime returns the simulated wall-clock: the slowest rank's timeline.
func (c *Comm) SimTime() time.Duration {
	var t time.Duration
	for _, b := range c.busy {
		if b > t {
			t = b
		}
	}
	return t
}

// ResetMetrics zeroes the timelines and counters (after warmup).
func (c *Comm) ResetMetrics() {
	for i := range c.busy {
		c.busy[i] = 0
	}
	c.stats = &machine.Stats{}
}

// kind returns the processor kind of the ranks (homogeneous).
func (c *Comm) kind() machine.ProcKind { return c.mach.Proc(c.procs[0]).Kind }

// compute charges rank r with a kernel over elems elements.
func (c *Comm) compute(r int, class machine.OpClass, elems int64) {
	c.busy[r] += c.cost.PointOverhead + c.cost.KernelTime(c.kind(), class, elems)
}

// allReduce synchronizes all ranks and charges the reduction tree.
func (c *Comm) allReduce() {
	c.stats.AllReduces.Add(1)
	t := c.SimTime() + c.cost.AllReduceTime(len(c.procs))
	for i := range c.busy {
		c.busy[i] = t
	}
}

// transferAt charges a point-to-point message of n bytes to rank d,
// posted by rank s at time sendAt (its timeline position when the
// operation began — scatters of one operation are concurrent across
// ranks, so a receiver must not wait on the sender's *current-op*
// compute).
func (c *Comm) transferAt(sendAt time.Duration, s, d int, n int64) {
	if s == d || n == 0 {
		return
	}
	link := c.mach.Link(c.procs[s], c.procs[d])
	c.stats.AddCopy(link, n)
	arrive := sendAt
	if c.busy[d] > arrive {
		arrive = c.busy[d]
	}
	c.busy[d] = arrive + c.cost.CopyTime(link, n)
}

// ownerOf maps a global index to its owning rank under the block
// row distribution of length n.
func ownerOf(i, n int64, ranks int) int {
	base := n / int64(ranks)
	rem := n % int64(ranks)
	// First rem ranks own base+1 elements.
	cut := rem * (base + 1)
	if i < cut {
		return int(i / (base + 1))
	}
	return int(rem + (i-cut)/base)
}

// blockRange returns [lo, hi) of rank r's block of n elements.
func blockRange(n int64, ranks, r int) (int64, int64) {
	base := n / int64(ranks)
	rem := n % int64(ranks)
	lo := int64(r)*base + min64(int64(r), rem)
	sz := base
	if int64(r) < rem {
		sz++
	}
	return lo, lo + sz
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Vec is a distributed vector: each rank owns a contiguous slice.
type Vec struct {
	comm  *Comm
	n     int64
	local [][]float64
}

// NewVec creates a zero vector of length n.
func (c *Comm) NewVec(n int64) *Vec {
	v := &Vec{comm: c, n: n, local: make([][]float64, c.Size())}
	for r := range v.local {
		lo, hi := blockRange(n, c.Size(), r)
		v.local[r] = make([]float64, hi-lo)
	}
	return v
}

// VecFromSlice creates a vector holding data.
func (c *Comm) VecFromSlice(data []float64) *Vec {
	v := c.NewVec(int64(len(data)))
	for r := range v.local {
		lo, _ := blockRange(v.n, c.Size(), r)
		copy(v.local[r], data[lo:])
	}
	return v
}

// Len returns the global length.
func (v *Vec) Len() int64 { return v.n }

// ToSlice gathers the vector to the host.
func (v *Vec) ToSlice() []float64 {
	out := make([]float64, 0, v.n)
	for r := range v.local {
		out = append(out, v.local[r]...)
	}
	return out
}

// Set fills the vector with a constant.
func (v *Vec) Set(x float64) {
	for r := range v.local {
		for i := range v.local[r] {
			v.local[r][i] = x
		}
		v.comm.compute(r, machine.Stream, int64(len(v.local[r])))
	}
}

// Copy copies src into v.
func (v *Vec) Copy(src *Vec) {
	for r := range v.local {
		copy(v.local[r], src.local[r])
		v.comm.compute(r, machine.Stream, int64(len(v.local[r])))
	}
}

// AXPY computes v += a*x.
func (v *Vec) AXPY(a float64, x *Vec) {
	for r := range v.local {
		xr := x.local[r]
		for i := range v.local[r] {
			v.local[r][i] += a * xr[i]
		}
		v.comm.compute(r, machine.Stream, int64(len(v.local[r])))
	}
}

// AXPBY computes v = a*x + b*v (PETSc's VecAXPBY).
func (v *Vec) AXPBY(a, b float64, x *Vec) {
	for r := range v.local {
		xr := x.local[r]
		for i := range v.local[r] {
			v.local[r][i] = a*xr[i] + b*v.local[r][i]
		}
		v.comm.compute(r, machine.Stream, int64(len(v.local[r])))
	}
}

// Scale multiplies v by a.
func (v *Vec) Scale(a float64) {
	for r := range v.local {
		for i := range v.local[r] {
			v.local[r][i] *= a
		}
		v.comm.compute(r, machine.Stream, int64(len(v.local[r])))
	}
}

// Dot returns v · x, charging the all-reduce.
func (v *Vec) Dot(x *Vec) float64 {
	var s float64
	for r := range v.local {
		xr := x.local[r]
		var part float64
		for i := range v.local[r] {
			part += v.local[r][i] * xr[i]
		}
		s += part
		v.comm.compute(r, machine.Reduction, int64(len(v.local[r])))
	}
	v.comm.allReduce()
	return s
}

// Norm returns ||v||₂.
func (v *Vec) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// ghostSpec is one rank's receive plan: for each source rank, the
// global indices it needs.
type ghostSpec struct {
	src  int
	idxs []int64
}

// Mat is a distributed sparse matrix: each rank owns a block of rows
// stored as a local CSR with global column indices, plus the static
// scatter plan computed at assembly.
type Mat struct {
	comm       *Comm
	rows, cols int64
	indptr     [][]int64 // per rank, local row pointers
	indices    [][]int64 // per rank, global columns
	data       [][]float64
	plan       [][]ghostSpec // per rank receive plan
	nnz        []int64       // per rank
}

// MatFromCSR assembles a distributed matrix from a sequential CSR: rows
// are block-distributed and the communication plan (which remote x
// entries each rank's off-block columns reference) is computed once,
// like PETSc's MatAssembly + VecScatterCreate.
func MatFromCSR(c *Comm, a *seq.CSR) *Mat {
	ranks := c.Size()
	m := &Mat{
		comm: c, rows: a.Rows, cols: a.Cols,
		indptr:  make([][]int64, ranks),
		indices: make([][]int64, ranks),
		data:    make([][]float64, ranks),
		plan:    make([][]ghostSpec, ranks),
		nnz:     make([]int64, ranks),
	}
	for r := 0; r < ranks; r++ {
		lo, hi := blockRange(a.Rows, ranks, r)
		ip := make([]int64, hi-lo+1)
		var idx []int64
		var dat []float64
		needed := map[int64]bool{}
		xLo, xHi := blockRange(a.Cols, ranks, r)
		for i := lo; i < hi; i++ {
			for k := a.Indptr[i]; k < a.Indptr[i+1]; k++ {
				col := a.Indices[k]
				idx = append(idx, col)
				dat = append(dat, a.Data[k])
				if col < xLo || col >= xHi {
					needed[col] = true
				}
			}
			ip[i-lo+1] = int64(len(idx))
		}
		m.indptr[r] = ip
		m.indices[r] = idx
		m.data[r] = dat
		m.nnz[r] = int64(len(dat))

		// Group ghost indices by owning rank.
		bySrc := map[int][]int64{}
		for col := range needed {
			src := ownerOf(col, a.Cols, ranks)
			bySrc[src] = append(bySrc[src], col)
		}
		srcs := make([]int, 0, len(bySrc))
		for s := range bySrc {
			srcs = append(srcs, s)
		}
		sort.Ints(srcs)
		for _, s := range srcs {
			idxs := bySrc[s]
			sort.Slice(idxs, func(x, y int) bool { return idxs[x] < idxs[y] })
			m.plan[r] = append(m.plan[r], ghostSpec{src: s, idxs: idxs})
		}
	}
	return m
}

// NNZ returns the global number of stored entries.
func (m *Mat) NNZ() int64 {
	var t int64
	for _, n := range m.nnz {
		t += n
	}
	return t
}

// GhostBytes returns the total bytes one SpMV exchanges, for tests.
func (m *Mat) GhostBytes() int64 {
	var t int64
	for r := range m.plan {
		for _, g := range m.plan[r] {
			t += int64(len(g.idxs)) * 8
		}
	}
	return t
}

// Mult computes y = A x: each rank scatters in its ghost entries
// (charged point-to-point) and runs its local CSR kernel.
func (m *Mat) Mult(x, y *Vec) {
	if x.n != m.cols || y.n != m.rows {
		panic(fmt.Sprintf("petsc: Mult shape mismatch %dx%d with x[%d] y[%d]", m.rows, m.cols, x.n, y.n))
	}
	c := m.comm
	ranks := c.Size()
	// Snapshot every rank's timeline at the start of the operation: all
	// sends of this SpMV are posted then.
	sendAt := make([]time.Duration, ranks)
	copy(sendAt, c.busy)
	for r := 0; r < ranks; r++ {
		// Gather ghosts into a local map (real data through shared host
		// memory; modeled as messages on the machine links).
		ghost := map[int64]float64{}
		for _, g := range m.plan[r] {
			srcLo, _ := blockRange(x.n, ranks, g.src)
			for _, col := range g.idxs {
				ghost[col] = x.local[g.src][col-srcLo]
			}
			c.transferAt(sendAt[g.src], g.src, r, int64(len(g.idxs))*8)
		}
		xLo, xHi := blockRange(x.n, ranks, r)
		rowLo, _ := blockRange(m.rows, ranks, r)
		_ = rowLo
		ip, idx, dat := m.indptr[r], m.indices[r], m.data[r]
		yr := y.local[r]
		for i := range yr {
			var acc float64
			for k := ip[i]; k < ip[i+1]; k++ {
				col := idx[k]
				var xv float64
				if col >= xLo && col < xHi {
					xv = x.local[r][col-xLo]
				} else {
					xv = ghost[col]
				}
				acc += dat[k] * xv
			}
			yr[i] = acc
		}
		c.compute(r, machine.SparseIter, m.nnz[r])
	}
}

// CG solves SPD A x = b, mirroring PETSc's KSPCG: one SpMV and two
// all-reduced dots per iteration. The loop is solvers.PCGOn, without a
// preconditioner, on m's vectors, so the comparator runs the Legate
// series' recurrence op for op and differs only in how each operation
// executes and is charged.
func (m *Mat) CG(b *Vec, maxIter int, tol float64) (*Vec, []float64, bool) {
	res := solvers.PCGOn(vecSpace{m}, "cg", b, nil, maxIter, tol)
	return res.X, res.Residuals, res.Converged
}

// vecSpace is the solvers.Space of m's distributed vectors.
type vecSpace struct{ m *Mat }

func (s vecSpace) Zeros() *Vec                   { return s.m.comm.NewVec(s.m.rows) }
func (s vecSpace) Free(*Vec)                     {}
func (s vecSpace) Copy(dst, src *Vec)            { dst.Copy(src) }
func (s vecSpace) MatVec(dst, src *Vec)          { s.m.Mult(src, dst) }
func (s vecSpace) Dot(a, b *Vec) float64         { return a.Dot(b) }
func (s vecSpace) AXPY(alpha float64, x, y *Vec) { y.AXPY(alpha, x) }
func (s vecSpace) Scale(alpha float64, v *Vec)   { v.Scale(alpha) }
func (s vecSpace) Err() error                    { return nil }
func (s vecSpace) AXPBY(alpha float64, x *Vec, beta float64, y *Vec) {
	y.AXPBY(alpha, beta, x)
}
