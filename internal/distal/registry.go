package distal

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// OpKey identifies one kernel dispatch slot: the logical operation, the
// sparse operand's format, and the processor variety. Legate Sparse
// dispatches dynamically across this statically generated variant matrix
// (§5.1): the same SpMV has distinct entries for (CSR, CPU), (CSR, GPU),
// etc., and exactly one kernel per entry.
//
// The format is held in comparable form — its name tag and its level
// modes packed four bits each behind a leading 1, which keeps the arity
// — so building a key for a lookup formats nothing.
type OpKey struct {
	Op     string
	Format string // the format's name tag
	modes  uint64
	Target Target
}

func opKey(op string, format Format, target Target) OpKey {
	modes := uint64(1)
	for _, m := range format.Modes {
		modes = modes<<4 | uint64(m)
	}
	return OpKey{Op: op, Format: format.Name, modes: modes, Target: target}
}

func (k OpKey) String() string {
	var modes []Mode
	for m := k.modes; m > 1; m >>= 4 {
		modes = append([]Mode{Mode(m & 15)}, modes...)
	}
	return fmt.Sprintf("%s/%s/%v", k.Op, Format{Name: k.Format, Modes: modes}, k.Target)
}

// Registry holds generated kernels for dynamic dispatch: one way in
// (Register), one way out (Lookup/MustLookup). It doubles as the
// compiled-plan cache of a long-lived server: Lookup hits and misses
// are counted (lock-free) and reported by Stats.
type Registry struct {
	mu      sync.RWMutex
	kernels map[OpKey]*Kernel

	hits, misses atomic.Int64
}

// RegistryStats is a snapshot of a registry's plan-cache counters,
// reported by legate-serve's /metrics endpoint.
type RegistryStats struct {
	Hits     int64 `json:"hits"`     // Lookup found a compiled kernel
	Misses   int64 `json:"misses"`   // Lookup found nothing (caller fell back)
	Compiles int64 `json:"compiles"` // always 0: every kernel is compiled ahead of time
	Variants int   `json:"variants"` // kernels currently registered
}

// Stats returns a snapshot of the registry's plan-cache counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.RLock()
	n := len(r.kernels)
	r.mu.RUnlock()
	return RegistryStats{
		Hits:     r.hits.Load(),
		Misses:   r.misses.Load(),
		Variants: n,
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{kernels: map[OpKey]*Kernel{}}
}

// Register installs k under (op, format, k.Target), replacing any kernel
// already in that slot.
func (r *Registry) Register(op string, format Format, k *Kernel) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.kernels[opKey(op, format, k.Target)] = k
}

// Lookup finds the kernel for (op, format, target). The second result
// reports whether one exists; callers fall back to a slower path (or
// report the format conversion they must perform) when it does not —
// the cost the paper's third composition layer is about.
func (r *Registry) Lookup(op string, format Format, target Target) (*Kernel, bool) {
	r.mu.RLock()
	k, ok := r.kernels[opKey(op, format, target)]
	r.mu.RUnlock()
	if ok {
		r.hits.Add(1)
	} else {
		r.misses.Add(1)
	}
	return k, ok
}

// MustLookup is Lookup that panics on a missing kernel.
func (r *Registry) MustLookup(op string, format Format, target Target) *Kernel {
	k, ok := r.Lookup(op, format, target)
	if !ok {
		panic(fmt.Sprintf("distal: no kernel variant for %s/%s/%v", op, format, target))
	}
	return k
}

// Keys returns all registered dispatch keys, sorted, for inventory
// reporting and tests.
func (r *Registry) Keys() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.kernels))
	for k := range r.kernels {
		out = append(out, k.String())
	}
	sort.Strings(out)
	return out
}

// Standard is the global registry populated at package init with the
// DISTAL-generated kernels Legate Sparse's tensor-algebra operations
// dispatch into.
var Standard = NewRegistry()

func init() {
	GenerateStandardKernels(Standard)
}

// GenerateStandardKernels ahead-of-time compiles the kernel variants used
// by the sparse library: for each operation, one variant per processor
// variety, with the schedule of Figure 6 (divide the rows across
// processors, distribute, parallelize the local tile on the target).
func GenerateStandardKernels(reg *Registry) {
	i, j, k := IndexVar("i"), IndexVar("j"), IndexVar("k")
	io, ii := IndexVar("io"), IndexVar("ii")
	for _, target := range []Target{CPUThread, GPUThread} {
		sched := Schedule{}.
			Divide(i, io, ii).
			Distribute(io).
			Communicate(io).
			Parallelize(ii, target)

		reg.Register("spmv", CSR, MustCompile(Program{
			Name:    "spmv_csr",
			Compute: Assign{LHS: A("y", i), RHS: []Access{A("A", i, j), A("x", j)}},
			Formats: map[string]Format{
				"y": DenseVector, "A": CSR, "x": DenseVector,
			},
			Schedule: sched,
		}))

		// CSC SpMV: the matrix is stored compressed over columns, so the
		// generated kernel iterates columns and scatters into y. The
		// variant is filed under the CSC format tag — same logical op
		// ("spmv"), distinct format key, exactly the registry's dispatch
		// axis (§5.1).
		reg.Register("spmv", CSC, MustCompile(Program{
			Name:    "spmv_csc",
			Compute: Assign{LHS: A("y", j), RHS: []Access{A("A", i, j), A("x", i)}},
			Formats: map[string]Format{
				"y": DenseVector, "A": CSC, "x": DenseVector,
			},
			Schedule: sched,
		}))

		// COO SpMV: the entry space is divided across processors and each
		// stored entry scattered into y.
		reg.Register("spmv", COO, MustCompile(Program{
			Name:    "spmv_coo",
			Compute: Assign{LHS: A("y", i), RHS: []Access{A("A", i, j), A("x", j)}},
			Formats: map[string]Format{
				"y": DenseVector, "A": COO, "x": DenseVector,
			},
			Schedule: sched,
		}))

		// BSR SpMV: block rows divided like CSR rows, one dense tile per
		// stored block (the §5.4 extension formats DISTAL generates
		// kernels for).
		reg.Register("spmv", BSR, MustCompile(Program{
			Name:    "spmv_bsr",
			Compute: Assign{LHS: A("y", i), RHS: []Access{A("A", i, j), A("x", j)}},
			Formats: map[string]Format{
				"y": DenseVector, "A": BSR, "x": DenseVector,
			},
			Schedule: sched,
		}))

		reg.Register("spmv", DIA, MustCompile(Program{
			Name:    "spmv_dia",
			Compute: Assign{LHS: A("y", i), RHS: []Access{A("A", i, j), A("x", j)}},
			Formats: map[string]Format{
				"y": DenseVector, "A": DIA, "x": DenseVector,
			},
			Schedule: sched,
		}))

		reg.Register("spmm", CSR, MustCompile(Program{
			Name:    "spmm_csr",
			Compute: Assign{LHS: A("Y", i, k), RHS: []Access{A("A", i, j), A("X", j, k)}},
			Formats: map[string]Format{
				"Y": DenseMatrix, "A": CSR, "X": DenseMatrix,
			},
			Schedule: sched,
		}))

		reg.Register("sddmm", CSR, MustCompile(Program{
			Name:    "sddmm_csr",
			Compute: Assign{LHS: A("R", i, j), RHS: []Access{A("A", i, j), A("B", i, k), A("C", j, k)}},
			Formats: map[string]Format{
				"R": CSR, "A": CSR, "B": DenseMatrix, "C": DenseMatrix,
			},
			Schedule: sched,
		}))

		reg.Register("row_sum", CSR, MustCompile(Program{
			Name:    "row_sum_csr",
			Compute: Assign{LHS: A("y", i), RHS: []Access{A("A", i, j)}},
			Formats: map[string]Format{
				"y": DenseVector, "A": CSR,
			},
			Schedule: sched,
		}))
	}
}
