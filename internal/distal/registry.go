package distal

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// OpKey identifies one kernel dispatch slot: the logical operation, the
// sparse operand's format, and the processor variety. Legate Sparse
// dispatches dynamically across this statically generated variant matrix
// (§5.1): the same SpMV has distinct entries for (CSR, CPU), (CSR, GPU),
// etc., and exactly one kernel per entry.
//
// The format enters as its level stack and ordering, packed one byte per
// level (kind<<4 | dimension) behind a leading 1 that keeps the level
// count, so building a key formats and allocates nothing. The format's
// name is not part of it.
type OpKey struct {
	Op     string
	levels uint64
	Target Target
}

func opKey(op string, format Format, target Target) OpKey {
	levels := uint64(1)
	for l, m := range format.Modes {
		levels = levels<<8 | uint64(m)<<4 | uint64(format.Dim(l))
	}
	return OpKey{Op: op, levels: levels, Target: target}
}

// Registry holds generated kernels for dynamic dispatch: one way in
// (Register), one way out (Lookup/MustLookup). It doubles as the
// compiled-plan cache of a long-lived server: Lookup hits and misses
// are counted (lock-free) and reported by Stats.
type Registry struct {
	mu      sync.RWMutex
	kernels map[OpKey]slot

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

// slot is one dispatch entry; format is kept for Keys' listing only.
type slot struct {
	k      *Kernel
	format Format
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{kernels: map[OpKey]slot{}}
}

// Register installs k under (op, format, k.Target), replacing any kernel
// already in that slot.
func (r *Registry) Register(op string, format Format, k *Kernel) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.kernels[opKey(op, format, k.Target)] = slot{k: k, format: format}
}

// registerAll files one compiled kernel under every target: no loop
// nest reads the target, so each slot holds a copy differing only in
// Target.
func (r *Registry) registerAll(op string, format Format, k *Kernel) {
	for _, t := range []Target{CPUThread, GPUThread} {
		kt := *k
		kt.Target = t
		r.Register(op, format, &kt)
	}
}

// Lookup finds the kernel for (op, format, target). The second result
// reports whether one exists; callers fall back to a slower path (or
// report the format conversion they must perform) when it does not —
// the cost the paper's third composition layer is about.
func (r *Registry) Lookup(op string, format Format, target Target) (*Kernel, bool) {
	r.mu.RLock()
	s, ok := r.kernels[opKey(op, format, target)]
	r.mu.RUnlock()
	if ok {
		r.hits.Add(1)
	} else {
		r.misses.Add(1)
	}
	return s.k, ok
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
	for k, s := range r.kernels {
		out = append(out, fmt.Sprintf("%s/%v/%v", k.Op, s.format, k.Target))
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
// by the sparse library with the schedule of Figure 6 (divide the rows
// across processors, distribute): one compile per (operation, format),
// filed under every processor variety.
func GenerateStandardKernels(reg *Registry) {
	i, j, k := IndexVar("i"), IndexVar("j"), IndexVar("k")
	io, ii := IndexVar("io"), IndexVar("ii")
	sched := Schedule{}.Divide(i, io, ii).Distribute(io).Communicate(io)

	// One SpMV statement for every sparse format; A's level stack and
	// ordering pick the loop nest (see spmvNest).
	for _, f := range []Format{CSR, CSC, COO, BSR, DIA} {
		reg.registerAll("spmv", f, MustCompile(Program{
			Name:     "spmv_" + strings.ToLower(f.Name),
			Compute:  Assign{LHS: A("y", i), RHS: []Access{A("A", i, j), A("x", j)}},
			Formats:  map[string]Format{"y": DenseVector, "A": f, "x": DenseVector},
			Schedule: sched,
		}))
	}

	reg.registerAll("spmm", CSR, MustCompile(Program{
		Name:    "spmm_csr",
		Compute: Assign{LHS: A("Y", i, k), RHS: []Access{A("A", i, j), A("X", j, k)}},
		Formats: map[string]Format{
			"Y": DenseMatrix, "A": CSR, "X": DenseMatrix,
		},
		Schedule: sched,
	}))

	reg.registerAll("sddmm", CSR, MustCompile(Program{
		Name:    "sddmm_csr",
		Compute: Assign{LHS: A("R", i, j), RHS: []Access{A("A", i, j), A("B", i, k), A("C", j, k)}},
		Formats: map[string]Format{
			"R": CSR, "A": CSR, "B": DenseMatrix, "C": DenseMatrix,
		},
		Schedule: sched,
	}))

	reg.registerAll("row_sum", CSR, MustCompile(Program{
		Name:    "row_sum_csr",
		Compute: Assign{LHS: A("y", i), RHS: []Access{A("A", i, j)}},
		Formats: map[string]Format{
			"y": DenseVector, "A": CSR,
		},
		Schedule: sched,
	}))
}
