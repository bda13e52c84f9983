// Package distal is a miniature reimplementation of the DISTAL sparse
// tensor algebra compiler [Yadav et al., PLDI'22 / SC'22] as used by
// Legate Sparse (§5.1): a DSL for declaring (1) the desired tensor
// computation in einsum form, (2) the sparse format of each operand, and
// (3) a schedule (divide / distribute / parallelize); Compile turns a
// program into an executable kernel.
//
// The real DISTAL emits C++/CUDA source ahead of time; here "generation"
// assembles Go closures from composable loop templates at init time.
// The architectural property the paper depends on is preserved: the
// performance-critical kernel variants for every (operation × format ×
// processor kind) combination are produced from a single high-level
// specification and registered for dynamic dispatch, instead of being
// hand-written one by one. Unsupported programs are rejected at compile
// time with descriptive errors, mirroring a real compiler front end.
package distal

import (
	"fmt"
	"strings"
)

// Mode is the kind of one storage level, in the level-format vocabulary
// of TACO/DISTAL (Chou et al.): how a level stores the coordinates of
// the tensor dimension its format's ordering assigns it.
type Mode int

const (
	// Dense levels are stored implicitly: every coordinate exists.
	Dense Mode = iota
	// Compressed levels store only nonzero coordinates (pos + crd arrays).
	Compressed
	// Singleton levels store exactly one coordinate per parent position;
	// paired with Compressed they express COO-style formats.
	Singleton
	// Diagonal levels store a band of dense diagonals identified by
	// offsets (SciPy's DIA format).
	Diagonal
	// Blocked levels are compressed over block coordinates, each stored
	// coordinate holding a dense BlockSize² tile (SciPy's BSR format),
	// the §5.4 extension class.
	Blocked
)

func (m Mode) String() string {
	switch m {
	case Dense:
		return "Dense"
	case Compressed:
		return "Compressed"
	case Singleton:
		return "Singleton"
	case Diagonal:
		return "Diagonal"
	case Blocked:
		return "Blocked"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Format is the storage description of a tensor after Chou et al.: a
// stack of level kinds, outermost first, plus the mode ordering that
// names the tensor dimension each level stores (nil: level l stores
// dimension l). CSR and CSC are one stack under orderings (0, 1) and
// (1, 0). Dispatch, compilation and Equal read only the stack and the
// ordering; Name is the label String prints.
type Format struct {
	Name     string
	Modes    []Mode
	Ordering []int
}

// Arity returns the number of tensor dimensions the format describes.
func (f Format) Arity() int { return len(f.Modes) }

// Dim returns the tensor dimension level l stores.
func (f Format) Dim(l int) int {
	if f.Ordering == nil {
		return l
	}
	return f.Ordering[l]
}

// Scatters reports whether a loop distributed over the format's outer
// level writes its output by scatter: the outer level is not dense over
// dimension 0 (CSC's columns, COO's entries), so two tiles can reach one
// output row.
func (f Format) Scatters() bool { return f.Modes[0] != Dense || f.Dim(0) != 0 }

func (f Format) String() string {
	parts := make([]string, len(f.Modes))
	for i, m := range f.Modes {
		parts[i] = m.String()
	}
	return f.Name + "{" + strings.Join(parts, ",") + "}"
}

// Equal reports whether two formats store a tensor the same way: the
// same level stack under the same ordering, whatever their names.
func (f Format) Equal(g Format) bool {
	if len(f.Modes) != len(g.Modes) {
		return false
	}
	for l := range f.Modes {
		if f.Modes[l] != g.Modes[l] || f.Dim(l) != g.Dim(l) {
			return false
		}
	}
	return true
}

// Common formats.
var (
	CSR = Format{Name: "CSR", Modes: []Mode{Dense, Compressed}}
	// CSC is CSR's stack with the dimensions swapped: the dense outer
	// level runs over columns.
	CSC = Format{Name: "CSC", Modes: []Mode{Dense, Compressed}, Ordering: []int{1, 0}}
	// COO stores parallel coordinate arrays: a compressed outer level
	// paired with a singleton level, TACO's canonical COO description.
	COO         = Format{Name: "COO", Modes: []Mode{Compressed, Singleton}}
	DIA         = Format{Name: "DIA", Modes: []Mode{Dense, Diagonal}}
	BSR         = Format{Name: "BSR", Modes: []Mode{Dense, Blocked}}
	DenseVector = Format{Name: "dense", Modes: []Mode{Dense}}
	DenseMatrix = Format{Name: "dense", Modes: []Mode{Dense, Dense}}
)

// IndexVar names an iteration variable in a tensor expression.
type IndexVar string

// Access is one tensor access A(i,j) in an expression.
type Access struct {
	Tensor string
	Vars   []IndexVar
}

// A builds an access.
func A(tensor string, vars ...IndexVar) Access {
	return Access{Tensor: tensor, Vars: vars}
}

func (a Access) String() string {
	vs := make([]string, len(a.Vars))
	for i, v := range a.Vars {
		vs[i] = string(v)
	}
	return fmt.Sprintf("%s(%s)", a.Tensor, strings.Join(vs, ","))
}

// Assign is the computation lhs = Π rhs, with summation implied over
// index variables appearing only on the right (einsum semantics).
// MulSparse marks element-wise multiplication under the sparse operand's
// nonzero pattern (the ⊙ of an SDDMM).
type Assign struct {
	LHS Access
	RHS []Access
}

func (s Assign) String() string {
	rs := make([]string, len(s.RHS))
	for i, r := range s.RHS {
		rs[i] = r.String()
	}
	return fmt.Sprintf("%s = %s", s.LHS, strings.Join(rs, " * "))
}

// Target is the processor variety a parallelize directive names.
type Target int

const (
	// CPUThread parallelizes across the threads of one CPU socket.
	CPUThread Target = iota
	// GPUThread parallelizes across GPU threads.
	GPUThread
)

func (t Target) String() string {
	if t == CPUThread {
		return "CPUThread"
	}
	return "GPUThread"
}

// Schedule is the ordered list of scheduling directives applied to a
// computation, mirroring Figure 6 of the paper:
//
//	y.schedule().divide(i, io, ii, procs).distribute(io).
//	    communicate(io, {y, A, x}).parallelize(ii, CPUThread)
type Schedule struct {
	directives []directive
}

type directive struct {
	kind    string // "divide", "distribute", "communicate", "parallelize"
	v       IndexVar
	outer   IndexVar
	inner   IndexVar
	target  Target
	tensors []string
}

// Divide splits v into outer and inner variables with pieces blocks.
func (s Schedule) Divide(v, outer, inner IndexVar) Schedule {
	s.directives = append(s.directives, directive{kind: "divide", v: v, outer: outer, inner: inner})
	return s
}

// Distribute maps the given variable's iterations onto processors.
func (s Schedule) Distribute(v IndexVar) Schedule {
	s.directives = append(s.directives, directive{kind: "distribute", v: v})
	return s
}

// Communicate declares which tensors must be materialized per iteration
// of v (the runtime's image constraints realize this).
func (s Schedule) Communicate(v IndexVar, tensors ...string) Schedule {
	s.directives = append(s.directives, directive{kind: "communicate", v: v, tensors: tensors})
	return s
}

// Parallelize maps v's iterations onto the threads of a processor.
func (s Schedule) Parallelize(v IndexVar, t Target) Schedule {
	s.directives = append(s.directives, directive{kind: "parallelize", v: v, target: t})
	return s
}

// Program is a complete kernel specification handed to Compile.
type Program struct {
	Name     string
	Compute  Assign
	Formats  map[string]Format
	Schedule Schedule
}
