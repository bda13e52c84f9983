// Package constraint implements the constraint-based parallelization
// layer of §4.1, modeled on Lee et al. [SC'19]: instead of naming the
// exact partitions a task should operate on, libraries declare *what
// regions* the task uses and *constraints* on how those regions must be
// partitioned:
//
//   - Align(a, b): the same tiling must be selected for a and b
//     (element-wise operations).
//   - Image(src, dst): dst's partition must be the image of src's chosen
//     partition through src's contents (range- or coordinate-valued).
//   - ImageBlocks and AlignBlocks: an image or an alignment of block
//     width w, each src element covering w consecutive dst elements.
//   - Broadcast(v): every point task sees the whole region.
//
// A solver picks concrete partitions at launch time. It prefers existing
// key partitions so that operations launched by different libraries reuse
// each other's data distributions — the paper's "partition reuse" — and
// derives image partitions for the dependent operands. Because every
// operation is expressed against this package, Legate Sparse and
// cuNumeric remain completely unaware of each other's implementations
// ("localization of operation definitions").
package constraint

import (
	"fmt"

	"repro/internal/legion"
	"repro/internal/machine"
)

// Var is a handle to one region requirement of a task being built.
type Var int

// vspec records a requirement and, after solve, its chosen partition.
type vspec struct {
	region *legion.Region
	priv   legion.Privilege

	broadcast bool
	explicit  *legion.Partition // UsePartition override
	imageSrc  Var               // >= 0 when derived from another var's partition
	width     int64             // block width of the imageSrc edge
	aligned   bool              // the imageSrc edge is an alignment, not an image

	// Set by solve. class is the union-find parent while alignment
	// classes are being merged and the class's first member afterwards;
	// part is nil until the var is resolved.
	class int
	part  *legion.Partition
}

// Task is a constraint-based task launcher, mirroring the Python API of
// the paper's Figure 4 (create_task / add_input / add_output /
// add_alignment_constraint / add_image_constraint / execute).
//
// The usual requirement and alignment counts fit in the task's own
// arrays, and nothing in the task points into the task itself, so a task
// built and executed in one function stays on that function's stack.
type Task struct {
	rt      *legion.Runtime
	name    string
	kernel  legion.KernelFunc
	points  int
	scalars [legion.MaxScalars]float64
	opClass machine.OpClass
	workVar Var
	workMul int64 // 0: the runtime's default work rule
	fusable bool

	nvars, naligns int
	varBuf         [6]vspec
	alignBuf       [4][2]Var
	moreVars       []vspec  // every var, once there are more than varBuf holds
	moreAligns     [][2]Var // every alignment, once past alignBuf
}

// NewTask begins building a task launch with the default launch domain
// (one point per runtime processor).
func NewTask(rt *legion.Runtime, name string, kernel legion.KernelFunc) *Task {
	return &Task{rt: rt, name: name, kernel: kernel, points: rt.LaunchDomain(), opClass: machine.Stream}
}

// vars returns the task's requirements in declaration order.
func (t *Task) vars() []vspec { return list(t.varBuf[:], t.nvars, t.moreVars) }

// aligns returns the task's alignment constraints in declaration order.
func (t *Task) aligns() [][2]Var { return list(t.alignBuf[:], t.naligns, t.moreAligns) }

// push stores v in buf, one of the task's own arrays, where *n counts
// the stored elements; once buf is full every element moves to *more.
// It returns v's index.
func push[T any](buf []T, n *int, more *[]T, v T) int {
	if *more == nil && *n < len(buf) {
		buf[*n] = v
		*n++
		return *n - 1
	}
	if *more == nil {
		*more = append(make([]T, 0, 2*len(buf)), buf...)
	}
	*more = append(*more, v)
	return len(*more) - 1
}

// list returns the elements push stored.
func list[T any](buf []T, n int, more []T) []T {
	if more != nil {
		return more
	}
	return buf[:n]
}

// SetScalars attaches up to legion.MaxScalars float64 arguments for the
// kernel (see legion.Launch.SetScalars).
func (t *Task) SetScalars(s ...float64) *Task {
	if len(s) > legion.MaxScalars {
		panic(fmt.Sprintf("constraint: task %q: %d scalars, at most %d", t.name, len(s), legion.MaxScalars))
	}
	copy(t.scalars[:], s)
	return t
}

// SetOpClass sets the cost-model class of the kernel.
func (t *Task) SetOpClass(c machine.OpClass) *Task { t.opClass = c; return t }

// SetWorkSource declares each point's work as factor times the size of
// v's subspace (see legion.Launch.SetWorkSource): the solver has already
// computed it, e.g. as the image a row block's nonzeros occupy in crd.
func (t *Task) SetWorkSource(v Var, factor int64) *Task {
	t.workVar, t.workMul = v, factor
	return t
}

// SetFusable marks the launch as eligible for the runtime's task-fusion
// window (see legion.Launch.SetFusable). Only data-parallel kernels whose
// point tasks touch nothing outside their declared subspaces qualify.
func (t *Task) SetFusable() *Task { t.fusable = true; return t }

func (t *Task) addVar(r *legion.Region, priv legion.Privilege) Var {
	return Var(push(t.varBuf[:], &t.nvars, &t.moreVars, vspec{region: r, priv: priv, imageSrc: -1}))
}

// AddOutput declares a region the task overwrites (write-discard).
func (t *Task) AddOutput(r *legion.Region) Var { return t.addVar(r, legion.WriteDiscard) }

// AddInput declares a region the task reads.
func (t *Task) AddInput(r *legion.Region) Var { return t.addVar(r, legion.ReadOnly) }

// AddInOut declares a region the task reads and writes.
func (t *Task) AddInOut(r *legion.Region) Var { return t.addVar(r, legion.ReadWrite) }

// AddReduction declares a region the task accumulates into with +.
func (t *Task) AddReduction(r *legion.Region) Var { return t.addVar(r, legion.ReduceSum) }

// Align constrains a and b to be partitioned identically
// (add_alignment_constraint in Figure 4).
func (t *Task) Align(a, b Var) *Task {
	push(t.alignBuf[:], &t.naligns, &t.moreAligns, [2]Var{a, b})
	return t
}

// Image constrains each dst's partition to be the image of src's chosen
// partition through src's contents (add_image_constraint in Figure 4).
// The image flavor follows src's element type: a RectType source region
// uses the by-range image (pos → crd/vals), an Int64 source uses the
// by-coordinate image (crd → x).
func (t *Task) Image(src Var, dsts ...Var) *Task { return t.ImageBlocks(src, 1, dsts...) }

// ImageBlocks is Image at block width w: every element src's contents
// name covers w consecutive elements of each dst (legion.Runtime.Image),
// as a BSR block coordinate covers bs columns of x.
func (t *Task) ImageBlocks(src Var, w int64, dsts ...Var) *Task {
	vars := t.vars()
	for _, d := range dsts {
		if vars[d].imageSrc >= 0 {
			panic(fmt.Sprintf("constraint: task %q: var %d already image-constrained", t.name, d))
		}
		vars[d].imageSrc, vars[d].width = src, w
	}
	return t
}

// AlignBlocks aligns dst to src at block width w: element i of src's
// partition covers dst's elements [i*w, i*w+w-1]. At w = 1 it is Align;
// a wider edge is directed, so dst takes src's partition, scaled, rather
// than joining its class.
func (t *Task) AlignBlocks(src, dst Var, w int64) *Task {
	if w == 1 {
		return t.Align(src, dst)
	}
	t.ImageBlocks(src, w, dst)
	t.vars()[dst].aligned = true
	return t
}

// Broadcast constrains v to be replicated whole to every point task.
func (t *Task) Broadcast(v Var) *Task {
	t.vars()[v].broadcast = true
	return t
}

// UsePartition pins v to a specific partition, bypassing the solver —
// the "first-class representation of data partitions" escape hatch that
// higher-level operations (e.g. multigrid restriction) use when they have
// computed a bespoke distribution.
func (t *Task) UsePartition(v Var, p *legion.Partition) *Task {
	vs := &t.vars()[v]
	if p.Region() != vs.region {
		panic(fmt.Sprintf("constraint: task %q: partition of %q pinned to var of %q",
			t.name, p.Region().Name(), vs.region.Name()))
	}
	vs.explicit = p
	return t
}

// Execute solves the constraints, builds the launch, and submits it,
// returning the launch's future.
func (t *Task) Execute() *legion.Future {
	t.solve()
	l := t.rt.NewLaunch(t.name, t.points, t.kernel)
	vars := t.vars()
	for i := range vars {
		v := &vars[i]
		l.Add(v.region, v.part, v.priv)
	}
	l.SetScalars(t.scalars[:]...)
	l.SetOpClass(t.opClass)
	if t.workMul != 0 {
		l.SetWorkSource(int(t.workVar), t.workMul)
	}
	l.SetFusable(t.fusable)
	return l.Execute()
}

// solve selects a concrete partition for every var. The algorithm
// follows §4.1's description:
//
//  1. Group vars into alignment classes (union-find over Align edges).
//  2. Classes with no incoming image constraint are roots. For each root
//     class the solver first looks for an existing key partition of one
//     of the class's regions with the right launch domain — preferring
//     the partition of the largest region, which re-partitions the least
//     data — and otherwise falls back to a fresh block partition.
//  3. Image-constrained vars are resolved in dependency order by
//     invoking the runtime's dependent-partitioning image operator on
//     the already-resolved source partition (a wide alignment edge, its
//     block-scaled copy).
//
// Every pass walks the vars in declaration order, and a class is
// identified by its first member, so the order in which classes obtain
// (and the runtime mints) partitions is a function of the task alone.
// The working state lives in the vars themselves: solve allocates
// nothing.
func (t *Task) solve() {
	vars := t.vars()
	for i := range vars {
		vars[i].class, vars[i].part = i, nil
	}
	// Union-find over alignment constraints, the smaller index as root.
	for _, ab := range t.aligns() {
		ra, rb := find(vars, int(ab[0])), find(vars, int(ab[1]))
		if ra > rb {
			ra, rb = rb, ra
		}
		vars[rb].class = ra
	}
	for i := range vars {
		vars[i].class = find(vars, i)
	}

	// Pass 1: explicit partitions and broadcasts pin their classes.
	for i := range vars {
		switch v := &vars[i]; {
		case v.explicit != nil:
			t.resolveClass(v.class, v.explicit)
		case v.broadcast:
			v.part = t.rt.BroadcastPartition(v.region, t.points)
		}
	}

	// Pass 2: root classes (no image constraint on any member).
	for i := range vars {
		if vars[i].class != i || vars[i].part != nil || t.classHasImage(i) {
			continue
		}
		t.resolveClass(i, t.pickRootPartition(i))
	}

	// Pass 3: image-constrained vars, iterating until fixpoint to honor
	// chains (pos -> crd -> x).
	for changed := true; changed; {
		changed = false
		for i := range vars {
			v := &vars[i]
			if v.part != nil || v.imageSrc < 0 {
				continue
			}
			src := &vars[v.imageSrc]
			if src.part == nil {
				continue
			}
			if v.aligned {
				t.resolveClass(v.class, t.rt.AlignedBlocks(src.part, v.region, v.width))
			} else {
				t.resolveClass(v.class, t.rt.Image(src.region, src.part, v.region, v.width))
			}
			changed = true
		}
	}

	for i := range vars {
		if vars[i].part == nil {
			panic(fmt.Sprintf("constraint: task %q: unsolvable constraints for var %d (image cycle?)", t.name, i))
		}
	}
}

// find returns the root of x's alignment class.
func find(vars []vspec, x int) int {
	for vars[x].class != x {
		x = vars[x].class
	}
	return x
}

// resolveClass resolves the class whose first member is root given the
// subspace-defining partition of its anchor region, propagating it onto
// every aligned region.
func (t *Task) resolveClass(root int, anchor *legion.Partition) {
	vars := t.vars()
	for i := root; i < len(vars); i++ {
		if v := &vars[i]; v.class == root {
			v.part = t.rt.AlignedPartition(anchor, v.region)
		}
	}
}

// classHasImage reports whether any member of the class is the
// destination of an image or wide alignment edge.
func (t *Task) classHasImage(root int) bool {
	vars := t.vars()
	for i := root; i < len(vars); i++ {
		if vars[i].class == root && vars[i].imageSrc >= 0 {
			return true
		}
	}
	return false
}

// pickRootPartition chooses the subspace-defining partition for an
// unconstrained alignment class: reuse the key partition of the largest
// member region when its launch domain matches (keeping the most data in
// place). Otherwise it tiles the *oldest* region of the class into
// blocks: anchoring on a long-lived region (a sparse matrix's pos rather
// than this iteration's fresh output vector) keeps the chosen partition
// object stable across iterations, so downstream image partitions stay
// cached — the steady-state reuse of Figure 5.
func (t *Task) pickRootPartition(root int) *legion.Partition {
	var best *legion.Partition
	var bestSize int64 = -1
	vars := t.vars()
	anchor := vars[root].region
	for i := root; i < len(vars); i++ {
		if vars[i].class != root {
			continue
		}
		r := vars[i].region
		if kp := r.KeyPartition(); kp != nil && kp.Colors() == t.points && kp.Disjoint() {
			if r.Size() > bestSize {
				best, bestSize = kp, r.Size()
			}
		}
		if r.ID() < anchor.ID() {
			anchor = r
		}
	}
	if best != nil {
		return best
	}
	return t.rt.BlockPartition(anchor, t.points)
}
