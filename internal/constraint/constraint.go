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
	imageSrc  Var               // >= 0 when constrained as an image destination

	// Set by solve. class is the union-find parent while alignment
	// classes are being merged and the class's first member afterwards;
	// part is nil until the var is resolved.
	class int
	part  *legion.Partition
}

// Task is a constraint-based task launcher, mirroring the Python API of
// the paper's Figure 4 (create_task / add_input / add_output /
// add_alignment_constraint / add_image_constraint / execute).
type Task struct {
	rt      *legion.Runtime
	name    string
	kernel  legion.KernelFunc
	points  int
	vars    []vspec
	aligns  [][2]Var
	args    any
	opClass machine.OpClass
	workVar Var
	workMul int64 // 0: the runtime's default work rule
	fusable bool

	// Backing arrays for the usual requirement and alignment counts:
	// building a task is one allocation.
	varBuf   [6]vspec
	alignBuf [4][2]Var
}

// NewTask begins building a task launch with the default launch domain
// (one point per runtime processor).
func NewTask(rt *legion.Runtime, name string, kernel legion.KernelFunc) *Task {
	t := &Task{rt: rt, name: name, kernel: kernel, points: rt.LaunchDomain(), opClass: machine.Stream}
	t.vars, t.aligns = t.varBuf[:0], t.alignBuf[:0]
	return t
}

// SetPoints overrides the launch-domain size.
func (t *Task) SetPoints(n int) *Task { t.points = n; return t }

// SetArgs attaches by-value arguments for the kernel.
func (t *Task) SetArgs(a any) *Task { t.args = a; return t }

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
	t.vars = append(t.vars, vspec{region: r, priv: priv, imageSrc: -1})
	return Var(len(t.vars) - 1)
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
	t.aligns = append(t.aligns, [2]Var{a, b})
	return t
}

// Image constrains each dst's partition to be the image of src's chosen
// partition through src's contents (add_image_constraint in Figure 4).
// The image flavor follows src's element type: a RectType source region
// uses the by-range image (pos → crd/vals), an Int64 source uses the
// by-coordinate image (crd → x).
func (t *Task) Image(src Var, dsts ...Var) *Task {
	for _, d := range dsts {
		if t.vars[d].imageSrc >= 0 {
			panic(fmt.Sprintf("constraint: task %q: var %d already image-constrained", t.name, d))
		}
		t.vars[d].imageSrc = src
	}
	return t
}

// Broadcast constrains v to be replicated whole to every point task.
func (t *Task) Broadcast(v Var) *Task {
	t.vars[v].broadcast = true
	return t
}

// UsePartition pins v to a specific partition, bypassing the solver —
// the "first-class representation of data partitions" escape hatch that
// higher-level operations (e.g. multigrid restriction) use when they have
// computed a bespoke distribution.
func (t *Task) UsePartition(v Var, p *legion.Partition) *Task {
	if p.Region() != t.vars[v].region {
		panic(fmt.Sprintf("constraint: task %q: partition of %q pinned to var of %q",
			t.name, p.Region().Name(), t.vars[v].region.Name()))
	}
	t.vars[v].explicit = p
	return t
}

// Execute solves the constraints, builds the launch, and submits it,
// returning the launch's future.
func (t *Task) Execute() *legion.Future {
	t.solve()
	l := t.rt.NewLaunch(t.name, t.points, t.kernel)
	for i := range t.vars {
		v := &t.vars[i]
		l.Add(v.region, v.part, v.priv)
	}
	if t.args != nil {
		l.SetArgs(t.args)
	}
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
//     the already-resolved source partition.
//
// Every pass walks the vars in declaration order, and a class is
// identified by its first member, so the order in which classes obtain
// (and the runtime mints) partitions is a function of the task alone.
// The working state lives in the vars themselves: solve allocates
// nothing.
func (t *Task) solve() {
	vars := t.vars
	for i := range vars {
		vars[i].class, vars[i].part = i, nil
	}
	// Union-find over alignment constraints, the smaller index as root.
	for _, ab := range t.aligns {
		ra, rb := t.find(int(ab[0])), t.find(int(ab[1]))
		if ra > rb {
			ra, rb = rb, ra
		}
		vars[rb].class = ra
	}
	for i := range vars {
		vars[i].class = t.find(i)
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
			var img *legion.Partition
			switch src.region.Type() {
			case legion.RectType:
				img = t.rt.ImageRange(src.region, src.part, v.region)
			case legion.Int64:
				img = t.rt.ImageCoord(src.region, src.part, v.region)
			default:
				panic(fmt.Sprintf("constraint: task %q: image source %q has type %v",
					t.name, src.region.Name(), src.region.Type()))
			}
			t.resolveClass(v.class, img)
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
func (t *Task) find(x int) int {
	for t.vars[x].class != x {
		x = t.vars[x].class
	}
	return x
}

// resolveClass resolves the class whose first member is root given the
// subspace-defining partition of its anchor region, propagating it onto
// every aligned region.
func (t *Task) resolveClass(root int, anchor *legion.Partition) {
	for i := root; i < len(t.vars); i++ {
		if v := &t.vars[i]; v.class == root {
			v.part = t.rt.AlignedPartition(anchor, v.region)
		}
	}
}

// classHasImage reports whether any member of the class is the
// destination of an image constraint.
func (t *Task) classHasImage(root int) bool {
	for i := root; i < len(t.vars); i++ {
		if t.vars[i].class == root && t.vars[i].imageSrc >= 0 {
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
	anchor := t.vars[root].region
	for i := root; i < len(t.vars); i++ {
		if t.vars[i].class != root {
			continue
		}
		r := t.vars[i].region
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
