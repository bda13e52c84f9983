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

// vspec records a requirement before solving.
type vspec struct {
	region *legion.Region
	priv   legion.Privilege

	broadcast bool
	explicit  *legion.Partition // UsePartition override
	imageSrc  Var               // >= 0 when constrained as an image destination
	class     int               // union-find alignment class, set during solve
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
	workFn  func(point int) int64
	fusable bool
}

// NewTask begins building a task launch with the default launch domain
// (one point per runtime processor).
func NewTask(rt *legion.Runtime, name string, kernel legion.KernelFunc) *Task {
	return &Task{rt: rt, name: name, kernel: kernel, points: rt.LaunchDomain(), opClass: machine.Stream}
}

// SetPoints overrides the launch-domain size.
func (t *Task) SetPoints(n int) *Task { t.points = n; return t }

// SetArgs attaches by-value arguments for the kernel.
func (t *Task) SetArgs(a any) *Task { t.args = a; return t }

// SetOpClass sets the cost-model class of the kernel.
func (t *Task) SetOpClass(c machine.OpClass) *Task { t.opClass = c; return t }

// SetWork installs an explicit per-point work estimate.
func (t *Task) SetWork(f func(point int) int64) *Task { t.workFn = f; return t }

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
	parts := t.solve()
	l := t.rt.NewLaunch(t.name, t.points, t.kernel)
	for i, v := range t.vars {
		if parts[i] == nil {
			l.AddWhole(v.region, v.priv)
		} else {
			l.Add(v.region, parts[i], v.priv)
		}
	}
	if t.args != nil {
		l.SetArgs(t.args)
	}
	l.SetOpClass(t.opClass)
	if t.workFn != nil {
		l.SetWork(t.workFn)
	}
	l.SetFusable(t.fusable)
	return l.Execute()
}

// solve selects a concrete partition for every var (nil meaning
// whole-region). The algorithm follows §4.1's description:
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
func (t *Task) solve() []*legion.Partition {
	n := len(t.vars)
	// Union-find over alignment constraints.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, ab := range t.aligns {
		ra, rb := find(int(ab[0])), find(int(ab[1]))
		if ra != rb {
			parent[ra] = rb
		}
	}
	classVars := map[int][]int{}
	for i := range t.vars {
		classVars[find(i)] = append(classVars[find(i)], i)
	}

	parts := make([]*legion.Partition, n)
	resolved := make([]bool, n)

	// Resolve one class given the subspace-defining partition of its
	// anchor region, propagating onto every aligned region.
	resolveClass := func(root int, anchor *legion.Partition) {
		for _, i := range classVars[root] {
			parts[i] = t.rt.AlignedPartition(anchor, t.vars[i].region)
			resolved[i] = true
		}
	}

	// Pass 1: explicit partitions and broadcasts pin their classes.
	for i, v := range t.vars {
		root := find(i)
		switch {
		case v.explicit != nil:
			resolveClass(root, v.explicit)
		case v.broadcast:
			parts[i] = t.rt.BroadcastPartition(v.region, t.points)
			resolved[i] = true
		}
	}

	// Pass 2: root classes (no image constraint on any member).
	for root, vars := range classVars {
		if resolved[vars[0]] {
			continue
		}
		hasImage := false
		for _, i := range vars {
			if t.vars[i].imageSrc >= 0 {
				hasImage = true
			}
		}
		if hasImage {
			continue
		}
		resolveClass(root, t.pickRootPartition(vars))
	}

	// Pass 3: image-constrained vars, iterating until fixpoint to honor
	// chains (pos -> crd -> x).
	for changed := true; changed; {
		changed = false
		for i, v := range t.vars {
			if resolved[i] || v.imageSrc < 0 {
				continue
			}
			src := int(v.imageSrc)
			if !resolved[src] {
				continue
			}
			srcPart := parts[src]
			if srcPart == nil {
				panic(fmt.Sprintf("constraint: task %q: image from whole-region var", t.name))
			}
			var img *legion.Partition
			switch t.vars[src].region.Type() {
			case legion.RectType:
				img = t.rt.ImageRange(t.vars[src].region, srcPart, v.region)
			case legion.Int64:
				img = t.rt.ImageCoord(t.vars[src].region, srcPart, v.region)
			default:
				panic(fmt.Sprintf("constraint: task %q: image source %q has type %v",
					t.name, t.vars[src].region.Name(), t.vars[src].region.Type()))
			}
			resolveClass(find(i), img)
			changed = true
		}
	}

	for i := range t.vars {
		if !resolved[i] {
			panic(fmt.Sprintf("constraint: task %q: unsolvable constraints for var %d (image cycle?)", t.name, i))
		}
	}
	return parts
}

// pickRootPartition chooses the subspace-defining partition for an
// unconstrained alignment class: reuse the key partition of the largest
// member region when its launch domain matches (keeping the most data in
// place). Otherwise it tiles the *oldest* region of the class into
// blocks: anchoring on a long-lived region (a sparse matrix's pos rather
// than this iteration's fresh output vector) keeps the chosen partition
// object stable across iterations, so downstream image partitions stay
// cached — the steady-state reuse of Figure 5.
func (t *Task) pickRootPartition(vars []int) *legion.Partition {
	var best *legion.Partition
	var bestSize int64 = -1
	for _, i := range vars {
		r := t.vars[i].region
		if kp := r.KeyPartition(); kp != nil && kp.Colors() == t.points && kp.Disjoint() {
			if r.Size() > bestSize {
				best, bestSize = kp, r.Size()
			}
		}
	}
	if best != nil {
		return best
	}
	anchor := t.vars[vars[0]].region
	for _, i := range vars[1:] {
		if r := t.vars[i].region; r.ID() < anchor.ID() {
			anchor = r
		}
	}
	return t.rt.BlockPartition(anchor, t.points)
}
