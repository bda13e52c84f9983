// Package legion is a miniature reimplementation of the programming model
// of the Legion runtime system [Bauer et al., SC'12] that Legate Sparse
// and cuNumeric are built on. It provides:
//
//   - Regions: long-lived one-dimensional typed arrays, the backing store
//     for both cuNumeric's distributed arrays and Legate Sparse's sparse
//     matrices (paper §2.2, §3).
//   - First-class Partitions of regions into (possibly aliased,
//     possibly incomplete) sub-regions, including the dependent
//     partitioning *image* operator for both range-valued and
//     coordinate-valued source regions (paper Figure 2).
//   - Tasks launched as index launches over partitions with declared
//     privileges (read / write / read-write / reduce), from which the
//     runtime dynamically extracts dependencies, preserving the
//     sequential semantics of the issuing program while executing
//     independent launches in parallel.
//   - A mapper with a shared allocation store, allocation reuse and
//     coalescing, and directory-style validity tracking that models the
//     data movement a distributed execution would perform (paper §4.2,
//     §4.3); the modeled copies and task durations drive a simulated
//     clock so weak-scaling behaviour can be measured without a cluster.
//
// Point tasks execute real Go kernels on a goroutine per simulated
// processor, so all numerical results are real; only *time* is modeled.
package legion

import (
	"fmt"

	"repro/internal/geometry"
)

// FieldType enumerates the element types a Region can hold. Sparse matrix
// formats need ranges (the pos array of Figure 3 stores a tuple
// [lo, hi] per row), coordinates (int64), and values (float64).
type FieldType int

const (
	Float64 FieldType = iota
	Int64
	RectType // geometry.Rect entries, used by CSR/CSC pos regions
)

func (t FieldType) String() string {
	switch t {
	case Float64:
		return "float64"
	case Int64:
		return "int64"
	case RectType:
		return "rect"
	default:
		return fmt.Sprintf("FieldType(%d)", int(t))
	}
}

// ElemSize returns the storage size of one element in bytes, used by the
// mapper to convert index counts into modeled bytes.
func (t FieldType) ElemSize() int64 {
	switch t {
	case Float64, Int64:
		return 8
	case RectType:
		return 16
	default:
		panic("legion: unknown field type")
	}
}

// RegionID uniquely identifies a region within one runtime.
type RegionID int64

// Region is a one-dimensional typed array managed by the runtime. The
// element data lives in exactly one of the typed slices according to Typ.
// Regions must only be mutated through tasks (or before any task has
// consumed them); the runtime's dependence analysis is keyed on task
// region requirements.
type Region struct {
	rt   *Runtime
	id   RegionID
	name string
	typ  FieldType
	size int64

	f64  []float64
	i64  []int64
	rect []geometry.Rect

	// version is bumped on every write launch; image partitions cache on
	// (source region, version) so that reused partitions are free in the
	// steady state, as in the paper's Figure 5 example.
	version int64

	// keyPartition tracks the most recent partition used to write this
	// region (cuNumeric's "key partition" heuristic, §2.3); the
	// constraint solver prefers it when choosing partitions.
	keyPartition *Partition

	// coh is the mapper's validity directory entry for the region (see
	// coherence); nil once the region is destroyed.
	coh *coherence

	destroyed bool
}

// CreateRegion allocates a region of size elements of the given type.
// The name appears in debugging output and profiles only.
func (rt *Runtime) CreateRegion(name string, size int64, typ FieldType) *Region {
	return rt.createRegion(name, size, typ, true)
}

// createRegion is CreateRegion; zero false leaves reused float64 storage
// uncleared, for a caller that overwrites every element.
func (rt *Runtime) createRegion(name string, size int64, typ FieldType, zero bool) *Region {
	if size < 0 {
		panic(fmt.Sprintf("legion: negative region size %d", size))
	}
	r := &Region{rt: rt, name: name, typ: typ, size: size}
	switch typ {
	case Float64:
		r.f64 = rt.newFloat64s(size, zero)
	case Int64:
		r.i64 = make([]int64, size)
	case RectType:
		r.rect = make([]geometry.Rect, size)
	}
	rt.mu.Lock()
	rt.nextRegion++
	r.id = rt.nextRegion
	rt.regions[r.id] = newRegionState()
	rt.mu.Unlock()
	rt.map_.regionCreated(r)
	return r
}

// CreateFloat64 wraps CreateRegion and copies data into the new region.
// The region is initially valid in host memory; processors pay a copy the
// first time they read it, like attaching external data in Legion.
func (rt *Runtime) CreateFloat64(name string, data []float64) *Region {
	r := rt.createRegion(name, int64(len(data)), Float64, false)
	copy(r.f64, data)
	return r
}

// CreateInt64 wraps CreateRegion and copies data into the new region.
func (rt *Runtime) CreateInt64(name string, data []int64) *Region {
	r := rt.CreateRegion(name, int64(len(data)), Int64)
	copy(r.i64, data)
	return r
}

// CreateRects wraps CreateRegion and copies range data into the new
// region; this is how pos regions of CSR/CSC matrices are built (Fig 3).
func (rt *Runtime) CreateRects(name string, data []geometry.Rect) *Region {
	r := rt.CreateRegion(name, int64(len(data)), RectType)
	copy(r.rect, data)
	return r
}

// ID returns the region's runtime-unique identifier.
func (r *Region) ID() RegionID { return r.id }

// Name returns the debugging name given at creation.
func (r *Region) Name() string { return r.name }

// Size returns the number of elements in the region's index space.
func (r *Region) Size() int64 { return r.size }

// Type returns the region's element type.
func (r *Region) Type() FieldType { return r.typ }

// Bytes returns the total storage the region occupies.
func (r *Region) Bytes() int64 { return r.size * r.typ.ElemSize() }

// Domain returns the region's full index space [0, size-1].
func (r *Region) Domain() geometry.Rect {
	if r.size == 0 {
		return geometry.EmptyRect
	}
	return geometry.NewRect(0, r.size-1)
}

// Runtime returns the runtime that owns this region.
func (r *Region) Runtime() *Runtime { return r.rt }

// KeyPartition returns the latest partition used to write the region, or
// nil if the region has never been written through a partition.
func (r *Region) KeyPartition() *Partition { return r.keyPartition }

// Version returns the region's write version; it increases every time a
// task writes the region, and invalidates cached image partitions.
func (r *Region) Version() int64 { return r.version }

// Float64s returns the region's backing float64 slice. It must only be
// used outside tasks after a Fence (or before any task has touched the
// region); kernels receive slices through their TaskContext instead. The
// slice is invalid once the region is destroyed: the runtime reuses the
// storage for later regions and snapshots.
func (r *Region) Float64s() []float64 { r.checkType(Float64); return r.f64 }

// Int64s returns the region's backing int64 slice (see Float64s; it too
// is invalid after Destroy).
func (r *Region) Int64s() []int64 { r.checkType(Int64); return r.i64 }

// Rects returns the region's backing rect slice (see Float64s; it too is
// invalid after Destroy).
func (r *Region) Rects() []geometry.Rect { r.checkType(RectType); return r.rect }

func (r *Region) checkType(t FieldType) {
	if r.typ != t {
		panic(fmt.Sprintf("legion: region %q holds %v, accessed as %v", r.name, r.typ, t))
	}
}

func (r *Region) String() string {
	return fmt.Sprintf("Region(%q, %d x %v)", r.name, r.size, r.typ)
}
