package legion

import (
	"fmt"

	"repro/internal/geometry"
)

// Partition is a first-class mapping from a set of colors (point-task
// indices) to subsets of a region's index space (paper §2.2). Partitions
// need not be disjoint nor complete: image partitions of a dense vector
// through a crd region are typically aliased (Figure 2b), and partitions
// of padded regions may not cover every index.
type Partition struct {
	// coloring names the subspaces rather than the object: two
	// partitions with one coloring subdivide same-size regions
	// identically. It is what the image caches key their source on (see
	// DESIGN.md, "Cross-region image-set cache").
	coloring  int64
	region    *Region
	subspaces []geometry.IntervalSet
	disjoint  bool
	kind      string // "block", "rects", "image-range", "image-coord", "explicit"
}

// Region returns the region this partition subdivides.
func (p *Partition) Region() *Region { return p.region }

// Colors returns the number of sub-regions in the partition.
func (p *Partition) Colors() int { return len(p.subspaces) }

// Subspace returns the index set of color c.
func (p *Partition) Subspace(c int) geometry.IntervalSet { return p.subspaces[c] }

// Disjoint reports whether the partition's sub-regions are pairwise
// disjoint. Disjoint partitions may be written through; aliased
// partitions are read-only (the runtime enforces this at launch).
func (p *Partition) Disjoint() bool { return p.disjoint }

// Kind returns how the partition was constructed, for debugging.
func (p *Partition) Kind() string { return p.kind }

func (p *Partition) String() string {
	return fmt.Sprintf("Partition(%s of %s, %d colors, disjoint=%v)",
		p.kind, p.region.name, len(p.subspaces), p.disjoint)
}

// newPartition mints a partition whose subspaces no other partition is
// known to share: it gets a coloring of its own.
func (rt *Runtime) newPartition(r *Region, subs []geometry.IntervalSet, disjoint bool, kind string) *Partition {
	rt.mu.Lock()
	c := rt.newColoringLocked()
	rt.mu.Unlock()
	return &Partition{coloring: c, region: r, subspaces: subs, disjoint: disjoint, kind: kind}
}

// newColoringLocked returns a coloring no partition carries yet. Caller
// holds rt.mu.
func (rt *Runtime) newColoringLocked() int64 {
	rt.nextColoring++
	return rt.nextColoring
}

// BlockPartition tiles the region's index space into colors contiguous,
// nearly equal blocks — the default "tiling" that cuNumeric and Legate
// Sparse select for the anchor regions of an operation (Figure 5:
// "Tile x1 and pos"). Block partitions are cached per (region, colors):
// repeated launches reuse the same first-class partition object, which in
// turn lets image-partition caching hit across iterations of a solver
// loop, exactly the partition reuse the paper's Figure 5 shows.
func (rt *Runtime) BlockPartition(r *Region, colors int) *Partition {
	key := partCacheKey{region: r.id, colors: colors, broadcast: false}
	rt.mu.Lock()
	if p, ok := rt.partCache[key]; ok {
		rt.cacheStats.PartHits++
		rt.mu.Unlock()
		return p
	}
	rt.cacheStats.PartMisses++
	rt.mu.Unlock()
	rects := geometry.Tile(r.Domain(), colors)
	subs := make([]geometry.IntervalSet, colors)
	for c, rect := range rects {
		subs[c] = geometry.NewIntervalSet(rect)
	}
	p := &Partition{region: r, subspaces: subs, disjoint: true, kind: "block"}
	tiling := blockTiling{size: r.size, colors: colors}
	rt.mu.Lock()
	// The tiling is a pure function of (size, colors), so every block
	// partition of a same-size region shares one interned coloring.
	c, ok := rt.blockColorings[tiling]
	if !ok {
		c = rt.newColoringLocked()
		rt.blockColorings[tiling] = c
	}
	p.coloring = c
	rt.partCache[key] = p
	rt.mu.Unlock()
	return p
}

// partCacheKey caches block and broadcast partitions, which are pure
// functions of (region, colors).
type partCacheKey struct {
	region    RegionID
	colors    int
	broadcast bool
}

// blockTiling keys the interned colorings of block partitions.
type blockTiling struct {
	size   int64
	colors int
}

// PartitionByRects builds a partition whose color c covers rects[c].
// The caller asserts nothing about disjointness; it is computed.
func (rt *Runtime) PartitionByRects(r *Region, rects []geometry.Rect) *Partition {
	subs := make([]geometry.IntervalSet, len(rects))
	for c, rect := range rects {
		subs[c] = geometry.NewIntervalSet(rect)
	}
	return rt.newPartition(r, subs, disjointSubspaces(subs), "rects")
}

// PartitionBySets builds a partition from explicit per-color index sets.
func (rt *Runtime) PartitionBySets(r *Region, subs []geometry.IntervalSet) *Partition {
	cp := make([]geometry.IntervalSet, len(subs))
	copy(cp, subs)
	return rt.newPartition(r, cp, disjointSubspaces(cp), "explicit")
}

func disjointSubspaces(subs []geometry.IntervalSet) bool {
	var acc geometry.IntervalSet
	for _, s := range subs {
		if acc.Overlaps(s) {
			return false
		}
		acc = acc.Union(s)
	}
	return true
}

// AlignedPartition returns a partition of r with the same subspaces as p
// (which must partition a region of the same size). It is how an
// alignment constraint transfers one region's chosen partition onto
// another; results are cached per (p, r) — on p's object identity, since
// fusion compares partition pointers — so repeated launches hand out the
// same first-class partition object. The result shares p's subspaces and
// therefore its coloring.
func (rt *Runtime) AlignedPartition(p *Partition, r *Region) *Partition {
	return rt.AlignedBlocks(p, r, 1)
}

// AlignedBlocks is an alignment edge of block width w: element i of p's
// region covers r's elements [i*w, i*w+w-1], as a BSR matrix's block row
// covers bs rows of y. At w = 1 it is AlignedPartition; a wider result
// has subspaces, and so a coloring, of its own. It is cached per
// (p, r, w).
func (rt *Runtime) AlignedBlocks(p *Partition, r *Region, w int64) *Partition {
	if p.Region() == r {
		return p
	}
	if p.Region().Size()*w != r.Size() {
		panic(fmt.Sprintf("legion: aligning %q (size %d) with partition of %q (size %d, width %d)",
			r.name, r.size, p.Region().name, p.Region().size, w))
	}
	key := alignKey{part: p, region: r.id, width: w}
	rt.mu.Lock()
	if q, ok := rt.alignCache[key]; ok {
		rt.cacheStats.AlignHits++
		rt.mu.Unlock()
		return q
	}
	rt.cacheStats.AlignMisses++
	rt.mu.Unlock()
	q := &Partition{coloring: p.coloring, region: r, subspaces: p.subspaces, disjoint: p.disjoint, kind: p.kind}
	if w != 1 {
		q.subspaces = make([]geometry.IntervalSet, len(p.subspaces))
		for c, s := range p.subspaces {
			q.subspaces[c] = s.Scale(w)
		}
	}
	rt.mu.Lock()
	if w != 1 {
		q.coloring = rt.newColoringLocked()
	}
	rt.alignCache[key] = q
	rt.mu.Unlock()
	return q
}

type alignKey struct {
	part   *Partition
	region RegionID
	width  int64
}

// imageKey identifies a cached image partition object: the
// subspace computation it wraps, and the region they are applied to.
type imageKey struct {
	sets imageSetsKey
	dst  RegionID
}

// derivedPartition is the one lookup/build/insert path behind the image
// operators: the partition of dst whose subspaces build computes from
// src's contents and from's subspaces, each index widened to w (see
// Image). Both cache levels are keyed on from's coloring (DESIGN.md,
// "Cross-region image-set cache"): an exact hit returns the cached
// partition object of dst; a set hit reuses the subspaces computed for
// another same-size destination and pays only a Partition wrapper; a
// miss runs build. Only a build reads src, so only a build waits for
// src's last writer. Every lookup still flushes the fusion window: when
// the buffered launches issue decides which of their failures a later
// recovery point finds, so a hit may not leave them buffered.
func (rt *Runtime) derivedPartition(kind string, src *Region, from *Partition, dst *Region, w int64,
	build func() []geometry.IntervalSet) *Partition {
	rt.FlushFusion()
	setsKey := imageSetsKey{kind: kind, src: src.id, srcColoring: from.coloring, srcVersion: src.version, dstSize: dst.size, width: w}
	key := imageKey{sets: setsKey, dst: dst.id}
	rt.mu.Lock()
	if p, ok := rt.imageCache[key]; ok {
		rt.cacheStats.ImageHits++
		rt.mu.Unlock()
		return p
	}
	rt.cacheStats.ImageMisses++
	e := rt.imageSets[setsKey]
	rt.mu.Unlock()

	built := e == nil
	if built {
		rt.waitWriter(src) // build reads src's contents on the app thread
		e = &imageSetsEntry{subs: build()}
		for c, s := range e.subs {
			e.subs[c] = s.Scale(w)
		}
		e.disjoint = disjointSubspaces(e.subs)
	}
	rt.mu.Lock()
	if built {
		rt.cacheStats.ImageBuilds++
		e.coloring = rt.newColoringLocked()
		rt.dropStaleImagesLocked(setsKey.src, setsKey.srcVersion)
		rt.imageSets[setsKey] = e
	} else {
		rt.cacheStats.ImageSetHits++
	}
	p := &Partition{coloring: e.coloring, region: dst, subspaces: e.subs, disjoint: e.disjoint, kind: kind}
	rt.imageCache[key] = p
	rt.mu.Unlock()
	return p
}

// dropStaleImagesLocked drops what was computed from contents of src
// older than version. Versions only increase, so no lookup can reach
// those entries again; without this a long-lived source that the launch
// stream keeps rewriting (a Gather index) would leave one generation of
// entries per write. Caller holds rt.mu.
func (rt *Runtime) dropStaleImagesLocked(src RegionID, version int64) {
	for k := range rt.imageSets {
		if k.src == src && k.srcVersion < version {
			delete(rt.imageSets, k)
		}
	}
	for k := range rt.imageCache {
		if k.sets.src == src && k.sets.srcVersion < version {
			delete(rt.imageCache, k)
		}
	}
}

// Image computes the dependent-partitioning image of srcPart through
// src's contents onto dst: by range for a RectType source (paper Figure
// 2a; color c covers the union of the ranges stored at src's indices
// colored c — how a partition of CSR's pos induces those of crd and
// vals, §3), by coordinate for an Int64 source (Figure 2b; color c
// contains every index named by a coordinate of src colored c, typically
// aliased, as the overlapping halves of Figure 5's x). Every index the
// contents name covers w consecutive elements of dst, [e*w, e*w+w-1]:
// BSR's bs columns per block coordinate, a dense matrix's row of stride
// w. w = 1 is the plain image.
//
// Images are cached, with w in the key, so re-launching an operation
// with unchanged inputs reuses the partition — what makes the steady
// state of Figure 5 cheap.
func (rt *Runtime) Image(src *Region, srcPart *Partition, dst *Region, w int64) *Partition {
	if srcPart.Region() != src {
		panic(fmt.Sprintf("legion: image source partition does not partition %q", src.name))
	}
	switch src.typ {
	case RectType:
		return rt.derivedPartition("image-range", src, srcPart, dst, w, func() []geometry.IntervalSet {
			subs := make([]geometry.IntervalSet, srcPart.Colors())
			data := src.rect
			for c := range subs {
				var rects []geometry.Rect
				for _, s := range srcPart.Subspace(c).Rects() {
					for _, r := range data[s.Lo : s.Hi+1] {
						if !r.Empty() {
							rects = append(rects, r)
						}
					}
				}
				subs[c] = geometry.NewIntervalSet(rects...)
			}
			return subs
		})
	case Int64:
		return rt.derivedPartition("image-coord", src, srcPart, dst, w, func() []geometry.IntervalSet {
			subs := make([]geometry.IntervalSet, srcPart.Colors())
			data := src.i64
			for c := range subs {
				pts := make([]int64, 0, srcPart.Subspace(c).Size())
				for _, s := range srcPart.Subspace(c).Rects() {
					pts = append(pts, data[s.Lo:s.Hi+1]...)
				}
				subs[c] = geometry.FromPoints(pts)
			}
			return subs
		})
	}
	panic(fmt.Sprintf("legion: image source %q holds %v, not ranges or coordinates", src.name, src.typ))
}

// ImageRange is the by-range Image of width 1 (src must hold ranges).
func (rt *Runtime) ImageRange(src *Region, srcPart *Partition, dst *Region) *Partition {
	src.checkType(RectType)
	return rt.Image(src, srcPart, dst, 1)
}

// ImageCoord is the by-coordinate Image of width 1 (src must hold
// coordinates).
func (rt *Runtime) ImageCoord(src *Region, srcPart *Partition, dst *Region) *Partition {
	src.checkType(Int64)
	return rt.Image(src, srcPart, dst, 1)
}

// BroadcastPartition replicates the whole region to every color — used
// for small operands every point task reads in full (e.g. the dense
// factor slices in SDDMM with few colors, or scalars materialized as
// regions).
func (rt *Runtime) BroadcastPartition(r *Region, colors int) *Partition {
	key := partCacheKey{region: r.id, colors: colors, broadcast: true}
	rt.mu.Lock()
	if p, ok := rt.partCache[key]; ok {
		rt.cacheStats.PartHits++
		rt.mu.Unlock()
		return p
	}
	rt.cacheStats.PartMisses++
	rt.mu.Unlock()
	full := geometry.NewIntervalSet(r.Domain())
	subs := make([]geometry.IntervalSet, colors)
	for c := range subs {
		subs[c] = full
	}
	disjoint := colors <= 1 || r.size == 0
	p := rt.newPartition(r, subs, disjoint, "broadcast")
	rt.mu.Lock()
	rt.partCache[key] = p
	rt.mu.Unlock()
	return p
}
