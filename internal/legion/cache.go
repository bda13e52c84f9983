package legion

// Partition-cache bookkeeping for long-lived runtimes. A runtime that
// serves many independent programs (the legate-serve pool) relies on its
// partition caches staying warm across requests: block partitions and
// image partitions are exactly the per-launch setup cost that §4.1's
// first-class partitions exist to amortize. This file adds the three
// pieces a server needs on top of the per-object caches in partition.go:
//
//   - an *image-set* cache under the image-partition cache: the
//     subspaces of an image are a pure function of the source
//     partition's coloring and the source region's contents — the
//     destination region only names where they land — so the fresh
//     same-size solver temporaries of consecutive CG calls against one
//     matrix share one subspace computation, and a warm runtime skips
//     the O(nnz) scan entirely. DESIGN.md, "Cross-region image-set
//     cache", is the home of the key and of why it is a coloring;
//   - hit/miss counters over every cache, exposed as CacheStats for the
//     server's /metrics endpoint and the cache ablation;
//   - InvalidateRegionCaches, the explicit invalidation hook for
//     callers that mutate a region's contents outside the launch stream
//     (re-uploading a served matrix in place).

import "repro/internal/geometry"

// CacheStats is a snapshot of the runtime's partition-cache counters.
// Hits and misses count lookups; Image* distinguishes an exact
// partition-object hit (same destination region) from a cross-region
// *set* hit (same-size destination, subspaces reused, only the cheap
// Partition wrapper rebuilt). ImageBuilds counts full subspace
// computations — the expensive path a warm cache avoids.
type CacheStats struct {
	PartHits     int64 `json:"part_hits"` // block/broadcast partitions
	PartMisses   int64 `json:"part_misses"`
	AlignHits    int64 `json:"align_hits"` // alignment transfers
	AlignMisses  int64 `json:"align_misses"`
	ImageHits    int64 `json:"image_hits"` // image partition objects
	ImageMisses  int64 `json:"image_misses"`
	ImageSetHits int64 `json:"image_set_hits"` // subspaces reused across destinations
	ImageBuilds  int64 `json:"image_builds"`   // full image subspace computations

	PartEntries     int `json:"part_entries"`
	AlignEntries    int `json:"align_entries"`
	ImageEntries    int `json:"image_entries"`
	ImageSetEntries int `json:"image_set_entries"`
}

// CacheStats returns a snapshot of the partition-cache counters.
func (rt *Runtime) CacheStats() CacheStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	s := rt.cacheStats
	s.PartEntries = len(rt.partCache)
	s.AlignEntries = len(rt.alignCache)
	s.ImageEntries = len(rt.imageCache)
	s.ImageSetEntries = len(rt.imageSets)
	return s
}

// imageSetsKey identifies one cached image subspace
// computation: which operator, over which contents of which region,
// driven by which coloring, at which block width. The destination
// enters only through its size: the computed interval sets index into
// [0, dstSize) regardless of which region they are applied to, which is
// what lets fresh same-size regions reuse them.
type imageSetsKey struct {
	kind        string
	src         RegionID
	srcColoring int64
	srcVersion  int64
	dstSize     int64
	width       int64
}

// imageSetsEntry carries the computed subspaces and the coloring every
// partition minted from them shares.
type imageSetsEntry struct {
	coloring int64
	subs     []geometry.IntervalSet
	disjoint bool
}

// InvalidateRegionCaches drops every cached partition derived from or
// applied to r — block/broadcast partitions of r, alignment transfers
// onto r or of a partition of r, images sourced from r, and cached image
// subspaces computed from r's contents — and clears r's key partition.
// It is the invalidation hook for code that rewrites a region's backing
// store outside the launch stream (legate-serve's matrix re-upload
// path); Destroy performs the same cleanup implicitly. The caller must
// ensure no launch is in flight against r (Fence if unsure).
func (rt *Runtime) InvalidateRegionCaches(r *Region) {
	if r == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.dropRegionCachesLocked(r)
}

// dropRegionCachesLocked purges cache entries referencing r. Caller
// holds rt.mu.
func (rt *Runtime) dropRegionCachesLocked(r *Region) {
	r.keyPartition = nil
	for k := range rt.partCache {
		if k.region == r.id {
			delete(rt.partCache, k)
		}
	}
	for k := range rt.alignCache {
		if k.region == r.id || k.part.region == r {
			delete(rt.alignCache, k)
		}
	}
	for k := range rt.imageCache {
		if k.dst == r.id || k.sets.src == r.id {
			delete(rt.imageCache, k)
		}
	}
	for k := range rt.imageSets {
		if k.src == r.id {
			delete(rt.imageSets, k)
		}
	}
}
