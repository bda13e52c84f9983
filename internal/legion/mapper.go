package legion

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/geometry"
	"repro/internal/machine"
	"repro/internal/prof"
)

// HostProc is the pseudo-processor representing node-0 host memory.
// Freshly created regions (e.g. attached NumPy data) are valid only
// there; processors pay a copy the first time they read them.
const HostProc machine.ProcID = -1

// OOMError reports that a processor's modeled memory capacity was
// exceeded. The paper's Figure 12 relies on this: CuPy cannot fit the
// ML-50M dataset on one GPU, while Legate spreads it across six.
type OOMError struct {
	Proc      machine.ProcID
	Kind      machine.ProcKind
	Needed    int64
	Used      int64
	Capacity  int64
	RegionTag string
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("out of memory on %v %d: need %d bytes for %q, %d/%d used",
		e.Kind, e.Proc, e.Needed, e.RegionTag, e.Used, e.Capacity)
}

// allocation is one modeled memory allocation on a processor: a bounding
// extent of some region's index space. Tasks using a sub-region of the
// extent operate on a slice of the allocation (paper §4.2).
type allocation struct {
	region   RegionID
	elemSize int64
	extent   geometry.Rect
}

func (a *allocation) bytes() int64 { return a.extent.Size() * a.elemSize }

// pooledAlloc is a freed allocation kept for reuse. When a region goes
// out of scope its allocations are pooled rather than released, and new
// allocations whose extent fits inside a pooled extent reuse it — this is
// how x2 reuses RA2/RA4 in Figure 5 and how the program reaches a steady
// state with no allocation resizing.
type pooledAlloc struct {
	elemSize int64
	extent   geometry.Rect
}

// procMemory is the mapper's per-processor state: live allocations by
// region, the free pool, validity intervals per region, and modeled
// memory usage.
type procMemory struct {
	allocs map[RegionID][]*allocation
	pool   []pooledAlloc
	valid  map[RegionID]geometry.IntervalSet
	used   int64
}

func newProcMemory() *procMemory {
	return &procMemory{
		allocs: map[RegionID][]*allocation{},
		valid:  map[RegionID]geometry.IntervalSet{},
	}
}

// Mapper implements the composable mapping strategy of §4.2: a shared
// store of region allocations per processor, allocation reuse, a
// coalescing heuristic for overlapping sub-region views, and
// directory-style validity tracking that determines the precise bytes a
// distributed execution would move for every region requirement.
//
// Legate Sparse and cuNumeric share one Mapper per runtime — the paper's
// "point of coupling at the runtime layer between the libraries".
// Its one caller is the application goroutine, mapping each launch at
// issue in program order (Runtime.mapLaunch), so it needs no lock.
type Mapper struct {
	rt *Runtime

	mems     map[machine.ProcID]*procMemory
	host     *procMemory
	srcOrder map[machine.ProcID][]machine.ProcID
	dead     map[machine.ProcID]bool // retired processors; never used as copy sources

	// CoalesceThreshold is the minimum ratio of overlapping to
	// non-overlapping indices for two views to be merged rather than
	// allocated separately (§4.2's heuristic). At 0, any overlap merges.
	CoalesceThreshold float64
}

func newMapper(rt *Runtime) *Mapper {
	m := &Mapper{rt: rt, mems: map[machine.ProcID]*procMemory{}, host: newProcMemory()}
	for _, p := range rt.mach.Procs {
		m.mems[p.ID] = newProcMemory()
	}
	return m
}

func (m *Mapper) mem(p machine.ProcID) *procMemory {
	if p == HostProc {
		return m.host
	}
	return m.mems[p]
}

// regionCreated marks a fresh region valid in host memory.
func (m *Mapper) regionCreated(r *Region) {
	if r.size > 0 {
		m.host.valid[r.id] = geometry.NewIntervalSet(r.Domain())
	}
}

// regionDestroyed frees the region's allocations into each processor's
// pool and drops validity state.
func (m *Mapper) regionDestroyed(r *Region) {
	for _, pm := range m.mems {
		for _, a := range pm.allocs[r.id] {
			pm.pool = append(pm.pool, pooledAlloc{elemSize: a.elemSize, extent: a.extent})
		}
		delete(pm.allocs, r.id)
		delete(pm.valid, r.id)
	}
	delete(m.host.valid, r.id)
	delete(m.host.allocs, r.id)
}

// evictProcessor retires a dead processor: its allocations, pool, and
// validity state are dropped (the hardware is gone, nothing to reuse)
// and it is excluded from future coherence-copy sourcing. Indices whose
// only valid copy lived there are re-fetched from host on next use —
// or rewritten outright by recovery replay.
func (m *Mapper) evictProcessor(p machine.ProcID) {
	if m.dead == nil {
		m.dead = map[machine.ProcID]bool{}
	}
	m.dead[p] = true
	if ps := m.rt.prof; ps != nil {
		ps.RecordMem(prof.MemEvent{Run: m.rt.profRun, Kind: prof.MemEvict,
			Proc: int(p), Bytes: m.mems[p].used})
	}
	m.mems[p] = newProcMemory()
	m.srcOrder = nil // rebuild source preferences without p
}

// mapResult summarizes the modeled data movement of mapping one region
// requirement onto a processor.
type mapResult struct {
	copyTime time.Duration
}

// mapRequirement models the mapping of one region requirement of a point
// task onto processor proc: allocation selection (reuse / pool / coalesce
// / fresh), then coherence copies for read privileges, then invalidation
// for write privileges. It returns the modeled time of the copies, or an
// OOMError if proc's memory capacity would be exceeded.
func (m *Mapper) mapRequirement(proc machine.ProcID, r *Region, sub geometry.IntervalSet, priv Privilege) (mapResult, error) {
	var res mapResult
	if sub.Empty() {
		return res, nil
	}
	pm := m.mem(proc)
	cost := m.rt.cost
	kind := m.rt.mach.Proc(proc).Kind

	// --- Allocation step (§4.2) ---
	// Allocate per maximal interval of the view: a scattered image (e.g.
	// the factor-matrix rows an SpMM references) must not be charged its
	// bounding extent, or every processor would appear to hold the whole
	// matrix. Contiguous views still land in one allocation, and the
	// coalescing heuristic merges neighbors as views grow.
	es := r.typ.ElemSize()
	for _, need := range sub.Rects() {
		reallocBytes, fresh, err := m.allocate(pm, r, need, kind, proc)
		if err != nil {
			return res, err
		}
		if reallocBytes > 0 {
			// Resizing an allocation copies its previous contents into
			// the new allocation (Figure 5: "Expand RA1 to RA5").
			m.rt.stats.ReallocCopy.Add(reallocBytes)
			res.copyTime += cost.CopyTime(machine.IntraNode, reallocBytes)
		}
		if fresh && priv.reads() {
			// A brand-new instance must be filled with the data the
			// processor already holds in *other* instances: without the
			// coalescing/reuse machinery this local copy recurs every
			// iteration — §4.3's "full vector copy executed in each
			// iteration" failure mode.
			if local := pm.valid[r.id].IntersectRect(need).Size() * es; local > 0 {
				m.rt.stats.ReallocCopy.Add(local)
				res.copyTime += cost.CopyTime(machine.IntraNode, local)
			}
		}
	}

	// Allocator pressure: near the capacity limit, each further mapping
	// stalls (CuPy's caching allocator; Legion pre-reserves and sets
	// AllocStall to zero).
	if capacity := cost.MemCapacity[kind]; capacity > 0 && cost.AllocStall > 0 &&
		float64(pm.used) > machine.AllocStallThreshold*float64(capacity) {
		res.copyTime += cost.AllocStall
	}

	// --- Coherence step ---
	// Every update below is skipped when it would store the set it read:
	// in the steady state of an iterative loop (§4.3) the data is already
	// valid where it is used and the written indices are cached nowhere
	// else, so this section is lookups only.
	valid := pm.valid[r.id]
	covered := valid.ContainsSet(sub)
	if !covered && (priv.reads() || priv == ReduceSum) {
		res.copyTime += m.copyIn(proc, r, sub.Subtract(valid))
	}
	switch priv {
	case ReadOnly:
		if !covered {
			pm.valid[r.id] = valid.Union(sub)
		}
	case WriteDiscard, ReadWrite:
		// Invalidate every other copy of the written indices.
		for q, other := range m.mems {
			if q != proc {
				other.invalidate(r.id, sub)
			}
		}
		m.host.invalidate(r.id, sub)
		if !covered {
			pm.valid[r.id] = valid.Union(sub)
		}
	case ReduceSum:
		// Reduction instances are folded after the launch; model the
		// folded result as landing in host memory, with every processor
		// copy invalidated (the fold itself is charged by the caller).
		for _, other := range m.mems {
			other.invalidate(r.id, sub)
		}
		m.host.valid[r.id] = m.host.valid[r.id].Union(sub)
	}
	return res, nil
}

// invalidate drops sub from the indices of region id valid in pm.
func (pm *procMemory) invalidate(id RegionID, sub geometry.IntervalSet) {
	if v, ok := pm.valid[id]; ok && v.Overlaps(sub) {
		pm.valid[id] = v.Subtract(sub)
	}
}

// allocate finds or creates an allocation on pm covering need, returning
// the number of bytes that had to be copied because an existing
// allocation was resized, and whether the view landed in a new instance
// (pooled or fresh) rather than an existing one. Preference order:
// exact/containing reuse, then coalescing with an overlapping
// allocation, then the free pool, then a fresh allocation (checked
// against capacity).
func (m *Mapper) allocate(pm *procMemory, r *Region, need geometry.Rect, kind machine.ProcKind, proc machine.ProcID) (int64, bool, error) {
	es := r.typ.ElemSize()
	list := pm.allocs[r.id]
	// Reuse: an existing allocation already covers the view.
	for _, a := range list {
		if a.extent.ContainsRect(need) {
			return 0, false, nil
		}
	}
	// Coalesce: merge with an overlapping or adjacent allocation when the
	// overlap is large enough relative to the non-overlapping parts.
	for i, a := range list {
		inter := a.extent.Intersect(need)
		if inter.Empty() && !a.extent.Adjacent(need) {
			continue
		}
		merged := a.extent.Union(need)
		overlap := inter.Size()
		nonOverlap := merged.Size() - overlap
		if nonOverlap > 0 && float64(overlap)/float64(nonOverlap) < m.CoalesceThreshold {
			continue
		}
		grow := (merged.Size() - a.extent.Size()) * es
		if err := m.checkCapacity(pm, grow, kind, proc, r); err != nil {
			return 0, false, err
		}
		moved := a.extent.Size() * es // old contents copied into the resized allocation
		pm.used += grow
		list[i] = &allocation{region: r.id, elemSize: es, extent: merged}
		if ps := m.rt.prof; ps != nil {
			ps.RecordMem(prof.MemEvent{Run: m.rt.profRun, Kind: prof.MemGrow,
				Proc: int(proc), Region: r.name, Bytes: grow})
		}
		return moved, false, nil
	}
	// Free pool: reuse a pooled allocation whose extent contains need.
	for i, pa := range pm.pool {
		if pa.elemSize == es && pa.extent.ContainsRect(need) {
			pm.pool = append(pm.pool[:i], pm.pool[i+1:]...)
			pm.allocs[r.id] = append(pm.allocs[r.id], &allocation{region: r.id, elemSize: es, extent: pa.extent})
			if ps := m.rt.prof; ps != nil {
				ps.RecordMem(prof.MemEvent{Run: m.rt.profRun, Kind: prof.MemReuse,
					Proc: int(proc), Region: r.name, Bytes: pa.extent.Size() * es})
			}
			return 0, true, nil
		}
	}
	// Fresh allocation.
	grow := need.Size() * es
	if err := m.checkCapacity(pm, grow, kind, proc, r); err != nil {
		return 0, false, err
	}
	pm.used += grow
	pm.allocs[r.id] = append(pm.allocs[r.id], &allocation{region: r.id, elemSize: es, extent: need})
	if ps := m.rt.prof; ps != nil {
		ps.RecordMem(prof.MemEvent{Run: m.rt.profRun, Kind: prof.MemAlloc,
			Proc: int(proc), Region: r.name, Bytes: grow})
	}
	return 0, true, nil
}

func (m *Mapper) checkCapacity(pm *procMemory, grow int64, kind machine.ProcKind, proc machine.ProcID, r *Region) error {
	capacity := m.rt.cost.MemCapacity[kind]
	if capacity <= 0 || proc == HostProc {
		return nil
	}
	if pm.used+grow > capacity {
		return &OOMError{Proc: proc, Kind: kind, Needed: grow, Used: pm.used, Capacity: capacity, RegionTag: r.name}
	}
	return nil
}

// copyIn models fetching the missing indices of region r into proc's
// memory, sourcing each piece from whichever processor (or host) holds a
// valid copy, and charging the appropriate link. It returns the total
// modeled copy time and updates statistics.
func (m *Mapper) copyIn(proc machine.ProcID, r *Region, missing geometry.IntervalSet) time.Duration {
	cost := m.rt.cost
	var total time.Duration
	es := r.typ.ElemSize()
	remaining := missing
	// Prefer real processors as sources, nearest link first, in
	// deterministic processor order (map iteration order would make the
	// modeled copy costs vary run to run).
	for _, q := range m.sourceOrder(proc) {
		if remaining.Empty() {
			break
		}
		other := m.mems[q]
		v, ok := other.valid[r.id]
		if !ok {
			continue
		}
		part := remaining.Intersect(v)
		if part.Empty() {
			continue
		}
		link := m.rt.mach.Link(proc, q)
		bytes := part.Size() * es
		m.rt.stats.AddCopy(link, bytes)
		if ps := m.rt.prof; ps != nil {
			ps.RecordCopy(prof.Copy{Run: m.rt.profRun, Src: int(q), Dst: int(proc),
				Link: link, Bytes: bytes})
		}
		total += cost.CopyTime(link, bytes)
		remaining = remaining.Subtract(part)
	}
	if !remaining.Empty() {
		// Source from host memory on node 0.
		link := machine.IntraNode
		if m.rt.mach.Proc(proc).Node != 0 {
			link = machine.InterNode
		}
		bytes := remaining.Size() * es
		m.rt.stats.AddCopy(link, bytes)
		if ps := m.rt.prof; ps != nil {
			ps.RecordCopy(prof.Copy{Run: m.rt.profRun, Src: prof.HostProc, Dst: int(proc),
				Link: link, Bytes: bytes})
		}
		total += cost.CopyTime(link, bytes)
	}
	return total
}

// sourceOrder returns the other processors sorted by link preference
// (NVLink, then intra-node, then inter-node) and processor id, cached
// per destination processor.
func (m *Mapper) sourceOrder(proc machine.ProcID) []machine.ProcID {
	if m.srcOrder == nil {
		m.srcOrder = map[machine.ProcID][]machine.ProcID{}
	}
	if cached, ok := m.srcOrder[proc]; ok {
		return cached
	}
	var out []machine.ProcID
	for _, p := range m.rt.mach.Procs {
		if p.ID != proc && !m.dead[p.ID] {
			out = append(out, p.ID)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		la, lb := m.rt.mach.Link(proc, out[a]), m.rt.mach.Link(proc, out[b])
		if la != lb {
			return la < lb
		}
		return out[a] < out[b]
	})
	m.srcOrder[proc] = out
	return out
}

// MemUsed returns the modeled bytes resident on a processor.
func (m *Mapper) MemUsed(p machine.ProcID) int64 {
	return m.mem(p).used
}

// ValidOn returns the indices of r currently valid on p (for tests).
func (m *Mapper) ValidOn(p machine.ProcID, r *Region) geometry.IntervalSet {
	return m.mem(p).valid[r.id]
}
