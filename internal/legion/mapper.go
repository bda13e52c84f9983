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
	elemSize int64
	extent   geometry.Rect
}

// procMemory is the mapper's per-processor state: live allocations by
// region, the free pool, and modeled memory usage.
//
// When a region goes out of scope its allocations are pooled rather than
// released, and new allocations whose extent fits inside a pooled extent
// reuse it — this is how x2 reuses RA2/RA4 in Figure 5 and how the
// program reaches a steady state with no allocation resizing. spare
// keeps the emptied allocation lists of destroyed regions for the next
// region mapped here, so that steady state makes no garbage either.
type procMemory struct {
	allocs map[RegionID][]allocation
	pool   []allocation
	spare  [][]allocation
	used   int64
}

func newProcMemory() procMemory {
	return procMemory{allocs: map[RegionID][]allocation{}}
}

// maxSpares bounds each list of recycled per-region state (a processor's
// allocation lists, the mapper's directory entries): enough for the
// temporaries of a solver iteration, not a hoard after a mass Destroy.
const maxSpares = 16

// addAlloc records a on pm as an allocation of region id.
func (pm *procMemory) addAlloc(id RegionID, a allocation) {
	list, ok := pm.allocs[id]
	if n := len(pm.spare); !ok && n > 0 {
		list, pm.spare = pm.spare[n-1], pm.spare[:n-1]
	}
	pm.allocs[id] = append(list, a)
}

// coherence is the mapper's directory entry for one region: the indices
// valid in host memory and on each processor. valid is indexed by
// ProcID, and holders lists the processors whose valid set is not empty,
// so a write invalidates only the copies that exist. A processor retired
// after a fault may stay listed; nothing reads its set again (it is no
// copy source and maps no point), and the next write drops it.
//
// muts counts the entry's real changes — to a valid set, the host set,
// the holders or the region's allocations — and read and write are the
// last partitions through which every point of a launch mapped the
// region for reading and for writing (Mapper.plan).
type coherence struct {
	host    geometry.IntervalSet
	valid   []geometry.IntervalSet
	holders []machine.ProcID

	muts        int64
	read, write canon
}

// canon records that every point of one launch mapped a region through
// the partition of coloring, in round-robin placement, leaving the
// region's entry at muts in mapper epoch epoch. While the entry and the
// epoch are unchanged, mapping those points through that partition
// again would change nothing (see Mapper.plan).
type canon struct {
	coloring, muts, epoch int64
}

// on returns the indices valid on p.
func (c *coherence) on(p machine.ProcID) geometry.IntervalSet {
	if c.valid == nil {
		return geometry.IntervalSet{}
	}
	return c.valid[p]
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

	mems     []procMemory       // by ProcID
	srcOrder [][]machine.ProcID // by destination ProcID, built on first use
	dead     []bool             // by ProcID: retired processors, never copy sources

	spareDirs []*coherence       // reset entries of destroyed regions
	scratch   [2][]geometry.Rect // intermediate sets of one mapping

	epoch  int64 // bumped by evictProcessor, voiding every canon
	noSkip bool  // map every requirement (plan); set by tests only
	calls  int64 // mapRequirement calls, read by tests

	// CoalesceThreshold is the minimum ratio of overlapping to
	// non-overlapping indices for two views to be merged rather than
	// allocated separately (§4.2's heuristic). At 0, any overlap merges.
	CoalesceThreshold float64
}

func newMapper(rt *Runtime) *Mapper {
	m := &Mapper{rt: rt, mems: make([]procMemory, len(rt.mach.Procs))}
	for i := range m.mems {
		m.mems[i] = newProcMemory()
	}
	return m
}

// dir returns r's directory entry, taking a reset one from the spares
// if r has none. A destroyed region has none; recovery replay can still
// map it, and the entry it gets then is never returned.
func (m *Mapper) dir(r *Region) *coherence {
	if r.coh == nil {
		if n := len(m.spareDirs); n > 0 {
			r.coh, m.spareDirs = m.spareDirs[n-1], m.spareDirs[:n-1]
		} else {
			r.coh = &coherence{}
		}
	}
	return r.coh
}

// setValid stores v, which is not empty, as the indices valid on p.
func (m *Mapper) setValid(c *coherence, p machine.ProcID, v geometry.IntervalSet) {
	if c.valid == nil {
		c.valid = make([]geometry.IntervalSet, len(m.mems))
	}
	if c.valid[p].Empty() {
		c.holders = append(c.holders, p)
	}
	c.valid[p] = v
	c.muts++
}

// invalidate drops sub from the indices valid on every holder but keep
// (HostProc: drop it from all of them), and forgets holders left empty
// and retired ones.
func (m *Mapper) invalidate(c *coherence, keep machine.ProcID, sub geometry.IntervalSet) {
	live := c.holders[:0]
	for _, q := range c.holders {
		v := c.valid[q]
		if q != keep && v.Overlaps(sub) {
			v = v.Subtract(sub)
			c.muts++
		}
		if v.Empty() || (m.dead != nil && m.dead[q]) {
			v = geometry.IntervalSet{}
		} else {
			live = append(live, q)
		}
		c.valid[q] = v
	}
	if len(live) != len(c.holders) {
		c.muts++
	}
	c.holders = live
}

// regionCreated marks a fresh region valid in host memory.
func (m *Mapper) regionCreated(r *Region) {
	c := m.dir(r)
	if r.size > 0 {
		c.host = geometry.NewIntervalSet(r.Domain())
	}
	c.muts++
}

// regionDestroyed frees the region's allocations into each processor's
// pool and drops its directory entry, keeping it, reset, as a spare.
func (m *Mapper) regionDestroyed(r *Region) {
	for i := range m.mems {
		pm := &m.mems[i]
		list, ok := pm.allocs[r.id]
		if !ok {
			continue
		}
		pm.pool = append(pm.pool, list...)
		delete(pm.allocs, r.id)
		if len(pm.spare) < maxSpares {
			pm.spare = append(pm.spare, list[:0])
		}
	}
	if c := r.coh; c != nil && len(m.spareDirs) < maxSpares {
		clear(c.valid)
		c.host, c.holders = geometry.IntervalSet{}, c.holders[:0]
		c.read, c.write = canon{}, canon{}
		c.muts++
		m.spareDirs = append(m.spareDirs, c)
	}
	r.coh = nil
}

// evictProcessor retires a dead processor: its allocations, pool, and
// validity state are dropped (the hardware is gone, nothing to reuse)
// and it is excluded from future coherence-copy sourcing. Indices whose
// only valid copy lived there are re-fetched from host on next use —
// or rewritten outright by recovery replay.
func (m *Mapper) evictProcessor(p machine.ProcID) {
	if m.dead == nil {
		m.dead = make([]bool, len(m.mems))
	}
	m.dead[p] = true
	if ps := m.rt.prof; ps != nil {
		ps.RecordMem(prof.MemEvent{Run: m.rt.profRun, Kind: prof.MemEvict,
			Proc: int(p), Bytes: m.mems[p].used})
	}
	m.mems[p] = newProcMemory()
	m.srcOrder = nil // rebuild source preferences without p
	m.epoch++        // points now land on other processors
}

// plan decides, before l is mapped, which of its requirements need no
// mapping at any point (skip) and which leave a canon to record once
// every point has been mapped (note; see noteMapped). A requirement is
// skipped when a canon of its region covers it: the same subspaces (a
// partition coloring), the entry unchanged since, the same processors,
// and a privilege the canon's class covers — a read is covered by the
// read or the write canon, a write only by the write canon. Such a
// mapping is a proven no-op: every index is already valid where its
// point runs, no other copy needs invalidating and the allocation is
// reused, so there is no copy, stat or prof event to miss. Since each
// skipped mapping leaves the entry as it found it, a launch may skip any
// number of requirements on one region, but only if it skips all of
// them. Nothing is skipped or noted for a ReduceSum or whole-region
// requirement, a MapPoints launch, or under an allocator stall, which
// is charged even on a no-op.
func (m *Mapper) plan(l *Launch) (skip, note uint64) {
	if m.noSkip || l.procMap != nil || m.rt.cost.AllocStall > 0 || len(l.reqs) > 64 {
		return 0, 0
	}
	var covered uint64
	for i, rq := range l.reqs {
		if m.covered(rq) {
			covered |= 1 << i
		}
	}
	for i, rq := range l.reqs {
		alone, all := true, covered&(1<<i) != 0
		for j, o := range l.reqs {
			if j != i && o.region == rq.region {
				alone, all = false, all && covered&(1<<j) != 0
			}
		}
		switch {
		case all:
			skip |= 1 << i
		case alone && rq.part != nil && rq.priv != ReduceSum:
			note |= 1 << i
		}
	}
	return skip, note
}

// covered reports whether a canon of rq's region covers rq (see plan).
func (m *Mapper) covered(rq req) bool {
	c := rq.region.coh
	if c == nil || rq.part == nil {
		return false
	}
	holds := func(k canon) bool {
		return k.coloring == rq.part.coloring && k.muts == c.muts && k.epoch == m.epoch
	}
	switch rq.priv {
	case ReadOnly:
		return holds(c.read) || holds(c.write)
	case WriteDiscard, ReadWrite:
		return holds(c.write)
	}
	return false
}

// noteMapped records the canons plan asked for, after every point of l
// has been mapped. Each noted requirement is its region's only one in
// l, so the entry's changes during l were its own: a read mapping only
// adds to valid sets, and a write through a disjoint partition leaves
// each point's indices valid only where that point ran.
func (m *Mapper) noteMapped(l *Launch, note uint64) {
	for i, rq := range l.reqs {
		if note&(1<<i) == 0 {
			continue
		}
		c := m.dir(rq.region)
		k := canon{coloring: rq.part.coloring, muts: c.muts, epoch: m.epoch}
		if rq.priv == ReadOnly {
			c.read = k
		} else {
			c.write = k
		}
	}
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
	m.calls++
	if sub.Empty() {
		return res, nil
	}
	pm := &m.mems[proc]
	c := m.dir(r)
	valid := c.on(proc)
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
		reallocBytes, fresh, err := m.allocate(pm, r, c, need, kind, proc)
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
			if local := valid.IntersectRect(need).Size() * es; local > 0 {
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
	// else, so this section is lookups only. Sets that are read and
	// dropped live in the mapper's scratch; only a stored set allocates.
	covered := valid.ContainsSet(sub)
	if !covered && (priv.reads() || priv == ReduceSum) {
		res.copyTime += m.copyIn(proc, r, c, sub.SubtractInto(valid, &m.scratch[0]))
	}
	switch priv {
	case ReadOnly:
		if !covered {
			m.setValid(c, proc, valid.Union(sub))
		}
	case WriteDiscard, ReadWrite:
		// Invalidate every other copy of the written indices.
		m.invalidate(c, proc, sub)
		if c.host.Overlaps(sub) {
			c.host = c.host.Subtract(sub)
			c.muts++
		}
		if !covered {
			m.setValid(c, proc, valid.Union(sub))
		}
	case ReduceSum:
		// Reduction instances are folded after the launch; model the
		// folded result as landing in host memory, with every processor
		// copy invalidated (the fold itself is charged by the caller).
		m.invalidate(c, HostProc, sub)
		c.host = c.host.Union(sub)
		c.muts++
	}
	return res, nil
}

// allocate finds or creates an allocation on pm covering need, returning
// the number of bytes that had to be copied because an existing
// allocation was resized, and whether the view landed in a new instance
// (pooled or fresh) rather than an existing one. Preference order:
// exact/containing reuse, then coalescing with an overlapping
// allocation, then the free pool, then a fresh allocation (checked
// against capacity). All but reuse count as a change of r's entry c.
func (m *Mapper) allocate(pm *procMemory, r *Region, c *coherence, need geometry.Rect, kind machine.ProcKind, proc machine.ProcID) (int64, bool, error) {
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
		list[i] = allocation{elemSize: es, extent: merged}
		c.muts++
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
			pm.addAlloc(r.id, pa)
			c.muts++
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
	pm.addAlloc(r.id, allocation{elemSize: es, extent: need})
	c.muts++
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
// modeled copy time and updates statistics. missing lives in
// m.scratch[0]; what remains after each source alternates between the
// two scratch buffers.
func (m *Mapper) copyIn(proc machine.ProcID, r *Region, c *coherence, missing geometry.IntervalSet) time.Duration {
	cost := m.rt.cost
	var total time.Duration
	es := r.typ.ElemSize()
	remaining, cur := missing, 0
	// Prefer real processors as sources, nearest link first, in
	// deterministic processor order; only holders have anything to give.
	for _, q := range m.sourceOrder(proc) {
		if remaining.Empty() || len(c.holders) == 0 {
			break
		}
		v := c.valid[q]
		n := remaining.IntersectSize(v)
		if n == 0 {
			continue
		}
		link := m.rt.mach.Link(proc, q)
		bytes := n * es
		m.rt.stats.AddCopy(link, bytes)
		if ps := m.rt.prof; ps != nil {
			ps.RecordCopy(prof.Copy{Run: m.rt.profRun, Src: int(q), Dst: int(proc),
				Link: link, Bytes: bytes})
		}
		total += cost.CopyTime(link, bytes)
		cur ^= 1
		remaining = remaining.SubtractInto(v, &m.scratch[cur])
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
		m.srcOrder = make([][]machine.ProcID, len(m.mems))
	}
	if cached := m.srcOrder[proc]; cached != nil {
		return cached
	}
	out := []machine.ProcID{}
	for _, p := range m.rt.mach.Procs {
		if p.ID != proc && (m.dead == nil || !m.dead[p.ID]) {
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

// MemUsed returns the modeled bytes resident on a processor (none in
// host memory, which the model does not bound).
func (m *Mapper) MemUsed(p machine.ProcID) int64 {
	if p == HostProc {
		return 0
	}
	return m.mems[p].used
}

// ValidOn returns the indices of r currently valid on p (for tests).
func (m *Mapper) ValidOn(p machine.ProcID, r *Region) geometry.IntervalSet {
	switch {
	case r.coh == nil:
		return geometry.IntervalSet{}
	case p == HostProc:
		return r.coh.host
	case m.dead != nil && m.dead[p]:
		return geometry.IntervalSet{}
	}
	return r.coh.on(p)
}
