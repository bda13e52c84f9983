package legion

import (
	"unsafe"
	"weak"
)

// Real storage reuse. The mapper models §4.3's reuse of a destroyed
// region's allocations; the storage pool makes the Go heap follow it for
// float64 regions, the work vectors every solve makes and destroys.
// Destroy offers a region's slice, CreateRegion and the checkpoint's
// snapshots take one of equal length before they allocate. A slice is
// handed on only once nothing can touch it through its old region:
//
//   - without checkpointing, once the region's last writer and every
//     reader since have completed (pending, released by the next
//     CreateRegion or Fence);
//   - with checkpointing, at the next checkpoint (ftState.destroyed):
//     until then a recovery may restore and replay launches that write
//     the region. The epoch's snapshot buffers join the pool there too.
//
// A region whose slice enters the pool gives it up (f64 = nil), so no
// later launch, replay, image build or host read reaches reused memory.
// The pool holds its spares weakly: a spare is not live heap, so it does
// not raise the collector's heap goal, and a collection frees it like
// any garbage. (Held strongly, 32 spares raised a sharded CG's peak RSS
// by 8 %, and eight still by 2.5 %.) Storage is invisible to the
// simulated clock and the modeled mapper.

// The pool's bounds: at most maxStorageSpares buffers and
// maxStorageBytes bytes; offering more evicts the oldest spares, so a
// churn of sizes keeps only the recent ones.
const (
	maxStorageSpares = 32
	maxStorageBytes  = 32 << 20
)

// storagePool holds the runtime's spare float64 buffers. Guarded by
// Runtime.mu.
type storagePool struct {
	off     bool    // never reuse storage: set by tests only
	spares  []spare // oldest first
	bytes   int64
	pending []retiring // destroyed regions whose launches may be in flight
	reused  int64      // buffers handed out again, for tests
}

// retiring is a destroyed region and the dependence state it had, whose
// launch records say when its last use has completed.
type retiring struct {
	r  *Region
	st *regionState
}

// spare is a buffer of n elements, held by a weak pointer to its first.
type spare struct {
	n     int64
	first weak.Pointer[float64]
}

// take returns a spare of exactly n elements that no collection has
// freed, or nil.
func (p *storagePool) take(n int64) []float64 {
	for i := len(p.spares) - 1; i >= 0; i-- {
		if p.spares[i].n != n {
			continue
		}
		first := p.spares[i].first.Value()
		copy(p.spares[i:], p.spares[i+1:])
		p.spares[len(p.spares)-1] = spare{}
		p.spares = p.spares[:len(p.spares)-1]
		p.bytes -= 8 * n
		if first != nil {
			p.reused++
			return unsafe.Slice(first, n)
		}
	}
	return nil
}

// put adds buf to the spares, evicting the oldest past the bounds.
func (p *storagePool) put(buf []float64) {
	n := 8 * int64(len(buf))
	if p.off || n == 0 || n > maxStorageBytes {
		return
	}
	p.spares = append(p.spares, spare{n: int64(len(buf)), first: weak.Make(&buf[0])})
	p.bytes += n
	for len(p.spares) > maxStorageSpares || p.bytes > maxStorageBytes {
		p.bytes -= 8 * p.spares[0].n
		p.spares[0] = spare{}
		p.spares = p.spares[1:]
	}
}

// release moves destroyed region r's storage into the spares.
func (p *storagePool) release(r *Region) {
	p.put(r.f64)
	r.f64 = nil
}

// releaseRetired releases every pending region whose launches have all
// completed. Application goroutine, rt.mu held.
func (p *storagePool) releaseRetired() {
	live := p.pending[:0]
	for _, e := range p.pending {
		if e.st == nil || e.st.retire() {
			p.release(e.r)
		} else {
			live = append(live, e)
		}
	}
	clear(p.pending[len(live):])
	p.pending = live
}

// offerStorage hands destroyed region r's float64 storage towards the
// pool: at the next checkpoint when one is being logged, else once the
// launches in st have completed. A shut-down runtime keeps no spares.
// Application goroutine, rt.mu held.
func (rt *Runtime) offerStorage(r *Region, st *regionState) {
	if r.typ != Float64 || rt.store.off || rt.shutdown {
		return
	}
	if ft := rt.ft; ft != nil {
		ft.destroyed = append(ft.destroyed, r)
		return
	}
	rt.store.pending = append(rt.store.pending, retiring{r: r, st: st})
	rt.store.releaseRetired()
}

// newFloat64s returns storage for n float64 elements: a spare when one
// fits, zeroed unless the caller overwrites all of it, else a new slice.
func (rt *Runtime) newFloat64s(n int64, zero bool) []float64 {
	rt.mu.Lock()
	rt.store.releaseRetired()
	buf := rt.store.take(n)
	rt.mu.Unlock()
	if buf == nil {
		return make([]float64, n)
	}
	if zero {
		clear(buf)
	}
	return buf
}

// releaseEpoch hands the closing epoch's storage to the pool: the
// regions destroyed in it and its snapshot buffers. The runtime is
// quiesced and the epoch's log is being discarded, so nothing can reach
// either again. Application goroutine.
func (rt *Runtime) releaseEpoch(ft *ftState) {
	rt.mu.Lock()
	for _, r := range ft.destroyed {
		rt.store.release(r)
	}
	for _, s := range ft.snaps {
		rt.store.put(s.f64)
	}
	rt.mu.Unlock()
	clear(ft.destroyed)
	ft.destroyed = ft.destroyed[:0]
}
