package geometry

import (
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// IntervalSet is a set of int64 indices represented as sorted, disjoint,
// non-adjacent intervals. The zero value is the empty set and is ready to
// use. IntervalSet values are immutable from the caller's perspective:
// all operations return new sets and never mutate their receivers, which
// makes them safe to share across point tasks running in parallel.
type IntervalSet struct {
	rects []Rect // sorted by Lo; pairwise disjoint and non-adjacent
}

// NewIntervalSet builds a canonical IntervalSet from arbitrary intervals,
// which may be empty, unsorted, overlapping, or adjacent.
func NewIntervalSet(rects ...Rect) IntervalSet {
	rs := make([]Rect, 0, len(rects))
	for _, r := range rects {
		if !r.Empty() {
			rs = append(rs, r)
		}
	}
	if len(rs) == 0 {
		return IntervalSet{}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi+1 { // overlapping or adjacent: merge
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
		} else {
			out = append(out, r)
		}
	}
	if cap(out) > 2*len(out) {
		// Merging shrank the set: keep it, not the input-sized scratch
		// (a by-range image's rows can merge into a single interval).
		out = slices.Clone(out)
	}
	return IntervalSet{rects: out}
}

// FromPoints builds an IntervalSet from individual indices, which may be
// unsorted and contain duplicates. It is used to materialize by-coordinate
// image partitions (Figure 2b of the paper), where a crd region names the
// individual dense indices each sub-region touches.
//
// Coordinates of a sparse matrix are dense in their span (a block of rows
// names a band of columns many times over), so when the span is under 64
// indices per point the set is swept out of a bitmap no larger than the
// input; sparse spans fall back to sorting a copy.
func FromPoints(points []int64) IntervalSet {
	if len(points) == 0 {
		return IntervalSet{}
	}
	lo, hi := points[0], points[0]
	for _, p := range points[1:] {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	// hi-lo as uint64 is exact even when the int64 difference overflows.
	if span := uint64(hi) - uint64(lo); span/64 < uint64(len(points)) {
		bm := make([]uint64, span/64+1)
		for _, p := range points {
			off := uint64(p) - uint64(lo)
			bm[off/64] |= 1 << (off % 64)
		}
		return IntervalSet{rects: bitmapRuns(bm, lo, hi)}
	}
	ps := slices.Clone(points)
	slices.Sort(ps)
	rects := make([]Rect, 0, 8)
	cur := Rect{Lo: ps[0], Hi: ps[0]}
	for _, p := range ps[1:] {
		if p == cur.Hi || p == cur.Hi+1 { // p >= cur.Hi: sorted
			cur.Hi = p
		} else {
			rects = append(rects, cur)
			cur = Rect{Lo: p, Hi: p}
		}
	}
	rects = append(rects, cur)
	return IntervalSet{rects: rects}
}

// bitmapRuns returns the maximal runs of set bits of bm as intervals,
// bit i standing for index lo+i; hi is the index of the highest set bit.
func bitmapRuns(bm []uint64, lo, hi int64) []Rect {
	rects := make([]Rect, 0, 8)
	var start int64
	inRun := false
	for w, word := range bm {
		base := lo + int64(w)*64
		for bit := 0; bit < 64; {
			if inRun {
				zeros := ^word >> bit
				if zeros == 0 {
					break // the run continues into the next word
				}
				bit += bits.TrailingZeros64(zeros)
				rects = append(rects, Rect{Lo: start, Hi: base + int64(bit) - 1})
				inRun = false
			} else {
				ones := word >> bit
				if ones == 0 {
					break
				}
				bit += bits.TrailingZeros64(ones)
				start = base + int64(bit)
				inRun = true
			}
		}
	}
	if inRun { // only a run through bit 63 of the last word is still open
		rects = append(rects, Rect{Lo: start, Hi: hi})
	}
	return rects
}

// Rects returns the canonical intervals of s in increasing order.
// The returned slice must not be modified.
func (s IntervalSet) Rects() []Rect { return s.rects }

// Empty reports whether s contains no indices.
func (s IntervalSet) Empty() bool { return len(s.rects) == 0 }

// Size returns the number of indices in s.
func (s IntervalSet) Size() int64 {
	var n int64
	for _, r := range s.rects {
		n += r.Size()
	}
	return n
}

// Bounds returns the smallest interval containing every index of s.
func (s IntervalSet) Bounds() Rect {
	if s.Empty() {
		return EmptyRect
	}
	return Rect{Lo: s.rects[0].Lo, Hi: s.rects[len(s.rects)-1].Hi}
}

// Contains reports whether index p is a member of s.
func (s IntervalSet) Contains(p int64) bool {
	i := sort.Search(len(s.rects), func(i int) bool { return s.rects[i].Hi >= p })
	return i < len(s.rects) && s.rects[i].Contains(p)
}

// ContainsSet reports whether t is a subset of s, by walking the two
// lists: s is canonical, so an interval of t is covered exactly when a
// single interval of s contains it.
func (s IntervalSet) ContainsSet(t IntervalSet) bool {
	i := 0
	for _, r := range t.rects {
		for i < len(s.rects) && s.rects[i].Hi < r.Lo {
			i++
		}
		if i == len(s.rects) || !s.rects[i].ContainsRect(r) {
			return false
		}
	}
	return true
}

// Union returns the set of indices in s or t. When t adds nothing the
// result is s itself and nothing is allocated — the steady state of the
// mapper's validity tracking; otherwise the two canonical lists are
// merged linearly into an exactly-sized slice.
func (s IntervalSet) Union(t IntervalSet) IntervalSet {
	if s.Empty() {
		return t
	}
	if s.ContainsSet(t) {
		return s
	}
	out := make([]Rect, mergeUnion(s.rects, t.rects, nil))
	mergeUnion(s.rects, t.rects, out)
	return IntervalSet{rects: out}
}

// mergeUnion merges the canonical lists a and b, storing the union's
// intervals into out unless it is nil, and returns how many there are.
func mergeUnion(a, b, out []Rect) int {
	i, j, n := 0, 0, 0
	var cur Rect // the interval being grown, out[n-1]
	for i < len(a) || j < len(b) {
		var r Rect
		if j == len(b) || (i < len(a) && a[i].Lo <= b[j].Lo) {
			r, i = a[i], i+1
		} else {
			r, j = b[j], j+1
		}
		// r.Lo >= cur.Lo, so an overflowing cur.Hi+1 matches nothing.
		if n > 0 && (r.Lo <= cur.Hi || r.Lo == cur.Hi+1) {
			cur.Hi = max64(cur.Hi, r.Hi)
		} else {
			cur, n = r, n+1
		}
		if out != nil {
			out[n-1] = cur
		}
	}
	return n
}

// UnionRect returns s with the indices of r added.
func (s IntervalSet) UnionRect(r Rect) IntervalSet {
	if r.Empty() {
		return s
	}
	return s.Union(IntervalSet{rects: []Rect{r}})
}

// Intersect returns the set of indices in both s and t, via a linear merge
// of the two sorted interval lists.
func (s IntervalSet) Intersect(t IntervalSet) IntervalSet {
	var out []Rect
	i, j := 0, 0
	for i < len(s.rects) && j < len(t.rects) {
		a, b := s.rects[i], t.rects[j]
		if x := a.Intersect(b); !x.Empty() {
			out = append(out, x)
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return IntervalSet{rects: out}
}

// IntersectRect returns the indices of s that lie within r.
func (s IntervalSet) IntersectRect(r Rect) IntervalSet {
	if r.Empty() || s.Empty() {
		return IntervalSet{}
	}
	return s.Intersect(IntervalSet{rects: []Rect{r}})
}

// IntersectSize returns the number of indices in both s and t, without
// materializing the intersection.
func (s IntervalSet) IntersectSize(t IntervalSet) int64 {
	var n int64
	i, j := 0, 0
	for i < len(s.rects) && j < len(t.rects) {
		a, b := s.rects[i], t.rects[j]
		n += a.Intersect(b).Size()
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return n
}

// Subtract returns the set of indices in s but not in t.
func (s IntervalSet) Subtract(t IntervalSet) IntervalSet {
	if s.Empty() || t.Empty() {
		return s
	}
	return IntervalSet{rects: appendSubtract(nil, s.rects, t.rects)}
}

// SubtractInto is Subtract for a set the caller drops soon: the result
// is written over *buf, which grows as needed and keeps its array for
// the next call, so a caller that reuses buf makes no garbage. The
// result always lives in *buf (never in s or t) and is valid until buf
// is next written.
func (s IntervalSet) SubtractInto(t IntervalSet, buf *[]Rect) IntervalSet {
	*buf = appendSubtract((*buf)[:0], s.rects, t.rects)
	return IntervalSet{rects: *buf}
}

// appendSubtract appends the canonical intervals of s \ t to out.
func appendSubtract(out, s, t []Rect) []Rect {
	j := 0
	for _, a := range s {
		lo := a.Lo
		for j < len(t) && t[j].Hi < lo {
			j++
		}
		covered := false // some b reaches a.Hi: nothing of a is left
		for k := j; k < len(t) && t[k].Lo <= a.Hi; k++ {
			b := t[k] // b.Hi >= lo: earlier intervals were skipped
			if b.Lo > lo {
				out = append(out, Rect{Lo: lo, Hi: b.Lo - 1})
			}
			if b.Hi >= a.Hi { // checked first: b.Hi+1 may overflow
				covered = true
				break
			}
			lo = b.Hi + 1
		}
		if !covered {
			out = append(out, Rect{Lo: lo, Hi: a.Hi})
		}
	}
	return out
}

// Overlaps reports whether s and t share at least one index, without
// materializing the intersection.
func (s IntervalSet) Overlaps(t IntervalSet) bool {
	i, j := 0, 0
	for i < len(s.rects) && j < len(t.rects) {
		if s.rects[i].Overlaps(t.rects[j]) {
			return true
		}
		if s.rects[i].Hi < t.rects[j].Hi {
			i++
		} else {
			j++
		}
	}
	return false
}

// Equal reports whether s and t contain exactly the same indices.
func (s IntervalSet) Equal(t IntervalSet) bool {
	if len(s.rects) != len(t.rects) {
		return false
	}
	for i := range s.rects {
		if !s.rects[i].Equal(t.rects[i]) {
			return false
		}
	}
	return true
}

// Shift translates every index of s by delta.
func (s IntervalSet) Shift(delta int64) IntervalSet {
	out := make([]Rect, len(s.rects))
	for i, r := range s.rects {
		out[i] = r.Shift(delta)
	}
	return IntervalSet{rects: out}
}

// Scale widens every index p of s to the w indices [p*w, p*w+w-1]: the
// elements a set of block coordinates covers. Gaps stay gaps, so the
// result is canonical as built.
func (s IntervalSet) Scale(w int64) IntervalSet {
	if w == 1 || s.Empty() {
		return s
	}
	out := make([]Rect, len(s.rects))
	for i, r := range s.rects {
		out[i] = Rect{Lo: r.Lo * w, Hi: r.Hi*w + w - 1}
	}
	return IntervalSet{rects: out}
}

// Each calls f for every index in s in increasing order.
func (s IntervalSet) Each(f func(int64)) {
	for _, r := range s.rects {
		for p := r.Lo; p <= r.Hi; p++ {
			f(p)
		}
	}
}

func (s IntervalSet) String() string {
	if s.Empty() {
		return "{}"
	}
	parts := make([]string, len(s.rects))
	for i, r := range s.rects {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
