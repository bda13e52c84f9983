package geometry

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refSet is a brute-force model of IntervalSet over a small universe,
// used as the oracle for property tests.
type refSet map[int64]bool

func toRef(s IntervalSet) refSet {
	m := refSet{}
	s.Each(func(p int64) { m[p] = true })
	return m
}

func refEqual(a, b refSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func randomSet(rng *rand.Rand) IntervalSet {
	n := rng.Intn(6)
	rects := make([]Rect, n)
	for i := range rects {
		lo := rng.Int63n(64)
		rects[i] = NewRect(lo, lo+rng.Int63n(16))
	}
	return NewIntervalSet(rects...)
}

func TestIntervalSetCanonical(t *testing.T) {
	s := NewIntervalSet(NewRect(5, 9), NewRect(0, 3), NewRect(4, 4), NewRect(20, 25), EmptyRect)
	// [0,3] [4,4] [5,9] merge into [0,9]; [20,25] stays.
	rs := s.Rects()
	if len(rs) != 2 || !rs[0].Equal(NewRect(0, 9)) || !rs[1].Equal(NewRect(20, 25)) {
		t.Fatalf("canonicalization wrong: %v", s)
	}
	if s.Size() != 16 {
		t.Fatalf("Size = %d, want 16", s.Size())
	}
	if !s.Bounds().Equal(NewRect(0, 25)) {
		t.Fatalf("Bounds = %v", s.Bounds())
	}
}

// TestIntervalSetDropsMergeScratch: a set built from many intervals
// that merge into few keeps storage for the few. A by-range image over
// 131,072 rows is such a merge, and each of its per-point sets lives as
// long as the matrix.
func TestIntervalSetDropsMergeScratch(t *testing.T) {
	rows := make([]Rect, 1<<17)
	for i := range rows {
		rows[i] = NewRect(int64(3*i), int64(3*i+2)) // adjacent: one interval
	}
	rows = append(rows, NewRect(1<<20, 1<<20+5))
	s := NewIntervalSet(rows...)
	if got := len(s.rects); got != 2 {
		t.Fatalf("merged into %d intervals, want 2", got)
	}
	if c := cap(s.rects); c > 4 {
		t.Errorf("a set of 2 intervals keeps capacity for %d", c)
	}
}

func TestIntervalSetZeroValue(t *testing.T) {
	var s IntervalSet
	if !s.Empty() || s.Size() != 0 {
		t.Fatal("zero IntervalSet must be empty")
	}
	if !s.Union(NewIntervalSet(NewRect(1, 2))).Equal(NewIntervalSet(NewRect(1, 2))) {
		t.Fatal("union with zero value broken")
	}
	if !s.Intersect(NewIntervalSet(NewRect(1, 2))).Empty() {
		t.Fatal("intersect with zero value broken")
	}
	if !s.Subtract(NewIntervalSet(NewRect(1, 2))).Empty() {
		t.Fatal("subtract from zero value broken")
	}
}

func TestIntervalSetContains(t *testing.T) {
	s := NewIntervalSet(NewRect(0, 3), NewRect(10, 12))
	for _, p := range []int64{0, 3, 10, 12} {
		if !s.Contains(p) {
			t.Errorf("should contain %d", p)
		}
	}
	for _, p := range []int64{-1, 4, 9, 13} {
		if s.Contains(p) {
			t.Errorf("should not contain %d", p)
		}
	}
}

func TestIntervalSetSubtractCases(t *testing.T) {
	s := NewIntervalSet(NewRect(0, 9))
	got := s.Subtract(NewIntervalSet(NewRect(3, 5)))
	want := NewIntervalSet(NewRect(0, 2), NewRect(6, 9))
	if !got.Equal(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// Subtracting a superset empties the set.
	if !s.Subtract(NewIntervalSet(NewRect(-5, 50))).Empty() {
		t.Fatal("subtracting superset should give empty")
	}
	// Subtracting a disjoint set is identity.
	if !s.Subtract(NewIntervalSet(NewRect(20, 30))).Equal(s) {
		t.Fatal("subtracting disjoint set should be identity")
	}
}

func TestFromPoints(t *testing.T) {
	s := FromPoints([]int64{5, 1, 2, 2, 3, 9, 8})
	want := NewIntervalSet(NewRect(1, 3), NewRect(5, 5), NewRect(8, 9))
	if !s.Equal(want) {
		t.Fatalf("got %v want %v", s, want)
	}
	if !FromPoints(nil).Empty() {
		t.Fatal("FromPoints(nil) must be empty")
	}
}

func TestIntervalSetShift(t *testing.T) {
	s := NewIntervalSet(NewRect(0, 2), NewRect(5, 6)).Shift(100)
	want := NewIntervalSet(NewRect(100, 102), NewRect(105, 106))
	if !s.Equal(want) {
		t.Fatalf("got %v want %v", s, want)
	}
}

// TestIntervalSetScale: each index becomes a run of w, and runs that
// touch after scaling stay separate rects only if they were separate.
func TestIntervalSetScale(t *testing.T) {
	s := NewIntervalSet(NewRect(0, 1), NewRect(3, 3)).Scale(3)
	want := NewIntervalSet(NewRect(0, 5), NewRect(9, 11))
	if !s.Equal(want) || len(s.Rects()) != 2 {
		t.Fatalf("got %v want %v", s, want)
	}
	if !(IntervalSet{}).Scale(4).Empty() {
		t.Fatal("scaling the empty set must stay empty")
	}
}

// Property: all binary set operations agree with the brute-force model.
func TestIntervalSetAlgebraProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng), randomSet(rng)
		ra, rb := toRef(a), toRef(b)

		union := toRef(a.Union(b))
		inter := toRef(a.Intersect(b))
		diff := toRef(a.Subtract(b))

		wantUnion, wantInter, wantDiff := refSet{}, refSet{}, refSet{}
		for k := range ra {
			wantUnion[k] = true
			if rb[k] {
				wantInter[k] = true
			} else {
				wantDiff[k] = true
			}
		}
		for k := range rb {
			wantUnion[k] = true
		}
		if !refEqual(union, wantUnion) || !refEqual(inter, wantInter) || !refEqual(diff, wantDiff) {
			return false
		}
		// Overlaps must agree with non-empty intersection.
		if a.Overlaps(b) != (len(wantInter) > 0) {
			return false
		}
		// ContainsSet must agree with the model.
		sub := true
		for k := range rb {
			if !ra[k] {
				sub = false
				break
			}
		}
		return a.ContainsSet(b) == sub
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: canonical form is always sorted, disjoint, and non-adjacent.
func TestIntervalSetCanonicalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSet(rng).Union(randomSet(rng)).Subtract(randomSet(rng))
		rs := s.Rects()
		for i, r := range rs {
			if r.Empty() {
				return false
			}
			if i > 0 && rs[i-1].Hi+1 >= r.Lo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan-ish identity A \ (A \ B) == A ∩ B.
func TestIntervalSetDoubleSubtract(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomSet(rng), randomSet(rng)
		return a.Subtract(a.Subtract(b)).Equal(a.Intersect(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// checkCanonical fails unless s is sorted, disjoint and non-adjacent.
func checkCanonical(t *testing.T, what string, s IntervalSet) {
	t.Helper()
	rs := s.Rects()
	for i, r := range rs {
		if r.Empty() || (i > 0 && (rs[i-1].Hi >= r.Lo || rs[i-1].Hi+1 == r.Lo)) {
			t.Fatalf("%s = %v is not canonical at interval %d", what, s, i)
		}
	}
}

// TestIntervalSetUnionMatchesRebuild pins the merge Union to the
// definition it replaced — canonicalize the concatenation — and the
// walking ContainsSet to Subtract, on the operand shapes the mapper
// produces (empty, identical, nested, adjacent) and on random sets.
func TestIntervalSetUnionMatchesRebuild(t *testing.T) {
	check := func(a, b IntervalSet) {
		t.Helper()
		got := a.Union(b)
		want := NewIntervalSet(append(append([]Rect{}, a.Rects()...), b.Rects()...)...)
		if !got.Equal(want) {
			t.Fatalf("%v ∪ %v = %v, rebuild gives %v", a, b, got, want)
		}
		checkCanonical(t, "union", got)
		if got, want := a.ContainsSet(b), b.Subtract(a).Empty(); got != want {
			t.Fatalf("%v.ContainsSet(%v) = %v, Subtract says %v", a, b, got, want)
		}
	}
	blocks := NewIntervalSet(NewRect(0, 9), NewRect(20, 29), NewRect(40, 49))
	for _, b := range []IntervalSet{
		{}, blocks,
		NewIntervalSet(NewRect(22, 25)),                   // nested
		NewIntervalSet(NewRect(10, 19)),                   // adjacent on both sides: bridges two intervals
		NewIntervalSet(NewRect(30, 30)),                   // adjacent on the left only
		NewIntervalSet(NewRect(-5, 60)),                   // covers everything
		NewIntervalSet(NewRect(5, 24), NewRect(45, 70)),   // straddles
		NewIntervalSet(NewRect(11, 18), NewRect(31, 38)),  // interleaved, touching nothing
		NewIntervalSet(NewRect(-9, -1), NewRect(50, 50)),  // before the first, abutting the last
		NewIntervalSet(NewRect(0, 9), NewRect(20, 29)),    // a prefix of the intervals
		NewIntervalSet(NewRect(60, 69), NewRect(80, 89)),  // strictly after
		NewIntervalSet(NewRect(-20, -11), NewRect(-9, 0)), // strictly before, overlapping one index
	} {
		check(blocks, b)
		check(b, blocks)
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 5000; i++ {
		a, b := randomSet(rng), randomSet(rng)
		check(a, b)
		check(a, a.Union(b)) // superset operand
		check(a.Union(b), a) // subset operand: the steady-state no-op
	}
}

// FuzzIntervalSetAlgebra builds two sets from fuzzed points (so the
// int64 extremes are reachable) and checks the identities the mapper's
// validity tracking relies on.
func FuzzIntervalSetAlgebra(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 2, 4}, []byte{6, 8})         // adjacent runs
	f.Add([]byte{0, 2, 4, 20}, []byte{2, 2, 20}) // nested, duplicates
	f.Add(binary.AppendVarint(nil, math.MaxInt64), binary.AppendVarint([]byte{0}, math.MaxInt64-1))
	f.Add(binary.AppendVarint(nil, math.MinInt64), binary.AppendVarint(nil, math.MinInt64+1))
	f.Add(binary.AppendVarint(nil, math.MaxInt64), binary.AppendVarint(nil, math.MaxInt64)) // Subtract's Hi+1
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, b := FromPoints(decodeVarints(da)), FromPoints(decodeVarints(db))
		u, x, d := a.Union(b), a.Intersect(b), a.Subtract(b)
		checkCanonical(t, "union", u)
		checkCanonical(t, "intersection", x)
		checkCanonical(t, "difference", d)
		if u.Size() != a.Size()+b.Size()-x.Size() {
			t.Fatalf("|%v ∪ %v| = %d, want %d + %d - %d", a, b, u.Size(), a.Size(), b.Size(), x.Size())
		}
		if !u.ContainsSet(a) || !u.ContainsSet(b) || !u.Equal(b.Union(a)) {
			t.Fatalf("%v ∪ %v = %v does not contain both or does not commute", a, b, u)
		}
		if !d.Union(x).Equal(a) || d.Overlaps(b) || x.Overlaps(d) {
			t.Fatalf("(%v \\ %v) and their intersection do not partition the first", a, b)
		}
		if a.ContainsSet(b) != b.Subtract(a).Empty() || a.Overlaps(b) != !x.Empty() {
			t.Fatalf("ContainsSet/Overlaps of %v and %v disagree with Subtract/Intersect", a, b)
		}
		if n := a.IntersectSize(b); n != x.Size() {
			t.Fatalf("IntersectSize(%v, %v) = %d, want %d", a, b, n, x.Size())
		}
		buf := []Rect{NewRect(-5, -1)} // stale contents are overwritten
		if di := a.SubtractInto(b, &buf); !di.Equal(d) || len(buf) != len(d.Rects()) {
			t.Fatalf("SubtractInto(%v, %v) = %v, want %v", a, b, di, d)
		}
	})
}

// TestIntervalSetAllocBudgets: the predicates allocate nothing, a Union
// allocates its result and nothing else, a Union that adds nothing
// returns its receiver, and a SubtractInto a buffer large enough
// allocates nothing.
func TestIntervalSetAllocBudgets(t *testing.T) {
	a := NewIntervalSet(NewRect(0, 9), NewRect(20, 29), NewRect(40, 49))
	sub := NewIntervalSet(NewRect(2, 5), NewRect(40, 49))
	other := NewIntervalSet(NewRect(5, 24), NewRect(60, 70))
	var sink IntervalSet
	var flag bool
	buf := make([]Rect, 0, 8)
	for _, c := range []struct {
		name   string
		budget float64
		f      func()
	}{
		{"Union", 1, func() { sink = a.Union(other) }},
		{"Union of a subset", 0, func() { sink = a.Union(sub) }},
		{"ContainsSet", 0, func() { flag = a.ContainsSet(sub) != a.ContainsSet(other) }},
		{"Overlaps", 0, func() { flag = a.Overlaps(sub) && a.Overlaps(other) }},
		{"IntersectSize", 0, func() { flag = a.IntersectSize(other) == 0 }},
		{"SubtractInto a warm buffer", 0, func() { sink = a.SubtractInto(other, &buf) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.budget {
			t.Errorf("%s: %v allocs/op, budget %v", c.name, got, c.budget)
		}
	}
	_, _ = sink, flag
}

func BenchmarkIntervalSetUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sets := make([]IntervalSet, 64)
	for i := range sets {
		sets[i] = randomSet(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sets[i%64].Union(sets[(i+1)%64])
	}
}

func BenchmarkFromPoints(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]int64, 4096)
	for i := range pts {
		pts[i] = rng.Int63n(1 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FromPoints(pts)
	}
}
