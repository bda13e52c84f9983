package geometry

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refFromPoints is the sort-based model FromPoints must agree with on
// both sides of its bitmap/sort switch.
func refFromPoints(points []int64) []Rect {
	ps := slices.Clone(points)
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	var out []Rect
	for _, p := range ps {
		if n := len(out); n > 0 && (p == out[n-1].Hi || p == out[n-1].Hi+1) {
			out[n-1].Hi = p
			continue
		}
		out = append(out, Rect{Lo: p, Hi: p})
	}
	return out
}

// checkFromPoints asserts the canonical form (sorted, disjoint,
// non-adjacent), exact membership, agreement with the reference, and
// that the input is left alone.
func checkFromPoints(t *testing.T, points []int64) {
	t.Helper()
	in := slices.Clone(points)
	got := FromPoints(points)
	if !slices.Equal(points, in) {
		t.Fatalf("FromPoints mutated its input")
	}
	rects := got.Rects()
	distinct := map[int64]bool{}
	for _, p := range points {
		distinct[p] = true
		if !got.Contains(p) {
			t.Fatalf("point %d missing from %v", p, got)
		}
	}
	checkCanonical(t, "FromPoints", got)
	if size := got.Size(); size != int64(len(distinct)) {
		t.Fatalf("%v holds %d indices, input has %d distinct points", got, size, len(distinct))
	}
	if want := refFromPoints(points); !slices.Equal(rects, want) {
		t.Fatalf("FromPoints = %v, reference %v", rects, want)
	}
}

// TestFromPointsProperty drives both construction paths: spans on each
// side of the 64x switch, duplicates, negatives, singletons, the int64
// extremes, and runs of 63/64/65/128 placed around bitmap word
// boundaries.
func TestFromPointsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, pts := range [][]int64{
		{7}, {-7}, {7, 7, 7}, {0, 64}, {0, 63}, {-1, 0, 1},
		{math.MaxInt64}, {math.MinInt64}, {math.MinInt64, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64}, {math.MinInt64, math.MinInt64 + 1},
	} {
		checkFromPoints(t, pts)
	}
	for _, run := range []int64{63, 64, 65, 128} {
		for _, off := range []int64{0, 1, 62, 63, 64, 65, 127, 128} {
			for _, lo := range []int64{0, -1000, math.MaxInt64 - 4096} {
				pts := []int64{lo} // anchors bit 0 of the bitmap
				for i := int64(0); i < run; i++ {
					pts = append(pts, lo+off+i, lo+off+i)
				}
				pts = append(pts, lo+off+run+1) // a one-index gap after the run
				rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
				checkFromPoints(t, pts)
			}
		}
	}
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(200)
		// perPoint straddles the switch: the span is about perPoint*n.
		perPoint := []int64{1, 8, 60, 63, 64, 65, 70, 1000, 1 << 40}[rng.Intn(9)]
		base := rng.Int63n(1<<20) - 1<<19
		pts := make([]int64, n)
		for i := range pts {
			pts[i] = base + rng.Int63n(perPoint*int64(n))
		}
		checkFromPoints(t, pts)
	}
}

// FuzzFromPoints decodes the input as zig-zag varints — single bytes
// give a dense cluster around zero (the bitmap path), ten-byte groups
// reach the int64 extremes (the sort path) — and checks every property
// of checkFromPoints.
func FuzzFromPoints(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{2, 4, 4, 8, 1, 3, 126, 127})
	f.Add(binary.AppendVarint(binary.AppendVarint(nil, math.MinInt64), math.MaxInt64))
	f.Add(binary.AppendVarint([]byte{0, 2, 4}, 1<<40))
	dense := make([]byte, 0, 300)
	for i := int64(0); i < 130; i++ {
		dense = binary.AppendVarint(dense, 63+i)
	}
	f.Add(dense)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFromPoints(t, decodeVarints(data))
	})
}

// decodeVarints reads data as a sequence of zig-zag varints, stopping at
// the first malformed one.
func decodeVarints(data []byte) []int64 {
	var pts []int64
	for len(data) > 0 {
		v, n := binary.Varint(data)
		if n <= 0 {
			break
		}
		pts = append(pts, v)
		data = data[n:]
	}
	return pts
}
