package core

import "repro/internal/geometry"

// BalancedCuts returns a contiguous partition of [0, len(weights))
// into parts pieces holding approximately equal total weight, via a
// greedy ceil-share cut: each piece takes rows until it holds its
// ceiling share of the remaining weight (always at least one row), and
// the last piece takes the rest. Pieces past the end of the rows come
// back as EmptyRect. The shard coordinator places nnz-balanced row
// blocks with these cuts.
func BalancedCuts(weights []int64, parts int) []geometry.Rect {
	rows := int64(len(weights))
	var total int64
	for _, w := range weights {
		total += w
	}
	rects := make([]geometry.Rect, parts)
	row, used := int64(0), int64(0)
	for c := 0; c < parts; c++ {
		if row >= rows {
			rects[c] = geometry.EmptyRect
			continue
		}
		if c == parts-1 {
			rects[c] = geometry.NewRect(row, rows-1)
			row = rows
			continue
		}
		// Greedy cut: give this color rows until it holds its ceil share
		// of the remaining entries (always at least one row).
		share := (total - used + int64(parts-c) - 1) / int64(parts-c)
		start := row
		cum := int64(0)
		for row < rows && (cum < share || row == start) {
			cum += weights[row]
			row++
		}
		used += cum
		rects[c] = geometry.NewRect(start, row-1)
	}
	return rects
}
