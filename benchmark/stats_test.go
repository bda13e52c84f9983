package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(data, n=4) of these inputs, from CPython.
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 3}, 0.5, 3.5},
		{[]float64{10, 20, 30}, 10, 30},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if q1, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one value = %v, want NaN", q1)
	}
}

func TestSpreadIsIQROverMedian(t *testing.T) {
	got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := (8.25 - 2.75) / 5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestMedianOfNothingIsNotZero(t *testing.T) {
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("median(nil) = %v, want NaN", m)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// A pooled percentile is taken over every sample, so a slow epoch with
// many ops weighs more than a fast one with few; averaging per-epoch
// percentiles would hide that.
func TestPooledPercentile(t *testing.T) {
	fast := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	slow := []float64{9, 9}
	pooled := pool([][]float64{fast, slow})
	if len(pooled) != 10 {
		t.Fatalf("pooled %d samples, want 10", len(pooled))
	}
	if p := percentile(pooled, 50); p != 1 {
		t.Errorf("pooled p50 = %v, want 1", p)
	}
	if p := percentile(pooled, 90); p != 9 {
		t.Errorf("pooled p90 = %v, want 9", p)
	}
	if p := percentile(pooled, 80); p != 1 {
		t.Errorf("pooled p80 = %v, want 1 (nearest rank 8 of 10)", p)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {99, 50}, {100, 90}, {150, 90},
		{999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
