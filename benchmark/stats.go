package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It returns NaN for an empty slice so a
// metric that was never measured cannot pass for a zero.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is the rule the benchmark driver applies to the spread of ten
// runs. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	at := func(i int) float64 { // i-th of the three cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure every bound in BENCHMARK.json is judged
// against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule on the sorted sample, so the result is always a
// latency that was actually observed.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[max(rank(p, len(s)), 1)-1]
}

// rank is the nearest-rank position of the p-th percentile among n
// samples. The small slack keeps 99.9 % of 10000 at 9990, not 9991.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// pool concatenates per-epoch samples, for the tail latency of
// run.op_tail_ms that only every op of every good epoch together has
// enough samples for.
func pool(groups [][]float64) []float64 {
	var out []float64
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// tailLadder is the fixed set of percentiles a latency may be reported
// at, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that
// still has at least ten of n samples beyond it, the rule under which a
// tail latency is worth reporting. With fewer than 20 samples not even
// the median qualifies and it returns 0.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if beyond := n - rank(p, n); beyond >= 10 {
			best = p
		}
	}
	return best
}
