package main

import (
	"fmt"
	"io"
	"math"
)

// The four things -compare can say about a (metric, workload) row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

// verdict judges one end-to-end row of a second measurement b against
// the first a. A spread (interquartile range over median) wider than
// the metric's bound on either side means the measurement cannot tell a
// change of that size from noise: the row is unresolved, not unchanged.
// Otherwise b is worse or better when its median moved by more than the
// bound in that direction, and within bound when it did not.
func verdict(a, b row) (string, float64) {
	change := (b.Median - a.Median) / math.Abs(a.Median)
	if a.Better == "higher" {
		change = -change // positive now always means worse
	}
	if a.N < 2 || b.N < 2 {
		return verdictUnresolved, change
	}
	noise := math.Max((a.Q3-a.Q1)/math.Abs(a.Median), (b.Q3-b.Q1)/math.Abs(b.Median))
	switch {
	case !(noise <= a.Bound):
		return verdictUnresolved, change
	case change > a.Bound:
		return verdictWorse, change
	case change < -a.Bound:
		return verdictBetter, change
	}
	return verdictWithin, change
}

// compare prints one line per (end-to-end metric, workload) row found
// in both files and reports whether any row got worse. Count metrics
// that repeat exactly (per-layer rows with zero spread on both sides)
// are listed when they differ, since a count may carry a claim only if
// it is identical between runs of the same commit.
func compare(out io.Writer, a, b *resultsFile) (worse bool) {
	find := func(rf *resultsFile, workload, name string) *row {
		for i := range rf.Rows {
			if rf.Rows[i].Workload == workload && rf.Rows[i].Metric == name {
				return &rf.Rows[i]
			}
		}
		return nil
	}
	fmt.Fprintf(out, "%-16s %-12s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "change", "iqr a", "iqr b", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			ra, rb := find(a, w.Name, m.Name), find(b, w.Name, m.Name)
			if ra == nil || rb == nil {
				continue
			}
			v, change := verdict(*ra, *rb)
			if v == verdictWorse {
				worse = true
			}
			fmt.Fprintf(out, "%-16s %-12s %12.5g %12.5g %+7.1f%% %6.1f%% %6.1f%%  %s (bound %.0f%%)\n",
				w.Name, m.Name, ra.Median, rb.Median, 100*change,
				100*(ra.Q3-ra.Q1)/math.Abs(ra.Median), 100*(rb.Q3-rb.Q1)/math.Abs(rb.Median), v, 100*m.Bound)
		}
	}
	for _, w := range workloads {
		for _, m := range perLayer {
			ra, rb := find(a, w.Name, m.Name), find(b, w.Name, m.Name)
			if ra == nil || rb == nil || m.Unit != "count" || ra.Q1 != ra.Q3 || rb.Q1 != rb.Q3 {
				continue
			}
			if ra.Median != rb.Median {
				fmt.Fprintf(out, "%-16s %-28s count differs: %g vs %g\n", w.Name, m.Name, ra.Median, rb.Median)
			}
		}
	}
	return worse
}
