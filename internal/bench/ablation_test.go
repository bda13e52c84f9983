package bench

import "testing"

// TestAblationCoalescing: disabling the mapper's allocation coalescing
// and reuse machinery must make the power-iteration loop's steady-state
// data movement much larger — §4.3's recurring full vector copy.
func TestAblationCoalescing(t *testing.T) {
	res := AblationCoalescing(tinyOptions())
	if res.Without <= res.With {
		t.Fatalf("without coalescing movement (%v) should exceed with (%v)", res.Without, res.With)
	}
	if res.Without < 4*res.With {
		t.Errorf("expected a large gap (recurring full copies): with=%v without=%v", res.With, res.Without)
	}
}

// TestAblationTracing: tracing the GMG solve's repeated launch sequence
// must improve single-GPU throughput (the §6.1 future-work claim).
func TestAblationTracing(t *testing.T) {
	opt := tinyOptions()
	opt.UnitsPerProc = 1 << 10 // overhead-visible regime
	res := AblationTracing(opt)
	if res.With <= res.Without {
		t.Fatalf("tracing should improve GMG throughput: with=%v without=%v", res.With, res.Without)
	}
}

// TestAblationFusion: the task-fusion window must improve the GMG
// solve's single-GPU throughput by at least the ISSUE's 20% bar — the
// fused launches pay one LaunchOverhead per window instead of per op.
func TestAblationFusion(t *testing.T) {
	opt := tinyOptions()
	opt.UnitsPerProc = 1 << 10 // overhead-visible regime
	res := AblationFusion(opt)
	if res.With <= res.Without {
		t.Fatalf("fusion should improve GMG throughput: with=%v without=%v", res.With, res.Without)
	}
	if res.With < 1.25*res.Without {
		t.Errorf("fusion gain below 25%%: with=%v without=%v (%.1f%%)",
			res.With, res.Without, 100*(res.With/res.Without-1))
	}
}
