package bench

import (
	"fmt"
	"testing"
)

// tinyOptions keeps figure tests fast while preserving the regimes the
// shape assertions need.
func tinyOptions() Options {
	return Options{
		GPUCounts:       []int{1, 3, 6},
		CPUCounts:       []int{1, 2, 4},
		UnitsPerProc:    1 << 12,
		Iters:           3,
		Runs:            1,
		MFScale:         2000,
		MFEpochBatches:  3,
		OverheadScale:   1.0 / 64,
		MFOverheadScale: 1.0 / 16,
		SDDMMPenalty:    24,
	}
}

// TestFig8Shape: the SpMV microbenchmark is trivially parallel — Legate
// and PETSc weak-scale nearly flat, SciPy cannot scale, and Legate pays
// a small penalty vs PETSc/CuPy for its global matrix representation.
func TestFig8Shape(t *testing.T) {
	fig := Fig8SpMV(tinyOptions())
	legate := fig.Find("Legate-GPU")
	petsc := fig.Find("PETSc-GPU")
	scipy := fig.Find("SciPy")
	cupy := fig.Find("CuPy (1 GPU)")
	if legate == nil || petsc == nil || scipy == nil || cupy == nil {
		t.Fatal("missing series")
	}
	// Weak scaling: last point within 25% of the first.
	if eff := legate.Last() / legate.First(); eff < 0.75 {
		t.Errorf("Legate-GPU weak-scaling efficiency %v, want ≥ 0.75", eff)
	}
	if eff := petsc.Last() / petsc.First(); eff < 0.75 {
		t.Errorf("PETSc-GPU weak-scaling efficiency %v, want ≥ 0.75", eff)
	}
	// SciPy cannot weak-scale: throughput falls roughly linearly.
	if ratio := scipy.Last() / scipy.First(); ratio > 0.5 {
		t.Errorf("SciPy should fall with problem size, got ratio %v", ratio)
	}
	// Legate is slightly below PETSc and CuPy (§3's reshaping overhead /
	// runtime overheads), but competitive.
	r := legate.First() / petsc.First()
	if r >= 1.0 || r < 0.5 {
		t.Errorf("Legate/PETSc at 1 GPU = %v, want within [0.5, 1)", r)
	}
	if legate.First() > cupy.First() {
		t.Errorf("CuPy should edge out Legate on a single GPU")
	}
	// GPUs far outperform CPU sockets.
	cpuLegate := fig.Find("Legate-CPU")
	if legate.First() < 3*cpuLegate.First() {
		t.Error("GPU SpMV should be several times faster than a socket")
	}
}

// TestFig9Shape: CG weak-scales well; Legate achieves a high fraction of
// PETSc at small scale and loses ground as the all-reduce and analysis
// overheads surface (85% → 65% in the paper).
func TestFig9Shape(t *testing.T) {
	fig := Fig9CG(tinyOptions())
	legate := fig.Find("Legate-GPU")
	petsc := fig.Find("PETSc-GPU")
	r1 := legate.First() / petsc.First()
	rN := legate.Last() / petsc.Last()
	if r1 < 0.6 || r1 > 1.05 {
		t.Errorf("Legate/PETSc at 1 GPU = %v, want ~0.85", r1)
	}
	if rN >= r1 {
		t.Errorf("Legate should lose ground to PETSc at scale: %v -> %v", r1, rN)
	}
	// CPU: both systems weak-scale; PETSc at or slightly above Legate.
	lc, pc := fig.Find("Legate-CPU"), fig.Find("PETSc-CPU")
	if lc.First() > pc.First()*1.1 {
		t.Errorf("PETSc-CPU should not lose to Legate-CPU: %v vs %v", pc.First(), lc.First())
	}
	if lc.Last() < 0.7*lc.First() {
		t.Errorf("Legate-CPU CG should weak-scale well: %v -> %v", lc.First(), lc.Last())
	}
	// Legate-CPU outperforms single-threaded SciPy.
	if sci := fig.Find("SciPy"); lc.First() < 3*sci.First() {
		t.Error("Legate-CPU should be several times faster than SciPy")
	}
}

// TestFig10Shape: on one GPU CuPy is faster than Legate (small tasks
// expose Legate overheads); Legate-CPU far outperforms SciPy; Legate
// still weak-scales usefully.
func TestFig10Shape(t *testing.T) {
	fig := Fig10GMG(tinyOptions())
	legate := fig.Find("Legate-GPU")
	cupy := fig.Find("CuPy (1 GPU)")
	r := cupy.First() / legate.First()
	if r <= 1.0 {
		t.Errorf("CuPy should beat Legate on one GPU (paper: 30%%), got ratio %v", r)
	}
	if r > 4 {
		t.Errorf("CuPy advantage %v looks implausibly large", r)
	}
	lc, sci := fig.Find("Legate-CPU"), fig.Find("SciPy")
	if lc.First() < 3*sci.First() {
		t.Error("Legate-CPU should be far faster than SciPy on GMG")
	}
	if sci.Last() >= sci.First()/2 {
		t.Error("SciPy cannot weak-scale GMG")
	}
}

// TestFig12Shape reproduces the Figure 12 table qualitatively: CuPy wins
// the smallest dataset, cannot fit the two largest, and Legate's minimum
// resource requirement grows with the dataset.
func TestFig12Shape(t *testing.T) {
	table := Fig12MF(tinyOptions())
	if len(table.Rows) != 4 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	r10, r25, r50, r100 := table.Rows[0], table.Rows[1], table.Rows[2], table.Rows[3]
	if r10.CuPyOOM || r25.CuPyOOM {
		t.Error("CuPy must fit ML-10M and ML-25M")
	}
	if !r50.CuPyOOM || !r100.CuPyOOM {
		t.Error("CuPy must OOM on ML-50M and ML-100M")
	}
	if r10.CuPySamples <= r10.LegateSamples {
		t.Error("CuPy should beat Legate on ML-10M (small tasks)")
	}
	if r25.LegateSamples <= r25.CuPySamples {
		t.Error("Legate should beat CuPy on ML-25M (memory pressure + SDDMM)")
	}
	if r10.MinGPUs != 1 {
		t.Errorf("ML-10M min GPUs = %d, want 1", r10.MinGPUs)
	}
	if !(r10.MinGPUs <= r25.MinGPUs && r25.MinGPUs <= r50.MinGPUs && r50.MinGPUs <= r100.MinGPUs) {
		t.Errorf("min GPUs must be nondecreasing: %d %d %d %d",
			r10.MinGPUs, r25.MinGPUs, r50.MinGPUs, r100.MinGPUs)
	}
	if r50.MinGPUs == 0 || r100.MinGPUs == 0 {
		t.Error("Legate must fit every dataset at some GPU count")
	}
	if table.FormatTable() == "" || table.Markdown() == "" {
		t.Error("table formatting empty")
	}
}

// TestCGGolden pins the Figure 9 rows — all six series, PETSc's CG
// included — against testdata/cg.golden at a reduced size that keeps
// every launch under the inline grain, so the simulated throughputs are
// a deterministic function of the solver's launch stream. A change to
// either CG recurrence that moves any row shows up as a diff. Run with
// -update to rewrite the file.
func TestCGGolden(t *testing.T) {
	opt := SmallOptions()
	opt.UnitsPerProc = 128
	opt.Runs = 1
	checkGolden(t, "testdata/cg.golden", Fig9CG(opt).FormatFigure())
}

// TestQuantumGolden pins the Figure 11 rows and the quantum
// analysis-scaling ablation against testdata/quantum.golden, at a size
// where the Hamiltonian SpMV is over the inline grain: its points are
// queued and run concurrently, so the rows hold only because every
// launch is mapped at issue. Run with -update to rewrite the file. The
// same simulation feeds the Figure 11 shape and ablation assertions.
func TestQuantumGolden(t *testing.T) {
	opt := tinyOptions()
	fig, ab := Fig11Quantum(opt), AblationAnalysisScaling(opt)
	checkGolden(t, "testdata/quantum.golden", fig.FormatFigure()+
		fmt.Sprintf("%s\n  %s\n  with: %v   without: %v\n", ab.Name, ab.Metric, ab.With, ab.Without))

	// CuPy leads on one GPU; the near-all-to-all communication pattern
	// costs Legate-GPU weak-scaling efficiency as processors are added.
	t.Run("Fig11Shape", func(t *testing.T) {
		legate := fig.Find("Legate-GPU")
		cupy := fig.Find("CuPy (1 GPU)")
		if cupy.First() <= legate.First() {
			t.Error("CuPy should lead Legate on one GPU (paper: 40%)")
		}
		if eff := legate.Last() / legate.First(); eff > 0.96 {
			t.Errorf("quantum weak-scaling should lose efficiency (all-to-all), got %v", eff)
		}
		// The GPU version beats the CPU version at small scale (NVLink).
		lc := fig.Find("Legate-CPU")
		if legate.First() < lc.First() {
			t.Error("GPU quantum should beat CPU at small scale")
		}
		if sci := fig.Find("SciPy"); lc.First() < 2*sci.First() {
			t.Error("Legate-CPU should be far faster than SciPy")
		}
	})

	// Tracing must also help the quantum workload at the largest
	// processor count, where per-point analysis grows with the launch
	// domain.
	t.Run("AblationAnalysisScaling", func(t *testing.T) {
		if ab.With <= ab.Without {
			t.Fatalf("tracing should improve scaled quantum throughput: with=%v without=%v",
				ab.With, ab.Without)
		}
	})
}
