package mlearn

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geometry"
	"repro/internal/legion"
	"repro/internal/machine"
	"repro/internal/prof"
)

func newRT(t testing.TB, gpus int) *legion.Runtime {
	t.Helper()
	m := machine.Summit((gpus + 5) / 6)
	rt := legion.NewRuntime(m, m.Select(machine.GPU, gpus))
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestSyntheticDatasetShape(t *testing.T) {
	d := Synthetic("test", 200, 100, 3000, 1)
	if d.NNZ() == 0 || d.NNZ() > 3000 {
		t.Fatalf("nnz = %d", d.NNZ())
	}
	// Deduplication may drop some samples but most should survive.
	if d.NNZ() < 2000 {
		t.Fatalf("too many duplicates dropped: %d", d.NNZ())
	}
	seen := map[int64]bool{}
	for k := range d.R {
		if d.U[k] < 0 || d.U[k] >= 200 || d.I[k] < 0 || d.I[k] >= 100 {
			t.Fatalf("sample %d out of range: (%d,%d)", k, d.U[k], d.I[k])
		}
		if d.R[k] < 0.5 || d.R[k] > 5 {
			t.Fatalf("rating %v out of range", d.R[k])
		}
		key := d.U[k]*100 + d.I[k]
		if seen[key] {
			t.Fatalf("duplicate sample (%d,%d)", d.U[k], d.I[k])
		}
		seen[key] = true
	}
	// Power-law shape: the first tenth of users should hold well over a
	// tenth of the ratings.
	var lowUsers int64
	for _, u := range d.U {
		if u < 20 {
			lowUsers++
		}
	}
	if float64(lowUsers)/float64(d.NNZ()) < 0.2 {
		t.Errorf("user distribution not skewed: %d/%d in first decile", lowUsers, d.NNZ())
	}
}

func TestFractalExpansion(t *testing.T) {
	base := Synthetic("base", 100, 50, 1000, 2)
	ex := FractalExpand(base, "expanded", 4, 1.0, 3)
	if ex.Users != 400 || ex.Items != 200 {
		t.Fatalf("expanded shape %dx%d", ex.Users, ex.Items)
	}
	if ex.NNZ() != 4*base.NNZ() {
		t.Fatalf("expanded nnz = %d, want %d", ex.NNZ(), 4*base.NNZ())
	}
	// keep < 1 drops samples.
	ex2 := FractalExpand(base, "thin", 4, 0.5, 3)
	ratio := float64(ex2.NNZ()) / float64(4*base.NNZ())
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("keep=0.5 retained %v of samples", ratio)
	}
	for k := range ex.R {
		if ex.U[k] >= ex.Users || ex.I[k] >= ex.Items {
			t.Fatalf("expanded sample out of range")
		}
		if ex.R[k] < 0.5 || ex.R[k] > 5 {
			t.Fatalf("expanded rating %v out of range", ex.R[k])
		}
	}
}

func TestMovieLensFamilyScaling(t *testing.T) {
	fam := MovieLensFamily(1000)
	if len(fam) != 4 {
		t.Fatalf("family size %d", len(fam))
	}
	if fam[0].Ratings != 10000 || fam[1].Ratings != 25000 {
		t.Fatalf("scaled ratings wrong: %d, %d", fam[0].Ratings, fam[1].Ratings)
	}
	// 50M/100M build via fractal expansion with the right relative size.
	d50 := fam[2].Build(1000, 5)
	d25 := fam[1].Build(1000, 5)
	r := float64(d50.NNZ()) / float64(d25.NNZ())
	if r < 1.8 || r > 2.2 {
		t.Fatalf("ML-50M/ML-25M nnz ratio = %v, want ~2", r)
	}
}

// TestTrainingReducesLoss: several epochs of SGD on a planted low-rank
// dataset must reduce both the batch loss and the RMSE well below the
// trivial (mean-rating) baseline.
func TestTrainingReducesLoss(t *testing.T) {
	rt := newRT(t, 3)
	ds := Synthetic("train", 300, 120, 6000, 7)
	cfg := DefaultConfig()
	cfg.Rank = 8
	cfg.BatchSize = 512
	cfg.LR = 0.1
	m := NewModel(rt, ds, cfg)
	defer m.Destroy()

	first, _ := m.Epoch(0)
	var last float64
	for e := 1; e < 30; e++ {
		last, _ = m.Epoch(e)
	}
	if rt.Err() != nil {
		t.Fatalf("runtime error: %v", rt.Err())
	}
	if last >= first*0.5 {
		t.Fatalf("loss barely decreased: %v -> %v", first, last)
	}

	// RMSE must beat the constant-mean predictor.
	rmse := m.RMSE(0)
	var mean, varr float64
	for _, r := range ds.R {
		mean += r
	}
	mean /= float64(ds.NNZ())
	for _, r := range ds.R {
		varr += (r - mean) * (r - mean)
	}
	base := math.Sqrt(varr / float64(ds.NNZ()))
	if rmse >= base {
		t.Fatalf("RMSE %v not better than mean baseline %v", rmse, base)
	}
}

// TestPartitionIndependentTraining: the same training run on different
// processor counts produces identical models (determinism of the
// distributed ops).
func TestPartitionIndependentTraining(t *testing.T) {
	run := func(gpus int) float64 {
		rt := newRT(t, gpus)
		ds := Synthetic("pi", 150, 80, 2000, 9)
		cfg := DefaultConfig()
		cfg.Rank = 4
		cfg.BatchSize = 256
		m := NewModel(rt, ds, cfg)
		defer m.Destroy()
		for e := 0; e < 3; e++ {
			m.Epoch(e)
		}
		return m.RMSE(0)
	}
	a, b := run(1), run(5)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("training differs across machine sizes: %v vs %v", a, b)
	}
}

// TestOOMOnSmallGPU: with a tiny modeled framebuffer the dataset upload
// must fail with OOM — the Figure 12 CuPy behaviour.
func TestOOMOnSmallGPU(t *testing.T) {
	m := machine.New(machine.Config{Nodes: 1})
	m.Cost().MemCapacity[machine.GPU] = 64 << 10 // 64 KiB
	rt := legion.NewRuntime(m, m.Select(machine.GPU, 1))
	defer rt.Shutdown()
	ds := Synthetic("oom", 500, 200, 8000, 11)
	model := NewModel(rt, ds, DefaultConfig())
	defer model.Destroy()
	rt.Fence()
	if rt.Err() == nil {
		t.Fatal("expected OOM uploading the dataset to a tiny GPU")
	}
}

// TestHeldOutEvaluation: training improves the held-out RMSE, the
// protocol behind the paper's "99.7% of SOTA prediction performance"
// claim.
func TestHeldOutEvaluation(t *testing.T) {
	rt := newRT(t, 2)
	full := Synthetic("heldout", 800, 300, 20000, 23)
	train, test := full.Split(0.2, 99)
	if test.NNZ() == 0 || train.NNZ() == 0 {
		t.Fatal("split produced an empty side")
	}
	frac := float64(test.NNZ()) / float64(full.NNZ())
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("test fraction = %v, want ~0.2", frac)
	}
	if train.NNZ()+test.NNZ() != full.NNZ() {
		t.Fatal("split lost samples")
	}

	cfg := DefaultConfig()
	cfg.Rank = 8
	cfg.BatchSize = 1024
	m := NewModel(rt, train, cfg)
	defer m.Destroy()
	before := m.RMSEOn(test)
	for e := 0; e < 20; e++ {
		m.Epoch(e)
	}
	after := m.RMSEOn(test)
	if after >= before-0.05 {
		t.Fatalf("held-out RMSE did not improve enough: %v -> %v", before, after)
	}
}

// TestErrorMatrixWork: mf.error declares its per-point work as the image
// of its user block in crd, so each point charges the batch's ratings by
// the users it owns — counted here straight from the samples.
func TestErrorMatrixWork(t *testing.T) {
	rt := newRT(t, 3)
	sink := prof.NewSink(0)
	rt.EnableProfiling(sink)
	ds := Synthetic("work", 90, 40, 1500, 3)
	cfg := DefaultConfig()
	cfg.Rank = 4
	m := NewModel(rt, ds, cfg)
	defer m.Destroy()
	samples := make([]int64, 300)
	for k := range samples {
		samples[k] = int64(k) * (ds.NNZ() / int64(len(samples)))
	}
	m.TrainBatch(samples)
	rt.Fence()

	blocks := geometry.Tile(geometry.NewRect(0, ds.Users-1), rt.LaunchDomain())
	want := make([]int64, len(blocks))
	for _, s := range samples {
		for p, b := range blocks {
			if b.Contains(ds.U[s]) {
				want[p]++
			}
		}
	}
	got := make([]int64, len(blocks))
	for _, sp := range sink.Snapshot().Spans {
		if sp.Task == "mf.error" {
			got[sp.Point] = sp.Work
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("mf.error work per point = %v, want the ratings per user block %v", got, want)
	}
}
