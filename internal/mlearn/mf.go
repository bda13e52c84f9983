package mlearn

import (
	"sort"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/geometry"
	"repro/internal/legion"
	"repro/internal/machine"
)

// Config holds the matrix-factorization hyperparameters.
type Config struct {
	Rank      int64   // latent dimension
	LR        float64 // learning rate
	Reg       float64 // L2 regularization
	BatchSize int64
	Seed      uint64
}

// DefaultConfig mirrors common MovieLens MF-with-bias settings.
func DefaultConfig() Config {
	return Config{Rank: 32, LR: 0.1, Reg: 0.02, BatchSize: 4096, Seed: 17}
}

// Model is the distributed matrix-factorization-with-bias model
// r̂(u,i) = μ + b_u + c_i + U_u · V_i, trained with mini-batch SGD. The
// full ratings dataset is resident in device memory (as on the paper's
// GPUs), which is what limits CuPy to the smaller datasets in Figure 12.
type Model struct {
	rt  *legion.Runtime
	cfg Config
	ds  *Dataset

	Mu float64
	BU *cunumeric.Array  // user biases
	CI *cunumeric.Array  // item biases
	U  *cunumeric.Matrix // user factors (users x rank)
	V  *cunumeric.Matrix // item factors (items x rank)

	// Device-resident copy of the dataset.
	devU, devI *legion.Region
	devR       *legion.Region

	order []int64 // epoch sample permutation
}

// NewModel uploads the dataset and initializes factors and biases.
func NewModel(rt *legion.Runtime, ds *Dataset, cfg Config) *Model {
	m := &Model{
		rt:  rt,
		cfg: cfg,
		ds:  ds,
		BU:  cunumeric.Zeros(rt, ds.Users),
		CI:  cunumeric.Zeros(rt, ds.Items),
		U:   cunumeric.RandomMatrix(rt, ds.Users, cfg.Rank, cfg.Seed+1, 0.1),
		V:   cunumeric.RandomMatrix(rt, ds.Items, cfg.Rank, cfg.Seed+2, 0.1),
	}
	var sum float64
	for _, r := range ds.R {
		sum += r
	}
	if ds.NNZ() > 0 {
		m.Mu = sum / float64(ds.NNZ())
	}

	// Upload the full dataset; a distributed touch task makes it
	// resident across the runtime's processors, so single-GPU systems
	// must hold all of it (the Figure 12 memory constraint).
	m.devU = rt.CreateInt64("ds.users", ds.U)
	m.devI = rt.CreateInt64("ds.items", ds.I)
	m.devR = rt.CreateFloat64("ds.ratings", ds.R)
	touch := constraint.NewTask(rt, "mf.load", func(tc *legion.TaskContext) {})
	vu := touch.AddInput(m.devU)
	vi := touch.AddInput(m.devI)
	vr := touch.AddInput(m.devR)
	touch.Align(vu, vi)
	touch.Align(vu, vr)
	touch.Execute()

	m.order = make([]int64, ds.NNZ())
	for i := range m.order {
		m.order[i] = int64(i)
	}
	return m
}

// Destroy releases the model's device state.
func (m *Model) Destroy() {
	m.BU.Destroy()
	m.CI.Destroy()
	m.U.Destroy()
	m.V.Destroy()
	m.rt.Destroy(m.devU)
	m.rt.Destroy(m.devI)
	m.rt.Destroy(m.devR)
}

// shuffle deterministically permutes the sample order for an epoch.
func (m *Model) shuffle(epoch int) {
	seed := m.cfg.Seed + uint64(epoch)*7919
	n := len(m.order)
	for i := n - 1; i > 0; i-- {
		j := int(cunumeric.Uniform01(seed, uint64(i)) * float64(i+1))
		if j > i {
			j = i
		}
		m.order[i], m.order[j] = m.order[j], m.order[i]
	}
}

// Shuffle deterministically permutes the epoch sample order (exposed
// for benchmark drivers that time individual batches).
func (m *Model) Shuffle(epoch int) { m.shuffle(epoch) }

// Order returns the current sample order.
func (m *Model) Order() []int64 { return m.order }

// batch is the device form of one mini-batch: the ratings matrix B, a
// same-pattern mask of ones for SDDMM, and the transposed pattern with
// the permutation taking B's value order to the transpose's.
type batch struct {
	n       int64
	b       *core.CSR      // ratings on the batch pattern
	mask    *core.CSR      // ones on the batch pattern
	bt      *core.CSR      // transposed pattern, values unset
	perm    *legion.Region // bt.vals[k] = vals[perm[k]]
	regions []*legion.Region
}

func (m *Model) buildBatch(samples []int64) *batch {
	rt := m.rt
	n := int64(len(samples))
	type trip struct {
		u, i int64
		r    float64
	}
	ts := make([]trip, n)
	for k, s := range samples {
		ts[k] = trip{u: m.ds.U[s], i: m.ds.I[s], r: m.ds.R[s]}
	}
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].u != ts[b].u {
			return ts[a].u < ts[b].u
		}
		return ts[a].i < ts[b].i
	})
	pos := make([]geometry.Rect, m.ds.Users)
	for i := range pos {
		pos[i] = geometry.EmptyRect
	}
	crd := make([]int64, n)
	rv := make([]float64, n)
	ones := make([]float64, n)
	for k, t := range ts {
		crd[k] = t.i
		rv[k] = t.r
		ones[k] = 1
		if pos[t.u].Empty() {
			pos[t.u] = geometry.PointRect(int64(k))
		} else {
			pos[t.u].Hi = int64(k)
		}
	}
	fixEmptyRanges(pos)

	// Transposed pattern (item-major) and the value permutation.
	idx := make([]int, n)
	for k := range idx {
		idx[k] = k
	}
	sort.Slice(idx, func(a, b int) bool {
		if ts[idx[a]].i != ts[idx[b]].i {
			return ts[idx[a]].i < ts[idx[b]].i
		}
		return ts[idx[a]].u < ts[idx[b]].u
	})
	posT := make([]geometry.Rect, m.ds.Items)
	for i := range posT {
		posT[i] = geometry.EmptyRect
	}
	crdT := make([]int64, n)
	perm := make([]int64, n)
	for k2, k := range idx {
		crdT[k2] = ts[k].u
		perm[k2] = int64(k)
		it := ts[k].i
		if posT[it].Empty() {
			posT[it] = geometry.PointRect(int64(k2))
		} else {
			posT[it].Hi = int64(k2)
		}
	}
	fixEmptyRanges(posT)

	posR := rt.CreateRects("B.pos", pos)
	crdR := rt.CreateInt64("B.crd", crd)
	valsR := rt.CreateFloat64("B.vals", rv)
	onesR := rt.CreateFloat64("B.ones", ones)
	posTR := rt.CreateRects("Bt.pos", posT)
	crdTR := rt.CreateInt64("Bt.crd", crdT)
	valsTR := rt.CreateRegion("Bt.vals", n, legion.Float64)
	permR := rt.CreateInt64("Bt.perm", perm)

	b := core.FromRegions(rt, m.ds.Users, m.ds.Items, posR, crdR, valsR)
	return &batch{
		n:       n,
		b:       b,
		mask:    b.WithValues(onesR),
		bt:      core.FromRegions(rt, m.ds.Items, m.ds.Users, posTR, crdTR, valsTR),
		perm:    permR,
		regions: []*legion.Region{posR, crdR, valsR, onesR, posTR, crdTR, valsTR, permR},
	}
}

// fixEmptyRanges gives empty rows well-positioned empty ranges so pos
// images stay contiguous (same convention as format conversion).
func fixEmptyRanges(pos []geometry.Rect) {
	next := int64(0)
	for i := range pos {
		if pos[i].Empty() {
			pos[i] = geometry.Rect{Lo: next, Hi: next - 1}
		} else {
			next = pos[i].Hi + 1
		}
	}
}

func (m *Model) destroyBatch(bt *batch) {
	for _, r := range bt.regions {
		m.rt.Destroy(r)
	}
}

// errorMatrix computes E's values on the batch pattern:
// e[k] = r[k] - μ - b_u(row) - c_i(col) - (U·V)[k], via a hand-written
// constraint task composing images of the batch structure.
func (m *Model) errorMatrix(bt *batch, pred *core.CSR) *core.CSR {
	rt := m.rt
	evals := rt.CreateRegion("E.vals", bt.n, legion.Float64)
	task := constraint.NewTask(rt, "mf.error", func(tc *legion.TaskContext) {
		e, pos, crd := tc.Float64(0), tc.Rects(1), tc.Int64(2)
		r, p := tc.Float64(3), tc.Float64(4)
		bu, ci := tc.Float64(5), tc.Float64(6)
		mu := tc.Args().(float64)
		tc.Subspace(1).Each(func(u int64) {
			for k := pos[u].Lo; k <= pos[u].Hi; k++ {
				e[k] = r[k] - mu - bu[u] - ci[crd[k]] - p[k]
			}
		})
	})
	ve := task.AddOutput(evals)
	vpos := task.AddInput(bt.b.Pos())
	vcrd := task.AddInput(bt.b.Crd())
	vr := task.AddInput(bt.b.Vals())
	vp := task.AddInput(pred.Vals())
	vbu := task.AddInput(m.BU.Region())
	vci := task.AddInput(m.CI.Region())
	task.Align(vpos, vbu)
	task.Image(vpos, vcrd, vr, vp, ve)
	task.Image(vcrd, vci)
	task.SetWorkSource(vcrd, 1) // the user block's ratings
	task.SetArgs(m.Mu)
	task.SetOpClass(machine.SparseIter)
	task.Execute()
	return bt.b.WithValues(evals)
}

// TrainBatch performs one SGD step on the given sample indices and
// returns the batch's mean squared error.
func (m *Model) TrainBatch(samples []int64) float64 {
	rt := m.rt
	bt := m.buildBatch(samples)
	defer m.destroyBatch(bt)

	// Predictions on the pattern: SDDMM(mask, U, V) = (U Vᵀ) sampled.
	// All sparse operations go through the format-generic entry points
	// of core's format-abstraction layer.
	pred := core.SDDMM(bt.mask, m.U, m.V)
	e := m.errorMatrix(bt, pred)

	// Gradients.
	dU := core.SpMM(e, m.V) // users x rank
	// Transposed errors: gather E's values into the item-major order.
	cunumeric.Gather(cunumeric.FromRegion(bt.bt.Vals()), bt.perm, cunumeric.FromRegion(e.Vals()))
	dV := core.SpMM(bt.bt, m.U) // items x rank
	db := core.SumAxis1(e)
	dc := core.SumAxis0(e)
	dmu := cunumeric.Sum(cunumeric.FromRegion(e.Vals())).Get()

	// Gradient sums cover a variable number of samples per user/item
	// (power-law activity), so normalize each row by its sample count:
	// without this, a hot user's summed gradient is hundreds of times a
	// single SGD step and training diverges.
	cntU := core.SumAxis1(bt.mask)
	cntI := core.SumAxis0(bt.mask)
	cunumeric.RecipClamp(cntU, cntU)
	cunumeric.RecipClamp(cntI, cntI)
	cunumeric.MulRows(dU, cntU)
	cunumeric.MulRows(dV, cntI)
	cunumeric.MulInto(db, db, cntU)
	cunumeric.MulInto(dc, dc, cntI)

	// SGD update with L2 weight decay. Gradients are per-sample sums, so
	// the learning rate applies directly (each user/item row receives
	// only its own samples' contributions); the global bias μ sees every
	// sample and is normalized by the batch size.
	lr := m.cfg.LR
	m.U.ScaleMatrix(1 - lr*m.cfg.Reg)
	cunumeric.AXPYMatrix(lr, dU, m.U)
	m.V.ScaleMatrix(1 - lr*m.cfg.Reg)
	cunumeric.AXPYMatrix(lr, dV, m.V)
	m.BU.Scale(1 - lr*m.cfg.Reg)
	cunumeric.AXPY(lr, db, m.BU)
	m.CI.Scale(1 - lr*m.cfg.Reg)
	cunumeric.AXPY(lr, dc, m.CI)
	m.Mu += lr * dmu / float64(bt.n)

	loss := cunumeric.Dot(cunumeric.FromRegion(e.Vals()), cunumeric.FromRegion(e.Vals())).Get() / float64(bt.n)

	for _, arr := range []*cunumeric.Matrix{dU, dV} {
		arr.Destroy()
	}
	db.Destroy()
	dc.Destroy()
	cntU.Destroy()
	cntI.Destroy()
	rt.Destroy(pred.Vals())
	rt.Destroy(e.Vals())
	return loss
}

// Epoch runs one pass of mini-batch SGD over the shuffled dataset and
// returns the mean batch loss and the number of samples processed.
func (m *Model) Epoch(epoch int) (float64, int64) {
	m.shuffle(epoch)
	var lossSum float64
	var batches, samples int64
	bs := m.cfg.BatchSize
	for lo := int64(0); lo < m.ds.NNZ(); lo += bs {
		hi := lo + bs
		if hi > m.ds.NNZ() {
			hi = m.ds.NNZ()
		}
		lossSum += m.TrainBatch(m.order[lo:hi])
		batches++
		samples += hi - lo
		if m.rt.Err() != nil {
			break
		}
	}
	if batches == 0 {
		return 0, 0
	}
	return lossSum / float64(batches), samples
}

// RMSEOn evaluates the model on an arbitrary dataset (e.g. the held-out
// test split) on the host.
func (m *Model) RMSEOn(ds *Dataset) float64 {
	m.rt.Fence()
	uf := m.U.ToSlice()
	vf := m.V.ToSlice()
	bu := m.BU.ToSlice()
	ci := m.CI.ToSlice()
	var se float64
	k := m.cfg.Rank
	for s := int64(0); s < ds.NNZ(); s++ {
		u, i, r := ds.U[s], ds.I[s], ds.R[s]
		pred := m.Mu + bu[u] + ci[i]
		for q := int64(0); q < k; q++ {
			pred += uf[u*k+q] * vf[i*k+q]
		}
		d := r - pred
		se += d * d
	}
	if ds.NNZ() == 0 {
		return 0
	}
	return sqrt(se / float64(ds.NNZ()))
}

// RMSE evaluates the model on a sample of the dataset (host side).
func (m *Model) RMSE(maxSamples int64) float64 {
	m.rt.Fence()
	uf := m.U.ToSlice()
	vf := m.V.ToSlice()
	bu := m.BU.ToSlice()
	ci := m.CI.ToSlice()
	n := m.ds.NNZ()
	if maxSamples > 0 && n > maxSamples {
		n = maxSamples
	}
	var se float64
	k := m.cfg.Rank
	for s := int64(0); s < n; s++ {
		u, i, r := m.ds.U[s], m.ds.I[s], m.ds.R[s]
		pred := m.Mu + bu[u] + ci[i]
		for q := int64(0); q < k; q++ {
			pred += uf[u*k+q] * vf[i*k+q]
		}
		d := r - pred
		se += d * d
	}
	return sqrt(se / float64(n))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 50; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}
