package main

import (
	"math/rand"
	"strconv"

	"repro/internal/seq"
)

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// hostMatrix is a benchmark-owned matrix in host memory: the seq CSR
// that gives every reference answer and floor time, from which the
// COO triples an upload sends are derived.
type hostMatrix struct {
	Name string
	*seq.CSR
}

// triples expands the CSR into the row/col/val form POST /matrix takes.
func (m *hostMatrix) triples() (r, c []int64, v []float64) {
	r = make([]int64, 0, len(m.Data))
	for i := int64(0); i < m.Rows; i++ {
		for k := m.Indptr[i]; k < m.Indptr[i+1]; k++ {
			r = append(r, i)
		}
	}
	return r, m.Indices, m.Data
}

// poisson2D builds the 5-point Laplacian of core.Poisson2D directly in
// CSR (rows come out in order with ascending columns, so no sort of
// 1.3 M triples is needed at nx = 512). Its name is the legate-serve
// preset of the same matrix, so a served workload requests it by name
// without uploading anything.
func poisson2D(nx int64) *hostMatrix {
	n := nx * nx
	indptr := make([]int64, 1, n+1)
	indices := make([]int64, 0, 5*n)
	data := make([]float64, 0, 5*n)
	add := func(col int64, val float64) {
		indices = append(indices, col)
		data = append(data, val)
	}
	for i := int64(0); i < nx; i++ {
		for j := int64(0); j < nx; j++ {
			row := i*nx + j
			if i > 0 {
				add(row-nx, -1)
			}
			if j > 0 {
				add(row-1, -1)
			}
			add(row, 4)
			if j < nx-1 {
				add(row+1, -1)
			}
			if i < nx-1 {
				add(row+nx, -1)
			}
			indptr = append(indptr, int64(len(indices)))
		}
	}
	return &hostMatrix{Name: "poisson2d:" + itoa(nx), CSR: seq.NewCSR(n, n, indptr, indices, data)}
}

// pentadiagonal builds a symmetric, strictly diagonally dominant (hence
// SPD) matrix with bands at 0, ±1 and ±2. The off-diagonal values come
// from rng; shift is added to the diagonal, which is how a re-upload
// changes the contents (and the fingerprint) without changing the
// pattern or the floor time.
func pentadiagonal(name string, n int64, rng *rand.Rand, shift float64) *hostMatrix {
	b1 := make([]float64, n) // b1[i] couples i and i+1
	b2 := make([]float64, n) // b2[i] couples i and i+2
	for i := range b1 {
		b1[i] = -(0.25 + 0.75*rng.Float64())
		b2[i] = -(0.25 + 0.75*rng.Float64())
	}
	indptr := make([]int64, 1, n+1)
	var indices []int64
	var data []float64
	for i := int64(0); i < n; i++ {
		var off float64
		add := func(col int64, val float64) {
			indices = append(indices, col)
			data = append(data, val)
			off -= val
		}
		if i >= 2 {
			add(i-2, b2[i-2])
		}
		if i >= 1 {
			add(i-1, b1[i-1])
		}
		diag := len(data)
		add(i, 0)
		if i+1 < n {
			add(i+1, b1[i])
		}
		if i+2 < n {
			add(i+2, b2[i])
		}
		data[diag] = off + 1 + shift
		indptr = append(indptr, int64(len(indices)))
	}
	return &hostMatrix{Name: name, CSR: seq.NewCSR(n, n, indptr, indices, data)}
}

// withShift returns a copy of m whose diagonal is raised by delta.
func (m *hostMatrix) withShift(delta float64) *hostMatrix {
	data := append([]float64(nil), m.Data...)
	for i := int64(0); i < m.Rows; i++ {
		for k := m.Indptr[i]; k < m.Indptr[i+1]; k++ {
			if m.Indices[k] == i {
				data[k] += delta
			}
		}
	}
	return &hostMatrix{Name: m.Name, CSR: seq.NewCSR(m.Rows, m.Cols, m.Indptr, m.Indices, data)}
}

// request is one generated op. The program under test only ever sees
// what a request turns into on the wire; the seed stays in here.
type request struct {
	Class  string  // "solve", "spmv", "eigen" or "upload"
	Matrix int     // index into the workload's matrices
	Shift  float64 // upload only: how far the diagonal is raised
}

// plan is everything an epoch of a workload executes: its matrices and
// one request list per client. The same (workload, seed) always yields
// the same plan.
type plan struct {
	Matrices []*hostMatrix
	Primary  int         // the matrix the traced pass's ladder and probes use
	Prime    []request   // unmeasured ops that warm the program before the window
	Requests [][]request // [client][op]
}

// buildPlan generates a workload's inputs from the seed. The three CG
// workloads repeat the standard op on one Poisson matrix, so their
// inputs do not depend on the seed; the churn workload draws its matrix
// values, request order and diagonal shifts from it.
func buildPlan(w *workload, seed int64) *plan {
	if w.Name != "serve_mix_churn" {
		p := &plan{Matrices: []*hostMatrix{poisson2D(w.NX)}}
		for c := 0; c < w.Clients; c++ {
			reqs := make([]request, w.Ops)
			for i := range reqs {
				reqs[i] = request{Class: "solve"}
			}
			p.Requests = append(p.Requests, reqs)
		}
		p.Prime = make([]request, w.Prime*w.Clients)
		for i := range p.Prime {
			p.Prime[i] = request{Class: "solve"}
		}
		return p
	}
	return churnPlan(w, seed)
}

// churnPlan builds the mixed workload. The mix is stratified, not
// sampled: every client gets exactly the same number of hot and cold
// requests of each class whatever the seed, and only their order, the
// matrix values and the shifts vary, so run-to-run spread measures the
// program and not the dice.
//
// The hot matrices are shared by both clients and never rewritten. The
// cold ones are split between the clients, and a client requests and
// rewrites only its own, so the revision an answer must match is known
// without racing the other client.
func churnPlan(w *workload, seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	// Hot matrices are the four mid-sized ones so the hot set's cost
	// does not depend on which seed happened to pick small ones.
	hot := []int{10, 11, 12, 13}
	p := &plan{Primary: hot[0]}
	for _, k := range hot { // the hot set starts bound; the cold set starts cold
		p.Prime = append(p.Prime, request{Class: "solve", Matrix: k})
	}
	for k := 0; k < churnMatrices; k++ {
		n := int64(600 + 100*k)
		p.Matrices = append(p.Matrices, pentadiagonal("churn-"+itoa(int64(k)), n, rng, 0))
	}
	var cold []int
	for k := 0; k < churnMatrices; k++ {
		if k < hot[0] || k > hot[len(hot)-1] {
			cold = append(cold, k)
		}
	}
	classes := []string{"solve", "solve", "spmv", "eigen"} // 50/25/25
	for c := 0; c < w.Clients; c++ {
		var mine []int // this client's share of the cold matrices
		for i, k := range cold {
			if i%w.Clients == c {
				mine = append(mine, k)
			}
		}
		uploads := w.Ops / churnUploadGap
		compute := w.Ops - uploads
		nHot := int(churnHotShare*float64(compute) + 0.5)
		slots := make([]request, 0, compute)
		for i := 0; i < compute; i++ {
			set, j := hot, i
			if i >= nHot {
				set, j = mine, i-nHot
			}
			slots = append(slots, request{
				Class:  classes[(j/len(set))%len(classes)],
				Matrix: set[j%len(set)],
			})
		}
		rng.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
		reqs := make([]request, 0, w.Ops)
		next := 0
		for i := 1; i <= w.Ops; i++ {
			if i%churnUploadGap == 0 {
				reqs = append(reqs, request{
					Class:  "upload",
					Matrix: mine[(i/churnUploadGap-1)%len(mine)],
					Shift:  0.5 + rng.Float64(),
				})
				continue
			}
			reqs = append(reqs, slots[next])
			next++
		}
		p.Requests = append(p.Requests, reqs)
	}
	return p
}
