package main

import (
	"reflect"
	"testing"
)

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		a, b := buildPlan(w, 7), buildPlan(w, 7)
		if !reflect.DeepEqual(a.Requests, b.Requests) || !reflect.DeepEqual(a.Prime, b.Prime) {
			t.Errorf("%s: seed 7 gave two different request lists", w.Name)
		}
		for i := range a.Matrices {
			if !reflect.DeepEqual(a.Matrices[i].Data, b.Matrices[i].Data) {
				t.Errorf("%s: seed 7 gave two different matrices", w.Name)
			}
		}
		if len(a.Requests) != w.Clients {
			t.Errorf("%s: %d request lists for %d clients", w.Name, len(a.Requests), w.Clients)
		}
		for _, reqs := range a.Requests {
			if len(reqs) != w.Ops {
				t.Errorf("%s: a client got %d ops, want %d", w.Name, len(reqs), w.Ops)
			}
		}
	}
}

func TestChurnSeedChangesOrderNotMix(t *testing.T) {
	w := findWorkload("serve_mix_churn")
	a, b := buildPlan(w, 1), buildPlan(w, 2)
	if reflect.DeepEqual(a.Requests, b.Requests) {
		t.Fatal("seeds 1 and 2 gave the same request order")
	}
	if reflect.DeepEqual(a.Matrices[0].Data, b.Matrices[0].Data) {
		t.Fatal("seeds 1 and 2 gave the same matrix values")
	}
	count := func(p *plan) map[request]int {
		m := map[request]int{}
		for _, reqs := range p.Requests {
			for _, r := range reqs {
				r.Shift = 0
				m[r]++
			}
		}
		return m
	}
	if !reflect.DeepEqual(count(a), count(b)) {
		t.Error("the number of requests per (class, matrix) depends on the seed; the mix must be stratified")
	}
}

func TestChurnShape(t *testing.T) {
	w := findWorkload("serve_mix_churn")
	p := buildPlan(w, 5)
	if len(p.Matrices) != churnMatrices {
		t.Fatalf("%d matrices, want %d", len(p.Matrices), churnMatrices)
	}
	hot := map[int]bool{}
	for _, r := range p.Prime {
		hot[r.Matrix] = true
	}
	owner := map[int]int{} // cold matrix -> the one client that touches it
	classes := map[string]int{}
	var hotOps, compute int
	for c, reqs := range p.Requests {
		for i, r := range reqs {
			classes[r.Class]++
			if (r.Class == "upload") != ((i+1)%churnUploadGap == 0) {
				t.Fatalf("client %d op %d is %s; uploads belong on every %dth op only", c, i, r.Class, churnUploadGap)
			}
			if r.Class == "upload" && (hot[r.Matrix] || r.Shift <= 0) {
				t.Errorf("client %d rewrites hot matrix %d or has no shift: %+v", c, r.Matrix, r)
			}
			if r.Class != "upload" {
				compute++
				if hot[r.Matrix] {
					hotOps++
				}
			}
			if !hot[r.Matrix] {
				if prev, seen := owner[r.Matrix]; seen && prev != c {
					t.Errorf("cold matrix %d is used by clients %d and %d", r.Matrix, prev, c)
				}
				owner[r.Matrix] = c
			}
		}
	}
	if got := float64(hotOps) / float64(compute); got < 0.69 || got > 0.71 {
		t.Errorf("hot share %.3f, want 0.70", got)
	}
	for class, want := range map[string]float64{"solve": 0.50, "spmv": 0.25, "eigen": 0.25} {
		if got := float64(classes[class]) / float64(compute); got < want-0.03 || got > want+0.03 {
			t.Errorf("%s is %.3f of the compute ops, want about %.2f (mix %v)", class, got, want, classes)
		}
	}
	// Strict diagonal dominance is what makes every matrix SPD.
	m := p.Matrices[3]
	for i := int64(0); i < m.Rows; i++ {
		var diag, off float64
		for k := m.Indptr[i]; k < m.Indptr[i+1]; k++ {
			if m.Indices[k] == i {
				diag = m.Data[k]
			} else {
				off -= m.Data[k]
			}
		}
		if diag <= off {
			t.Fatalf("row %d: diagonal %v does not dominate %v", i, diag, off)
		}
	}
	shifted := m.withShift(0.5)
	if shifted.Data[0] != m.Data[0]+0.5 || &shifted.Data[0] == &m.Data[0] {
		t.Error("withShift must raise the diagonal of a copy")
	}
}

func TestPoissonMatchesStencil(t *testing.T) {
	m := poisson2D(3)
	if m.Rows != 9 || len(m.Data) != 33 {
		t.Fatalf("3x3 grid: %d rows, %d entries; want 9 and 33", m.Rows, len(m.Data))
	}
	ones := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}
	want := []float64{2, 1, 2, 1, 0, 1, 2, 1, 2} // 4 minus the number of neighbours
	if got := m.SpMV(ones); !reflect.DeepEqual(got, want) {
		t.Errorf("A*1 = %v, want %v", got, want)
	}
	r, c, v := m.triples()
	if len(r) != 33 || len(c) != 33 || len(v) != 33 || r[32] != 8 {
		t.Errorf("triples: %d rows, last row %d", len(r), r[len(r)-1])
	}
}
