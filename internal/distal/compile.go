package distal

import (
	"fmt"

	"repro/internal/geometry"
)

// Operand binds a tensor name to concrete storage at kernel invocation.
// For a CSR operand, Pos/Crd/Vals hold the three regions of Figure 3;
// for a dense vector only Vals is set; for a row-major dense matrix,
// Vals plus Stride (the number of columns).
type Operand struct {
	Pos    []geometry.Rect
	Crd    []int64
	Vals   []float64
	Stride int64
	// Offsets identifies the stored diagonals of a DIA operand, whose
	// Vals hold len(Offsets) x Stride values (Stride = matrix columns).
	Offsets []int64
	// Crd2 holds the singleton-level coordinates of a COO operand: Crd
	// carries the row of each stored entry and Crd2 its column.
	Crd2 []int64
	// BlockSize is the dense tile edge of a BSR operand, whose Vals hold
	// BlockSize² values per stored block.
	BlockSize int64
}

// Args carries the per-point-task inputs of a generated kernel: the
// operand bindings and the sub-range [Lo, Hi] of the distributed outer
// loop this point executes (the io tile of the schedule's divide).
//
// Accum, when non-nil, replaces direct stores into the output for
// scatter-style kernels (column-major SpMV), letting the caller supply an
// atomic accumulator when the output partition aliases across points.
type Args struct {
	Ops    map[string]*Operand
	Lo, Hi int64
	Accum  func(idx int64, v float64)
}

// Kernel is the compiled result: an executable loop nest plus the
// metadata the registry dispatches on.
type Kernel struct {
	Name    string
	Prog    Program
	Target  Target
	Pattern string // which loop template the compiler selected
	Exec    func(a *Args)
}

// CompileError reports why a program was rejected.
type CompileError struct {
	Program string
	Reason  string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("distal: cannot compile %q: %s", e.Program, e.Reason)
}

// Compile lowers a Program to an executable kernel. The front end
// validates operand formats and the schedule, classifies the expression
// (free vs. contracted index variables, sparse vs. dense operands), and
// selects a loop template; unsupported shapes produce a CompileError
// listing what was not understood.
func Compile(p Program) (*Kernel, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	target := scheduleTarget(p.Schedule)

	// Classify: the set of contraction variables and the sparse operands.
	lhsVars := map[IndexVar]bool{}
	for _, v := range p.Compute.LHS.Vars {
		lhsVars[v] = true
	}
	var sparseOps, denseOps []Access
	for _, acc := range p.RHSAccesses() {
		if isSparse(p.Formats[acc.Tensor]) {
			sparseOps = append(sparseOps, acc)
		} else {
			denseOps = append(denseOps, acc)
		}
	}

	k := &Kernel{Name: p.Name, Prog: p, Target: target}
	y := p.Compute.LHS.Tensor
	switch {
	case matchSpMV(p, lhsVars, sparseOps, denseOps):
		var emit func(y, a, x string) func(*Args)
		k.Pattern, emit = spmvNest(p.Formats[sparseOps[0].Tensor])
		if emit == nil {
			return nil, &CompileError{Program: p.Name, Reason: fmt.Sprintf(
				"no spmv loop nest for the level stack of %v", p.Formats[sparseOps[0].Tensor])}
		}
		k.Exec = emit(y, sparseOps[0].Tensor, denseOps[0].Tensor)
	case matchSpMM(p, lhsVars, sparseOps, denseOps):
		k.Pattern = "spmm"
		k.Exec = emitSpMM(y, sparseOps[0].Tensor, denseOps[0].Tensor)
	case matchSDDMM(p, lhsVars, sparseOps, denseOps):
		k.Pattern = "sddmm"
		k.Exec = emitSDDMM(y, sparseOps[0].Tensor, denseOps[0].Tensor, denseOps[1].Tensor)
	case matchRowReduce(p, lhsVars, sparseOps, denseOps):
		k.Pattern = "row-reduce"
		k.Exec = emitRowReduce(y, sparseOps[0].Tensor)
	default:
		return nil, &CompileError{Program: p.Name, Reason: fmt.Sprintf(
			"no loop template matches %s with formats %v", p.Compute, p.Formats)}
	}
	return k, nil
}

// MustCompile is Compile for statically known-good programs (init-time
// kernel generation).
func MustCompile(p Program) *Kernel {
	k, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return k
}

// RHSAccesses returns the expression's right-hand-side accesses.
func (p Program) RHSAccesses() []Access { return p.Compute.RHS }

func isSparse(f Format) bool {
	for _, m := range f.Modes {
		if m != Dense {
			return true
		}
	}
	return false
}

func validate(p Program) error {
	all := append([]Access{p.Compute.LHS}, p.Compute.RHS...)
	for _, acc := range all {
		f, ok := p.Formats[acc.Tensor]
		if !ok {
			return &CompileError{Program: p.Name, Reason: fmt.Sprintf("no format for tensor %q", acc.Tensor)}
		}
		if f.Arity() != len(acc.Vars) {
			return &CompileError{Program: p.Name, Reason: fmt.Sprintf(
				"tensor %q accessed with %d vars but format has %d modes", acc.Tensor, len(acc.Vars), f.Arity())}
		}
	}
	if len(p.Compute.RHS) == 0 {
		return &CompileError{Program: p.Name, Reason: "empty right-hand side"}
	}
	if isSparse(p.Formats[p.Compute.LHS.Tensor]) && !p.Formats[p.Compute.LHS.Tensor].Equal(CSR) {
		return &CompileError{Program: p.Name, Reason: "sparse outputs must be CSR"}
	}
	return validateSchedule(p)
}

// validateSchedule enforces the Figure 6 scheduling discipline for
// distributed kernels: the outer loop must be divided, the divided
// variable distributed, and at most one processor variety named.
// A distribute of an un-divided variable, or several parallelize
// directives, indicate a malformed schedule and are rejected like a
// real compiler front end would.
func validateSchedule(p Program) error {
	divided := map[IndexVar]bool{}
	var haveDivide, haveDistribute bool
	parallelizeCount := 0
	for _, d := range p.Schedule.directives {
		switch d.kind {
		case "divide":
			haveDivide = true
			divided[d.outer] = true
		case "distribute":
			haveDistribute = true
			if !divided[d.v] {
				return &CompileError{Program: p.Name, Reason: fmt.Sprintf(
					"distribute(%s) without a prior divide producing it", d.v)}
			}
		case "parallelize":
			parallelizeCount++
		}
	}
	if !haveDivide || !haveDistribute {
		return &CompileError{Program: p.Name,
			Reason: "distributed kernels need divide + distribute (Figure 6 schedule)"}
	}
	if parallelizeCount > 1 {
		return &CompileError{Program: p.Name, Reason: "at most one parallelize directive"}
	}
	return nil
}

func scheduleTarget(s Schedule) Target {
	for _, d := range s.directives {
		if d.kind == "parallelize" {
			return d.target
		}
	}
	return CPUThread
}

// --- Template matchers: one rule per operation ----------------------

// y(i) = A(i,j) * x(j), A in any sparse format: spmvNest picks the loop
// nest from A's level stack.
func matchSpMV(p Program, lhs map[IndexVar]bool, sp, dn []Access) bool {
	if len(sp) != 1 || len(dn) != 1 || len(p.Compute.RHS) != 2 {
		return false
	}
	a, x := sp[0], dn[0]
	return len(a.Vars) == 2 && len(x.Vars) == 1 && len(p.Compute.LHS.Vars) == 1 &&
		a.Vars[0] == p.Compute.LHS.Vars[0] && a.Vars[1] == x.Vars[0] && !lhs[a.Vars[1]]
}

// spmvNest is the SpMV rule's choice of loop nest, read off A's level
// stack: the outer level is the distributed loop and the inner level its
// body. A dense outer level over dimension 0 owns its rows of y (a gather
// per row, a band of diagonals, a row of tiles); over dimension 1 (CSC's
// ordering) it scatters each column into y, as a compressed outer level
// scatters COO's entries.
func spmvNest(f Format) (string, func(y, a, x string) func(*Args)) {
	if len(f.Modes) != 2 {
		return "", nil
	}
	outer, inner := f.Modes[0], f.Modes[1]
	rows := !f.Scatters()
	switch {
	case rows && inner == Compressed:
		return "spmv-row", emitSpMVRow
	case rows && inner == Diagonal:
		return "spmv-dia", emitSpMVDia
	case rows && inner == Blocked:
		return "spmv-bsr", emitSpMVBSR
	case outer == Dense && inner == Compressed:
		return "spmv-col", emitSpMVColumn
	case outer == Compressed && inner == Singleton:
		return "spmv-coo", emitSpMVCOO
	}
	return "", nil
}

// Y(i,k) = A(i,j) * X(j,k), A CSR, X/Y dense matrices.
func matchSpMM(p Program, lhs map[IndexVar]bool, sp, dn []Access) bool {
	if len(sp) != 1 || len(dn) != 1 || len(p.Compute.RHS) != 2 {
		return false
	}
	a, x := sp[0], dn[0]
	return p.Formats[a.Tensor].Equal(CSR) && p.Formats[x.Tensor].Equal(DenseMatrix) &&
		len(p.Compute.LHS.Vars) == 2 &&
		a.Vars[0] == p.Compute.LHS.Vars[0] && x.Vars[1] == p.Compute.LHS.Vars[1] &&
		a.Vars[1] == x.Vars[0] && !lhs[a.Vars[1]]
}

// R(i,j) = A(i,j) * B(i,k) * C(j,k): sampled dense-dense matmul under
// A's sparsity (the paper's key MF optimization, §6.2).
func matchSDDMM(p Program, lhs map[IndexVar]bool, sp, dn []Access) bool {
	if len(sp) != 1 || len(dn) != 2 || len(p.Compute.RHS) != 3 {
		return false
	}
	a, b, c := sp[0], dn[0], dn[1]
	if !p.Formats[a.Tensor].Equal(CSR) || !p.Formats[b.Tensor].Equal(DenseMatrix) || !p.Formats[c.Tensor].Equal(DenseMatrix) {
		return false
	}
	i, j := a.Vars[0], a.Vars[1]
	if len(p.Compute.LHS.Vars) != 2 || p.Compute.LHS.Vars[0] != i || p.Compute.LHS.Vars[1] != j {
		return false
	}
	k := b.Vars[1]
	return b.Vars[0] == i && c.Vars[0] == j && c.Vars[1] == k && !lhs[k]
}

// y(i) = A(i,j): row reduction of a CSR matrix.
func matchRowReduce(p Program, lhs map[IndexVar]bool, sp, dn []Access) bool {
	if len(sp) != 1 || len(dn) != 0 || len(p.Compute.RHS) != 1 {
		return false
	}
	a := sp[0]
	return p.Formats[a.Tensor].Equal(CSR) && len(p.Compute.LHS.Vars) == 1 &&
		a.Vars[0] == p.Compute.LHS.Vars[0] && !lhs[a.Vars[1]]
}

// --- Loop emitters ------------------------------------------------------
// Each emitter closes over the operand names resolved at compile time and
// produces the loop nest a real compiler would emit as source. The outer
// loop always covers [Lo, Hi], the distributed tile. Loops run over
// sub-slices taken once per tile and once per row, so the inner loops
// index plain slices with no bounds check per entry beyond the gather
// from x. Every nest keeps the loop rule of DESIGN's determinism
// contract: each output element, and each reduction, is one chain in
// ascending storage order; rows may be interleaved, but no chain is
// re-associated.

// end is the exclusive slice end of r: r.Hi+1, or r.Lo when r is empty,
// so s[r.Lo:end(r)] is empty for every empty r.
func end(r geometry.Rect) int64 { return max(r.Lo, r.Hi+1) }

// tile is the distributed tile [Lo, Hi] as a rect.
func (ar *Args) tile() geometry.Rect { return geometry.Rect{Lo: ar.Lo, Hi: ar.Hi} }

// emitSpMVRow runs two rows at a time, then the odd row. The two chains
// are independent, so they overlap in the pipeline, and each sums its own
// row in ascending storage order, as a lone chain would.
func emitSpMVRow(yName, aName, xName string) func(*Args) {
	return func(ar *Args) {
		t := ar.tile()
		A := ar.Ops[aName]
		pos, crd, vals := A.Pos[t.Lo:end(t)], A.Crd, A.Vals
		y := ar.Ops[yName].Vals[t.Lo:end(t)][:len(pos)]
		xv := ar.Ops[xName].Vals
		i := 0
		for ; i+1 < len(pos); i += 2 {
			r0, r1 := pos[i], pos[i+1]
			c0, c1 := crd[r0.Lo:end(r0)], crd[r1.Lo:end(r1)]
			v0, v1 := vals[r0.Lo:end(r0)][:len(c0)], vals[r1.Lo:end(r1)][:len(c1)]
			var a0, a1 float64
			if len(c0) == len(c1) {
				c1, v1 := c1[:len(c0)], v1[:len(c0)]
				for k, j := range c0 {
					a0 += v0[k] * xv[j]
					a1 += v1[k] * xv[c1[k]]
				}
			} else {
				for k, j := range c0 {
					a0 += v0[k] * xv[j]
				}
				for k, j := range c1 {
					a1 += v1[k] * xv[j]
				}
			}
			y[i], y[i+1] = a0, a1
		}
		if i < len(pos) {
			r := pos[i]
			c := crd[r.Lo:end(r)]
			v := vals[r.Lo:end(r)][:len(c)]
			var acc float64
			for k, j := range c {
				acc += v[k] * xv[j]
			}
			y[i] = acc
		}
	}
}

func emitSpMVDia(yName, aName, xName string) func(*Args) {
	return func(ar *Args) {
		t := ar.tile()
		A := ar.Ops[aName]
		offs, vals, nCols := A.Offsets, A.Vals, A.Stride
		y := ar.Ops[yName].Vals[t.Lo:end(t)]
		xv := ar.Ops[xName].Vals
		for r := range y {
			i := t.Lo + int64(r)
			var acc float64
			for d, off := range offs {
				j := i + off
				if j >= 0 && j < nCols {
					acc += vals[int64(d)*nCols+j] * xv[j]
				}
			}
			y[r] = acc
		}
	}
}

func emitSpMVColumn(yName, aName, xName string) func(*Args) {
	return func(ar *Args) {
		t := ar.tile()
		A := ar.Ops[aName]
		pos, crd, vals := A.Pos[t.Lo:end(t)], A.Crd, A.Vals
		xs := ar.Ops[xName].Vals[t.Lo:end(t)][:len(pos)]
		add := ar.Accum
		if add == nil {
			y := ar.Ops[yName].Vals
			add = func(idx int64, v float64) { y[idx] += v }
		}
		for i, r := range pos {
			xi := xs[i]
			c := crd[r.Lo:end(r)]
			v := vals[r.Lo:end(r)][:len(c)]
			for k, j := range c {
				add(j, v[k]*xi)
			}
		}
	}
}

// emitSpMVCOO scatters one stored entry per iteration of the entry
// space [Lo, Hi]: Crd holds rows, Crd2 columns. Like the column kernel,
// an aliased output partition supplies Accum for atomic accumulation.
func emitSpMVCOO(yName, aName, xName string) func(*Args) {
	return func(ar *Args) {
		t := ar.tile()
		A := ar.Ops[aName]
		xv := ar.Ops[xName].Vals
		add := ar.Accum
		if add == nil {
			y := ar.Ops[yName].Vals
			add = func(idx int64, v float64) { y[idx] += v }
		}
		rows := A.Crd[t.Lo:end(t)]
		cols, vals := A.Crd2[t.Lo:end(t)][:len(rows)], A.Vals[t.Lo:end(t)][:len(rows)]
		for k, r := range rows {
			add(r, vals[k]*xv[cols[k]])
		}
	}
}

// emitSpMVBSR is owner-computes over block rows [Lo, Hi]: each point
// zeroes its own element rows, then accumulates one dense
// BlockSize x BlockSize tile per stored block — Figure 4's constraint
// structure lifted to blocks, with no reduction privilege needed.
func emitSpMVBSR(yName, aName, xName string) func(*Args) {
	return func(ar *Args) {
		t := ar.tile()
		y := ar.Ops[yName].Vals
		A := ar.Ops[aName]
		xv := ar.Ops[xName].Vals
		bs := A.BlockSize
		for bi, r := range A.Pos[t.Lo:end(t)] {
			br := t.Lo + int64(bi)
			yRow := y[br*bs : (br+1)*bs]
			clear(yRow)
			blks := A.Vals[r.Lo*bs*bs : end(r)*bs*bs]
			for k, bc := range A.Crd[r.Lo:end(r)] {
				blk := blks[int64(k)*bs*bs : int64(k+1)*bs*bs]
				xs := xv[bc*bs : (bc+1)*bs]
				for e := range yRow {
					row := blk[int64(e)*bs : int64(e+1)*bs]
					xs := xs[:len(row)]
					var acc float64
					for q, v := range row {
						acc += v * xs[q]
					}
					yRow[e] += acc
				}
			}
		}
	}
}

func emitSpMM(yName, aName, xName string) func(*Args) {
	return func(ar *Args) {
		t := ar.tile()
		Y := ar.Ops[yName]
		A := ar.Ops[aName]
		X := ar.Ops[xName]
		k := X.Stride
		for ri, r := range A.Pos[t.Lo:end(t)] {
			i := t.Lo + int64(ri)
			yRow := Y.Vals[i*k : (i+1)*k]
			clear(yRow)
			c := A.Crd[r.Lo:end(r)]
			vals := A.Vals[r.Lo:end(r)][:len(c)]
			for e, j := range c {
				v := vals[e]
				xRow := X.Vals[j*k : (j+1)*k][:len(yRow)]
				for q := range yRow {
					yRow[q] += v * xRow[q]
				}
			}
		}
	}
}

func emitSDDMM(rName, aName, bName, cName string) func(*Args) {
	return func(ar *Args) {
		t := ar.tile()
		R := ar.Ops[rName]
		A := ar.Ops[aName]
		B := ar.Ops[bName]
		C := ar.Ops[cName]
		k := B.Stride
		for ri, r := range A.Pos[t.Lo:end(t)] {
			i := t.Lo + int64(ri)
			c := A.Crd[r.Lo:end(r)]
			vals := A.Vals[r.Lo:end(r)][:len(c)]
			out := R.Vals[r.Lo:end(r)][:len(c)]
			bRow := B.Vals[i*k : (i+1)*k]
			for e, j := range c {
				cRow := C.Vals[j*k : (j+1)*k][:len(bRow)]
				var dot float64
				for q, b := range bRow {
					dot += b * cRow[q]
				}
				out[e] = vals[e] * dot
			}
		}
	}
}

func emitRowReduce(yName, aName string) func(*Args) {
	return func(ar *Args) {
		t := ar.tile()
		A := ar.Ops[aName]
		pos := A.Pos[t.Lo:end(t)]
		y := ar.Ops[yName].Vals[t.Lo:end(t)][:len(pos)]
		for i, r := range pos {
			var acc float64
			for _, v := range A.Vals[r.Lo:end(r)] {
				acc += v
			}
			y[i] = acc
		}
	}
}
