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
	switch {
	case matchSpMV(p, lhsVars, sparseOps, denseOps):
		k.Pattern = "spmv-row"
		k.Exec = emitSpMVRow(p, sparseOps[0], denseOps[0])
	case matchSpMVDia(p, lhsVars, sparseOps, denseOps):
		k.Pattern = "spmv-dia"
		k.Exec = emitSpMVDia(p, sparseOps[0], denseOps[0])
	case matchSpMVColumn(p, lhsVars, sparseOps, denseOps):
		k.Pattern = "spmv-col"
		k.Exec = emitSpMVColumn(p, sparseOps[0], denseOps[0])
	case matchSpMVCOO(p, lhsVars, sparseOps, denseOps):
		k.Pattern = "spmv-coo"
		k.Exec = emitSpMVCOO(p, sparseOps[0], denseOps[0])
	case matchSpMVBSR(p, lhsVars, sparseOps, denseOps):
		k.Pattern = "spmv-bsr"
		k.Exec = emitSpMVBSR(p, sparseOps[0], denseOps[0])
	case matchSpMM(p, lhsVars, sparseOps, denseOps):
		k.Pattern = "spmm"
		k.Exec = emitSpMM(p, sparseOps[0], denseOps[0])
	case matchSDDMM(p, lhsVars, sparseOps, denseOps):
		k.Pattern = "sddmm"
		k.Exec = emitSDDMM(p, sparseOps[0], denseOps[0], denseOps[1])
	case matchRowReduce(p, lhsVars, sparseOps, denseOps):
		k.Pattern = "row-reduce"
		k.Exec = emitRowReduce(p, sparseOps[0])
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

// --- Template matchers -------------------------------------------------

// y(i) = A(i,j) * x(j), A CSR.
func matchSpMV(p Program, lhs map[IndexVar]bool, sp, dn []Access) bool {
	if len(sp) != 1 || len(dn) != 1 || len(p.Compute.RHS) != 2 {
		return false
	}
	a, x := sp[0], dn[0]
	return p.Formats[a.Tensor].Equal(CSR) &&
		len(a.Vars) == 2 && len(x.Vars) == 1 && len(p.Compute.LHS.Vars) == 1 &&
		a.Vars[0] == p.Compute.LHS.Vars[0] && a.Vars[1] == x.Vars[0] && !lhs[a.Vars[1]]
}

// y(i) = A(i,j) * x(j) with A stored by diagonals.
func matchSpMVDia(p Program, lhs map[IndexVar]bool, sp, dn []Access) bool {
	if len(sp) != 1 || len(dn) != 1 || len(p.Compute.RHS) != 2 {
		return false
	}
	a, x := sp[0], dn[0]
	return p.Formats[a.Tensor].Equal(DIA) &&
		len(a.Vars) == 2 && len(x.Vars) == 1 && len(p.Compute.LHS.Vars) == 1 &&
		a.Vars[0] == p.Compute.LHS.Vars[0] && a.Vars[1] == x.Vars[0] && !lhs[a.Vars[1]]
}

// y(j) = A(i,j) * x(i): A stored CSC — compressed over its outer
// (column) dimension, with the output indexed by the compressed rows of
// each column's entries — a scatter. The operand's Pos/Crd arrays are
// the per-column ranges and row coordinates of Figure 3 transposed.
func matchSpMVColumn(p Program, lhs map[IndexVar]bool, sp, dn []Access) bool {
	if len(sp) != 1 || len(dn) != 1 || len(p.Compute.RHS) != 2 {
		return false
	}
	a, x := sp[0], dn[0]
	return p.Formats[a.Tensor].Equal(CSC) &&
		len(a.Vars) == 2 && len(x.Vars) == 1 && len(p.Compute.LHS.Vars) == 1 &&
		a.Vars[1] == p.Compute.LHS.Vars[0] && a.Vars[0] == x.Vars[0] && !lhs[a.Vars[0]]
}

// y(i) = A(i,j) * x(j), A stored COO: parallel coordinate arrays, one
// entry per nonzero, distributed over the entry space.
func matchSpMVCOO(p Program, lhs map[IndexVar]bool, sp, dn []Access) bool {
	if len(sp) != 1 || len(dn) != 1 || len(p.Compute.RHS) != 2 {
		return false
	}
	a, x := sp[0], dn[0]
	return p.Formats[a.Tensor].Equal(COO) &&
		len(a.Vars) == 2 && len(x.Vars) == 1 && len(p.Compute.LHS.Vars) == 1 &&
		a.Vars[0] == p.Compute.LHS.Vars[0] && a.Vars[1] == x.Vars[0] && !lhs[a.Vars[1]]
}

// y(i) = A(i,j) * x(j), A stored BSR: block rows distributed like CSR
// rows, with a dense BlockSize² tile per stored block coordinate.
func matchSpMVBSR(p Program, lhs map[IndexVar]bool, sp, dn []Access) bool {
	if len(sp) != 1 || len(dn) != 1 || len(p.Compute.RHS) != 2 {
		return false
	}
	a, x := sp[0], dn[0]
	return p.Formats[a.Tensor].Equal(BSR) &&
		len(a.Vars) == 2 && len(x.Vars) == 1 && len(p.Compute.LHS.Vars) == 1 &&
		a.Vars[0] == p.Compute.LHS.Vars[0] && a.Vars[1] == x.Vars[0] && !lhs[a.Vars[1]]
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
// loop always covers [Lo, Hi], the distributed tile.

func emitSpMVRow(p Program, a, x Access) func(*Args) {
	yName, aName, xName := p.Compute.LHS.Tensor, a.Tensor, x.Tensor
	return func(ar *Args) {
		y := ar.Ops[yName].Vals
		A := ar.Ops[aName]
		xv := ar.Ops[xName].Vals
		for i := ar.Lo; i <= ar.Hi; i++ {
			var acc float64
			r := A.Pos[i]
			for jA := r.Lo; jA <= r.Hi; jA++ {
				acc += A.Vals[jA] * xv[A.Crd[jA]]
			}
			y[i] = acc
		}
	}
}

func emitSpMVDia(p Program, a, x Access) func(*Args) {
	yName, aName, xName := p.Compute.LHS.Tensor, a.Tensor, x.Tensor
	return func(ar *Args) {
		y := ar.Ops[yName].Vals
		A := ar.Ops[aName]
		xv := ar.Ops[xName].Vals
		nCols := A.Stride
		for i := ar.Lo; i <= ar.Hi; i++ {
			var acc float64
			for d, off := range A.Offsets {
				j := i + off
				if j >= 0 && j < nCols {
					acc += A.Vals[int64(d)*nCols+j] * xv[j]
				}
			}
			y[i] = acc
		}
	}
}

func emitSpMVColumn(p Program, a, x Access) func(*Args) {
	yName, aName, xName := p.Compute.LHS.Tensor, a.Tensor, x.Tensor
	return func(ar *Args) {
		A := ar.Ops[aName]
		xv := ar.Ops[xName].Vals
		add := ar.Accum
		if add == nil {
			y := ar.Ops[yName].Vals
			add = func(idx int64, v float64) { y[idx] += v }
		}
		for i := ar.Lo; i <= ar.Hi; i++ {
			xi := xv[i]
			r := A.Pos[i]
			for jA := r.Lo; jA <= r.Hi; jA++ {
				add(A.Crd[jA], A.Vals[jA]*xi)
			}
		}
	}
}

// emitSpMVCOO scatters one stored entry per iteration of the entry
// space [Lo, Hi]: Crd holds rows, Crd2 columns. Like the column kernel,
// an aliased output partition supplies Accum for atomic accumulation.
func emitSpMVCOO(p Program, a, x Access) func(*Args) {
	yName, aName, xName := p.Compute.LHS.Tensor, a.Tensor, x.Tensor
	return func(ar *Args) {
		A := ar.Ops[aName]
		xv := ar.Ops[xName].Vals
		add := ar.Accum
		if add == nil {
			y := ar.Ops[yName].Vals
			add = func(idx int64, v float64) { y[idx] += v }
		}
		for k := ar.Lo; k <= ar.Hi; k++ {
			add(A.Crd[k], A.Vals[k]*xv[A.Crd2[k]])
		}
	}
}

// emitSpMVBSR is owner-computes over block rows [Lo, Hi]: each point
// zeroes its own element rows, then accumulates one dense
// BlockSize x BlockSize tile per stored block — Figure 4's constraint
// structure lifted to blocks, with no reduction privilege needed.
func emitSpMVBSR(p Program, a, x Access) func(*Args) {
	yName, aName, xName := p.Compute.LHS.Tensor, a.Tensor, x.Tensor
	return func(ar *Args) {
		y := ar.Ops[yName].Vals
		A := ar.Ops[aName]
		xv := ar.Ops[xName].Vals
		bs := A.BlockSize
		for br := ar.Lo; br <= ar.Hi; br++ {
			rowBase := br * bs
			for i := rowBase; i < rowBase+bs; i++ {
				y[i] = 0
			}
			r := A.Pos[br]
			for k := r.Lo; k <= r.Hi; k++ {
				colBase := A.Crd[k] * bs
				blk := A.Vals[k*bs*bs : (k+1)*bs*bs]
				for bi := int64(0); bi < bs; bi++ {
					var acc float64
					row := blk[bi*bs : (bi+1)*bs]
					for bj := int64(0); bj < bs; bj++ {
						acc += row[bj] * xv[colBase+bj]
					}
					y[rowBase+bi] += acc
				}
			}
		}
	}
}

func emitSpMM(p Program, a, x Access) func(*Args) {
	yName, aName, xName := p.Compute.LHS.Tensor, a.Tensor, x.Tensor
	return func(ar *Args) {
		Y := ar.Ops[yName]
		A := ar.Ops[aName]
		X := ar.Ops[xName]
		k := X.Stride
		for i := ar.Lo; i <= ar.Hi; i++ {
			yRow := Y.Vals[i*k : (i+1)*k]
			for c := range yRow {
				yRow[c] = 0
			}
			r := A.Pos[i]
			for jA := r.Lo; jA <= r.Hi; jA++ {
				v := A.Vals[jA]
				xRow := X.Vals[A.Crd[jA]*k : (A.Crd[jA]+1)*k]
				for c := range yRow {
					yRow[c] += v * xRow[c]
				}
			}
		}
	}
}

func emitSDDMM(p Program, a, b, c Access) func(*Args) {
	rName, aName, bName, cName := p.Compute.LHS.Tensor, a.Tensor, b.Tensor, c.Tensor
	return func(ar *Args) {
		R := ar.Ops[rName]
		A := ar.Ops[aName]
		B := ar.Ops[bName]
		C := ar.Ops[cName]
		k := B.Stride
		for i := ar.Lo; i <= ar.Hi; i++ {
			r := A.Pos[i]
			bRow := B.Vals[i*k : (i+1)*k]
			for jA := r.Lo; jA <= r.Hi; jA++ {
				j := A.Crd[jA]
				cRow := C.Vals[j*k : (j+1)*k]
				var dot float64
				for q := int64(0); q < k; q++ {
					dot += bRow[q] * cRow[q]
				}
				R.Vals[jA] = A.Vals[jA] * dot
			}
		}
	}
}

func emitRowReduce(p Program, a Access) func(*Args) {
	yName, aName := p.Compute.LHS.Tensor, a.Tensor
	return func(ar *Args) {
		y := ar.Ops[yName].Vals
		A := ar.Ops[aName]
		for i := ar.Lo; i <= ar.Hi; i++ {
			var acc float64
			r := A.Pos[i]
			for jA := r.Lo; jA <= r.Hi; jA++ {
				acc += A.Vals[jA]
			}
			y[i] = acc
		}
	}
}
