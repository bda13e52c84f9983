package core

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/cunumeric"
	"repro/internal/distal"
	"repro/internal/geometry"
	"repro/internal/legion"
	"repro/internal/seq"
)

// SparseMatrix is the format-polymorphic view of a sparse matrix: the
// programming-model surface every operation and solver is written
// against, so new formats plug in by supplying a FormatSpec instead of
// another copy of the launch boilerplate. Every concrete format (CSR,
// CSC, COO, DIA, BSR) implements it.
type SparseMatrix interface {
	// Shape returns (rows, cols) in element space.
	Shape() (int64, int64)
	Rows() int64
	Cols() int64
	// NNZ returns the number of stored entries (including explicit
	// zeros for DIA and padded zeros inside BSR blocks, as in SciPy).
	NNZ() int64
	Runtime() *legion.Runtime
	// Spec returns the format's descriptor: level modes, region-pack
	// layout, DISTAL dispatch tag, and preferred distribution
	// constraint. All launches derive from it.
	Spec() *FormatSpec
	// Pack returns the legion regions backing the matrix, in the
	// spec's PackFields order — the "pack of regions" representation
	// of Figure 3, exposed uniformly for interoperation.
	Pack() []*legion.Region
	// SpMVInto computes y = A @ x through the format-generic planner.
	SpMVInto(y, x *cunumeric.Array)
	// SpMV allocates and returns y = A @ x.
	SpMV(x *cunumeric.Array) *cunumeric.Array
	// ToCSR converts to CSR. For a matrix that already is CSR this is
	// the receiver itself, not a copy — use AsCSR when the result's
	// lifetime must be managed uniformly.
	ToCSR() *CSR
	Destroy()
	String() string
}

// Interface conformance, checked at compile time.
var (
	_ SparseMatrix = (*CSR)(nil)
	_ SparseMatrix = (*CSC)(nil)
	_ SparseMatrix = (*COO)(nil)
	_ SparseMatrix = (*DIA)(nil)
	_ SparseMatrix = (*BSR)(nil)
)

// DistKind names a format's preferred distribution constraint — how the
// launch planner derives the partition family for an owner/scatter
// iteration over the format's stored structure.
type DistKind int

const (
	// DistAlignPos: owner-computes over the compressed outer level;
	// the output aligns with pos and images induce the rest (CSR,
	// Figure 4).
	DistAlignPos DistKind = iota
	// DistImageCrd: the iteration owns pos (columns for CSC) and the
	// output is the aliased image of crd — a scatter with reduction
	// privilege (§5.3).
	DistImageCrd
	// DistEntries: the flat entry space is block-divided and both
	// dense operands are images of the coordinate regions (COO).
	DistEntries
	// DistBanded: explicit interval partitions built from the stored
	// diagonal offsets — a fixed-width halo (DIA).
	DistBanded
	// DistBlockRow: block rows tiled like CSR rows with block-scaled
	// images for vals and x (BSR, the §5.4 extension).
	DistBlockRow
)

func (d DistKind) String() string {
	switch d {
	case DistAlignPos:
		return "align-pos"
	case DistImageCrd:
		return "image-crd"
	case DistEntries:
		return "entries"
	case DistBanded:
		return "banded"
	case DistBlockRow:
		return "block-row"
	default:
		return fmt.Sprintf("DistKind(%d)", int(d))
	}
}

// PackField describes one region of a format's pack: its role name and
// required element type. FromPack validates interop regions against it.
type PackField struct {
	Name string
	Type legion.FieldType
}

// FormatSpec is the single per-format description every operation
// launches from: the level modes (via the DISTAL format tag), the
// region-pack layout, and the distribution constraint. What used to be
// five copies of launch boilerplate in ops.go is now one planner
// parameterized by this struct.
type FormatSpec struct {
	// Name is the lowercase format tag ("csr", "coo", ...).
	Name string
	// TaskName is the launch's profiled task name.
	TaskName string
	// Distal is the registry dispatch tag; kernel variants are keyed
	// on (op, Distal, target).
	Distal distal.Format
	// Dist is the preferred distribution constraint.
	Dist DistKind
	// PackFields is the region-pack layout, in Pack() order.
	PackFields []PackField

	// boundsSlot is the region slot whose subspace bounds the point
	// task's iteration (0 = the output for owner-computes formats,
	// 1 = the first pack region for pos/entry-divided formats).
	boundsSlot int
	// scatter marks formats whose kernel scatters into y through a
	// reduction privilege (CSC, COO); the planner zero-fills y and
	// installs a ReduceAdd accumulator.
	scatter bool
	// bind wires a point task's region slices into the pooled kernel
	// argument pack (tensor names y/A/x).
	bind func(m SparseMatrix, s *spmvScratch, tc *legion.TaskContext)
	// constrain states the launch's partitioning — align/image edges
	// for image-derivable formats, explicit partitions for the rest —
	// and its declared per-point work.
	constrain func(t *constraint.Task, m SparseMatrix, vy, vx constraint.Var, pack []constraint.Var, y, x *cunumeric.Array)
}

// Levels returns the per-dimension level modes (dense, compressed,
// singleton, diagonal, blocked) of the format.
func (s *FormatSpec) Levels() []distal.Mode { return s.Distal.Modes }

// Scatter reports whether the format's SpMV scatters into the output
// with reduction privilege (and therefore tolerates non-deterministic
// accumulation order).
func (s *FormatSpec) Scatter() bool { return s.scatter }

func (s *FormatSpec) String() string {
	return fmt.Sprintf("FormatSpec(%s: %v, dist=%v)", s.Name, s.Distal, s.Dist)
}

var csrPackFields = []PackField{
	{Name: "pos", Type: legion.RectType},
	{Name: "crd", Type: legion.Int64},
	{Name: "vals", Type: legion.Float64},
}

// CSRSpec: owner-computes rows; align(y, pos), image(pos, {crd, vals}),
// image(crd, x) — the constraint set of the paper's Figure 4.
var CSRSpec = &FormatSpec{
	Name:       "csr",
	TaskName:   "sparse.spmv",
	Distal:     distal.CSR,
	Dist:       DistAlignPos,
	PackFields: csrPackFields,
	boundsSlot: 0,
	bind: func(m SparseMatrix, s *spmvScratch, tc *legion.TaskContext) {
		s.y.Vals = tc.Float64(0)
		s.A.Pos, s.A.Crd, s.A.Vals = tc.Rects(1), tc.Int64(2), tc.Float64(3)
		s.x.Vals = tc.Float64(4)
	},
	constrain: func(t *constraint.Task, m SparseMatrix, vy, vx constraint.Var, pack []constraint.Var, y, x *cunumeric.Array) {
		t.Align(vy, pack[0])
		t.Image(pack[0], pack[1], pack[2])
		t.Image(pack[1], vx)
		t.SetWorkSource(pack[1], 1) // the row block's nonzeros
	},
}

// CSCSpec: the matrix is compressed over columns, so the kernel owns
// column ranges and scatters into y through the aliased image of crd.
var CSCSpec = &FormatSpec{
	Name:       "csc",
	TaskName:   "sparse.spmv_csc",
	Distal:     distal.CSC,
	Dist:       DistImageCrd,
	PackFields: csrPackFields,
	boundsSlot: 1,
	scatter:    true,
	bind: func(m SparseMatrix, s *spmvScratch, tc *legion.TaskContext) {
		s.A.Pos, s.A.Crd, s.A.Vals = tc.Rects(1), tc.Int64(2), tc.Float64(3)
		s.x.Vals = tc.Float64(4)
	},
	constrain: func(t *constraint.Task, m SparseMatrix, vy, vx constraint.Var, pack []constraint.Var, y, x *cunumeric.Array) {
		t.Align(vx, pack[0]) // x is indexed by columns, like pos
		t.Image(pack[0], pack[1], pack[2])
		t.Image(pack[1], vy)        // scattered rows
		t.SetWorkSource(pack[1], 1) // the column block's nonzeros
	},
}

// COOSpec: the flat entry space is block-divided; y and x are images of
// the row and column coordinate regions respectively.
var COOSpec = &FormatSpec{
	Name:     "coo",
	TaskName: "sparse.spmv_coo",
	Distal:   distal.COO,
	Dist:     DistEntries,
	PackFields: []PackField{
		{Name: "row", Type: legion.Int64},
		{Name: "col", Type: legion.Int64},
		{Name: "vals", Type: legion.Float64},
	},
	boundsSlot: 1,
	scatter:    true,
	bind: func(m SparseMatrix, s *spmvScratch, tc *legion.TaskContext) {
		s.A.Crd, s.A.Crd2, s.A.Vals = tc.Int64(1), tc.Int64(2), tc.Float64(3)
		s.x.Vals = tc.Float64(4)
	},
	constrain: func(t *constraint.Task, m SparseMatrix, vy, vx constraint.Var, pack []constraint.Var, y, x *cunumeric.Array) {
		t.Align(pack[0], pack[1])
		t.Align(pack[0], pack[2])
		t.Image(pack[0], vy)
		t.Image(pack[1], vx)
		t.SetWorkSource(pack[0], 1) // the entry block
	},
}

// DIASpec: explicit banded partitions — x's pieces are the row tiles
// shifted by every stored offset (a fixed-width halo) and data's pieces
// the matching slice of each diagonal.
var DIASpec = &FormatSpec{
	Name:     "dia",
	TaskName: "sparse.spmv_dia",
	Distal:   distal.DIA,
	Dist:     DistBanded,
	PackFields: []PackField{
		{Name: "data", Type: legion.Float64},
	},
	boundsSlot: 0,
	bind: func(m SparseMatrix, s *spmvScratch, tc *legion.TaskContext) {
		a := m.(*DIA)
		s.y.Vals = tc.Float64(0)
		s.A.Vals, s.A.Stride, s.A.Offsets = tc.Float64(1), a.cols, a.offsets
		s.x.Vals = tc.Float64(2)
	},
	constrain: func(t *constraint.Task, m SparseMatrix, vy, vx constraint.Var, pack []constraint.Var, y, x *cunumeric.Array) {
		a := m.(*DIA)
		rt := a.rt
		colors := rt.LaunchDomain()
		rowTiles := geometry.Tile(geometry.NewRect(0, a.rows-1), colors)
		xSets := make([]geometry.IntervalSet, colors)
		dataSets := make([]geometry.IntervalSet, colors)
		xDom := geometry.NewRect(0, a.cols-1)
		for c, tile := range rowTiles {
			var xs, ds geometry.IntervalSet
			if !tile.Empty() {
				for d, off := range a.offsets {
					cols := tile.Shift(off).Intersect(xDom)
					if cols.Empty() {
						continue
					}
					xs = xs.UnionRect(cols)
					ds = ds.UnionRect(cols.Shift(int64(d) * a.cols))
				}
			}
			xSets[c] = xs
			dataSets[c] = ds
		}
		t.UsePartition(vy, rt.BlockPartition(y.Region(), colors))
		t.UsePartition(pack[0], rt.PartitionBySets(a.data, dataSets))
		t.UsePartition(vx, rt.PartitionBySets(x.Region(), xSets))
		// rows × diagonals: data's pieces are clipped at the matrix edge.
		t.SetWorkSource(vy, int64(len(a.offsets)))
	},
}

// BSRSpec: block rows are distributed like CSR rows, the vals partition
// is the block-scaled image of pos, and x's partition the block-scaled
// image of crd — Figure 4's constraint structure lifted to blocks. The
// generated kernel zeroes its own element rows, so y takes plain write
// privilege on a disjoint block-scaled row partition.
var BSRSpec = &FormatSpec{
	Name:       "bsr",
	TaskName:   "sparse.spmv_bsr",
	Distal:     distal.BSR,
	Dist:       DistBlockRow,
	PackFields: csrPackFields,
	boundsSlot: 1,
	bind: func(m SparseMatrix, s *spmvScratch, tc *legion.TaskContext) {
		a := m.(*BSR)
		s.y.Vals = tc.Float64(0)
		s.A.Pos, s.A.Crd, s.A.Vals = tc.Rects(1), tc.Int64(2), tc.Float64(3)
		s.A.BlockSize = a.blockSize
		s.x.Vals = tc.Float64(4)
	},
	constrain: func(t *constraint.Task, m SparseMatrix, vy, vx constraint.Var, pack []constraint.Var, y, x *cunumeric.Array) {
		a := m.(*BSR)
		rt := a.rt
		colors := rt.LaunchDomain()
		bs := a.blockSize
		bRows := a.rows / bs
		posPart := rt.BlockPartition(a.pos, colors)
		crdPart := rt.ImageRange(a.pos, posPart, a.crd)
		yRects := make([]geometry.Rect, colors)
		valSets := make([]geometry.IntervalSet, colors)
		xSets := make([]geometry.IntervalSet, colors)
		rt.Fence()
		crdData := a.crd.Int64s()
		for c := 0; c < colors; c++ {
			// y rows: the element rows of this color's block rows.
			br := geometry.Tile(geometry.NewRect(0, bRows-1), colors)[c]
			if br.Empty() {
				yRects[c] = geometry.EmptyRect
				valSets[c] = geometry.IntervalSet{}
				xSets[c] = geometry.IntervalSet{}
				continue
			}
			yRects[c] = geometry.NewRect(br.Lo*bs, br.Hi*bs+bs-1)
			// vals: blockSize² values per stored block of this color.
			var vs geometry.IntervalSet
			for _, rct := range crdPart.Subspace(c).Rects() {
				vs = vs.UnionRect(geometry.NewRect(rct.Lo*bs*bs, rct.Hi*bs*bs+bs*bs-1))
			}
			valSets[c] = vs
			// x: the element columns of the referenced block columns.
			var xs geometry.IntervalSet
			crdPart.Subspace(c).Each(func(k int64) {
				bc := crdData[k]
				xs = xs.UnionRect(geometry.NewRect(bc*bs, bc*bs+bs-1))
			})
			xSets[c] = xs
		}
		t.UsePartition(vy, rt.PartitionByRects(y.Region(), yRects))
		t.UsePartition(pack[0], posPart)
		t.UsePartition(pack[1], crdPart)
		t.UsePartition(pack[2], rt.PartitionBySets(a.vals, valSets))
		t.UsePartition(vx, rt.PartitionBySets(x.Region(), xSets))
		t.SetWorkSource(pack[2], 1) // stored blocks × bs²
	},
}

// Spec/Pack/ToCSR conformance for each concrete format.

// Spec returns the CSR format descriptor.
func (a *CSR) Spec() *FormatSpec { return CSRSpec }

// Pack returns {pos, crd, vals}.
func (a *CSR) Pack() []*legion.Region { return []*legion.Region{a.pos, a.crd, a.vals} }

// ToCSR returns the receiver itself (no copy); use Copy for a deep one.
func (a *CSR) ToCSR() *CSR { return a }

// Spec returns the CSC format descriptor.
func (a *CSC) Spec() *FormatSpec { return CSCSpec }

// Pack returns {pos, crd, vals} (pos ranges over columns).
func (a *CSC) Pack() []*legion.Region { return []*legion.Region{a.pos, a.crd, a.vals} }

// Rows returns the number of rows.
func (a *CSC) Rows() int64 { return a.rows }

// Cols returns the number of columns.
func (a *CSC) Cols() int64 { return a.cols }

// Runtime returns the owning runtime.
func (a *CSC) Runtime() *legion.Runtime { return a.rt }

// Spec returns the COO format descriptor.
func (a *COO) Spec() *FormatSpec { return COOSpec }

// Pack returns {row, col, vals}.
func (a *COO) Pack() []*legion.Region { return []*legion.Region{a.row, a.col, a.vals} }

// Rows returns the number of rows.
func (a *COO) Rows() int64 { return a.rows }

// Cols returns the number of columns.
func (a *COO) Cols() int64 { return a.cols }

// Runtime returns the owning runtime.
func (a *COO) Runtime() *legion.Runtime { return a.rt }

// Spec returns the DIA format descriptor.
func (a *DIA) Spec() *FormatSpec { return DIASpec }

// Pack returns {data}.
func (a *DIA) Pack() []*legion.Region { return []*legion.Region{a.data} }

// Rows returns the number of rows.
func (a *DIA) Rows() int64 { return a.rows }

// Cols returns the number of columns.
func (a *DIA) Cols() int64 { return a.cols }

// Runtime returns the owning runtime.
func (a *DIA) Runtime() *legion.Runtime { return a.rt }

// Spec returns the BSR format descriptor.
func (a *BSR) Spec() *FormatSpec { return BSRSpec }

// Pack returns {pos, crd, vals} (pos ranges over block rows).
func (a *BSR) Pack() []*legion.Region { return []*legion.Region{a.pos, a.crd, a.vals} }

// Rows returns the number of element rows.
func (a *BSR) Rows() int64 { return a.rows }

// Cols returns the number of element columns.
func (a *BSR) Cols() int64 { return a.cols }

// Runtime returns the owning runtime.
func (a *BSR) Runtime() *legion.Runtime { return a.rt }

// AsCSR views any SparseMatrix as CSR, returning a cleanup that
// destroys the conversion if one was materialized (and does nothing
// when the matrix already is CSR).
func AsCSR(a SparseMatrix) (*CSR, func()) {
	if c, ok := a.(*CSR); ok {
		return c, func() {}
	}
	c := a.ToCSR()
	return c, c.Destroy
}

// TransposeCSR materializes the transpose of any SparseMatrix as a new
// CSR matrix the caller owns (and must Destroy).
func TransposeCSR(a SparseMatrix) *CSR {
	c, done := AsCSR(a)
	defer done()
	return c.Transpose()
}

// SpMM computes Y = A @ X for any SparseMatrix, converting to CSR when
// the format has no compiled SpMM variant — the format-conversion cost
// the paper's third composition layer accounts for.
func SpMM(a SparseMatrix, x *cunumeric.Matrix) *cunumeric.Matrix {
	if b, ok := a.(*BSR); ok {
		return b.SpMM(x) // carries its own registry-gated fallback
	}
	c, done := AsCSR(a)
	defer done()
	return c.SpMM(x)
}

// SDDMM computes R = A ⊙ (B @ Cᵀ) for any SparseMatrix; R is CSR.
func SDDMM(a SparseMatrix, b, c *cunumeric.Matrix) *CSR {
	cs, done := AsCSR(a)
	defer done()
	return cs.SDDMM(b, c)
}

// SumAxis1 returns per-row sums for any SparseMatrix.
func SumAxis1(a SparseMatrix) *cunumeric.Array {
	c, done := AsCSR(a)
	defer done()
	return c.SumAxis1()
}

// SumAxis0 returns per-column sums for any SparseMatrix.
func SumAxis0(a SparseMatrix) *cunumeric.Array {
	c, done := AsCSR(a)
	defer done()
	return c.SumAxis0()
}

// Diagonal extracts the main diagonal of any square SparseMatrix.
func Diagonal(a SparseMatrix) *cunumeric.Array {
	c, done := AsCSR(a)
	defer done()
	return c.Diagonal()
}

// PackMeta carries format metadata that region packs alone cannot
// express: the dense tile edge for BSR and the stored diagonal offsets
// for DIA.
type PackMeta struct {
	BlockSize int64
	Offsets   []int64
}

// FromPack assembles a sparse matrix of the given format directly from
// a pack of existing regions — the §3 interoperation path ("users can
// directly construct sparse matrices out of cuNumeric arrays"),
// generalized from CSR to every format and validated against the spec's
// pack layout instead of a hand-written check per struct.
func FromPack(rt *legion.Runtime, spec *FormatSpec, rows, cols int64, pack []*legion.Region, meta *PackMeta) SparseMatrix {
	if len(pack) != len(spec.PackFields) {
		panic(fmt.Sprintf("core: FromPack(%s) needs %d regions, got %d", spec.Name, len(spec.PackFields), len(pack)))
	}
	for i, f := range spec.PackFields {
		if pack[i].Type() != f.Type {
			panic(fmt.Sprintf("core: FromPack(%s) region %q has type %v, want %v", spec.Name, f.Name, pack[i].Type(), f.Type))
		}
	}
	switch spec.Name {
	case "csr":
		if pack[0].Size() != rows || pack[1].Size() != pack[2].Size() {
			panic("core: FromPack(csr) region sizes inconsistent")
		}
		return &CSR{rt: rt, rows: rows, cols: cols, pos: pack[0], crd: pack[1], vals: pack[2]}
	case "csc":
		if pack[0].Size() != cols || pack[1].Size() != pack[2].Size() {
			panic("core: FromPack(csc) region sizes inconsistent")
		}
		return &CSC{rt: rt, rows: rows, cols: cols, pos: pack[0], crd: pack[1], vals: pack[2]}
	case "coo":
		if pack[0].Size() != pack[1].Size() || pack[1].Size() != pack[2].Size() {
			panic("core: FromPack(coo) region sizes inconsistent")
		}
		return &COO{rt: rt, rows: rows, cols: cols, row: pack[0], col: pack[1], vals: pack[2]}
	case "dia":
		if meta == nil || len(meta.Offsets) == 0 {
			panic("core: FromPack(dia) needs PackMeta.Offsets")
		}
		if pack[0].Size() != int64(len(meta.Offsets))*cols {
			panic("core: FromPack(dia) data region size inconsistent")
		}
		return &DIA{rt: rt, rows: rows, cols: cols, offsets: meta.Offsets, data: pack[0]}
	case "bsr":
		if meta == nil || meta.BlockSize <= 0 {
			panic("core: FromPack(bsr) needs a positive PackMeta.BlockSize")
		}
		bs := meta.BlockSize
		if rows%bs != 0 || cols%bs != 0 {
			panic("core: FromPack(bsr) dimensions must be block multiples")
		}
		if pack[0].Size() != rows/bs || pack[2].Size() != pack[1].Size()*bs*bs {
			panic("core: FromPack(bsr) region sizes inconsistent")
		}
		return &BSR{rt: rt, rows: rows, cols: cols, blockSize: bs, pos: pack[0], crd: pack[1], vals: pack[2]}
	default:
		panic(fmt.Sprintf("core: FromPack: unknown format %q", spec.Name))
	}
}

// ExportHost copies the matrix into a host-resident seq.CSR (SciPy's
// indptr/indices/data layout) — the hand-off point to explicitly
// parallel libraries (PETSc assembly) and sequential oracles.
func (a *CSR) ExportHost() *seq.CSR {
	pos, crd, vals := a.hostCSR()
	indptr := make([]int64, a.rows+1)
	indices := make([]int64, 0, len(crd))
	data := make([]float64, 0, len(vals))
	for i := int64(0); i < a.rows; i++ {
		indptr[i] = int64(len(indices))
		for k := pos[i].Lo; k <= pos[i].Hi; k++ {
			indices = append(indices, crd[k])
			data = append(data, vals[k])
		}
	}
	indptr[a.rows] = int64(len(indices))
	return &seq.CSR{Rows: a.rows, Cols: a.cols, Indptr: indptr, Indices: indices, Data: data}
}
