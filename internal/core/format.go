package core

import (
	"fmt"
	"strings"

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
	// layout, DISTAL dispatch tag, and partitioning constraint. All
	// launches derive from it.
	Spec() *FormatSpec
	// Pack returns the legion regions backing the matrix, in the
	// spec's PackFields order — the "pack of regions" representation
	// of Figure 3, exposed uniformly for interoperation.
	Pack() []*legion.Region
	// Meta returns what the pack cannot express (BSR block size, DIA
	// offsets).
	Meta() PackMeta
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

// PackField describes one region of a format's pack: its role name and
// required element type. FromPack validates interop regions against it,
// and the SpMV binder maps each field onto the kernel operand by type.
type PackField struct {
	Name string
	Type legion.FieldType
}

// PackMeta carries format metadata that region packs alone cannot
// express: the dense tile edge for BSR and the stored diagonal offsets
// for DIA.
type PackMeta struct {
	BlockSize int64
	Offsets   []int64
}

// FormatSpec is the single per-format description every operation
// launches from: the DISTAL level stack, the region-pack layout, and how
// to build the format from a pack or from CSR. The launch facts — the
// constrain body, whether the kernel scatters, which subspace bounds a
// point — are read off the level stack.
type FormatSpec struct {
	// Name is the lowercase format tag ("csr", "coo", ...).
	Name string
	// TaskName is the launch's profiled task name.
	TaskName string
	// Distal is the level stack and mode ordering; kernel variants are
	// keyed on (op, Distal's stack, target).
	Distal distal.Format
	// PackFields is the region-pack layout, in Pack() order.
	PackFields []PackField

	// boundsSlot is the region slot whose subspace bounds the point
	// task's iteration: 0, y's, when the outer level owns whole rows of
	// y (CSR, DIA); 1, the first pack region's, when it runs over
	// columns, entries or block rows (CSC, COO, BSR).
	boundsSlot int
	// scatter marks formats whose outer level does not own y's rows
	// (distal.Format.Scatters: CSC, COO); the kernel scatters into y
	// through a reduction privilege, so the planner zero-fills y and
	// installs a ReduceAdd accumulator.
	scatter bool
	// slots is where bind finds each kernel operand, fixed from
	// PackFields when the spec is built.
	slots bindSlots
	// assemble wraps a validated pack as a matrix and reports whether
	// the region sizes and meta agree with the shape.
	assemble func(rt *legion.Runtime, rows, cols int64, p []*legion.Region, meta PackMeta) (SparseMatrix, bool)
	// convert builds the format from CSR (the receiver itself for CSR).
	convert func(a *CSR, blockSize int64) SparseMatrix
}

// Levels returns the level kinds (dense, compressed, singleton,
// diagonal, blocked) of the format, outermost first.
func (s *FormatSpec) Levels() []distal.Mode { return s.Distal.Modes }

// Scatter reports whether the format's SpMV scatters into the output
// with reduction privilege (and therefore tolerates non-deterministic
// accumulation order).
func (s *FormatSpec) Scatter() bool { return s.scatter }

func (s *FormatSpec) String() string {
	return fmt.Sprintf("FormatSpec(%s: %v)", s.Name, s.Distal)
}

// bindSlots are the task-context slots of the kernel operand A's fields;
// 0 (y's slot) means the format has no such field. The pack follows y in
// PackFields order and x comes last.
type bindSlots struct{ pos, crd, crd2, vals, x int }

// newSpec derives the spec's launch facts from its level stack and its
// binder slots from its pack layout: the range region is A's pos, the
// first coordinate region its crd and a second one its crd2 (COO's
// columns), the float region its vals.
func newSpec(s *FormatSpec) *FormatSpec {
	s.scatter = s.Distal.Scatters()
	if s.scatter || s.blocked() {
		s.boundsSlot = 1
	}
	s.slots.x = len(s.PackFields) + 1
	for i, f := range s.PackFields {
		switch {
		case f.Type == legion.RectType:
			s.slots.pos = i + 1
		case f.Type == legion.Int64 && s.slots.crd == 0:
			s.slots.crd = i + 1
		case f.Type == legion.Int64:
			s.slots.crd2 = i + 1
		default:
			s.slots.vals = i + 1
		}
	}
	return s
}

// bind wires a point task's region slices into the pooled kernel
// argument pack (tensors y, A, x). A scatter format's y is reached only
// through the accumulator.
func (s *FormatSpec) bind(sc *spmvScratch, tc *legion.TaskContext, cols int64, meta PackMeta) {
	if !s.scatter {
		sc.y.Vals = tc.Float64(0)
	}
	if s.slots.pos != 0 {
		sc.A.Pos = tc.Rects(s.slots.pos)
	}
	if s.slots.crd != 0 {
		sc.A.Crd = tc.Int64(s.slots.crd)
	}
	if s.slots.crd2 != 0 {
		sc.A.Crd2 = tc.Int64(s.slots.crd2)
	}
	sc.A.Vals = tc.Float64(s.slots.vals)
	sc.A.Stride, sc.A.Offsets, sc.A.BlockSize = cols, meta.Offsets, meta.BlockSize
	sc.x.Vals = tc.Float64(s.slots.x)
}

// spmvOperands is one SpMV launch as a constrain body sees it.
type spmvOperands struct {
	m       SparseMatrix
	regions []*legion.Region  // m.Pack()
	pack    [3]constraint.Var // one per pack region (the longest is 3)
	y, x    *cunumeric.Array
	vy, vx  constraint.Var
}

// blocked reports whether the inner level stores dense tiles (BSR).
func (s *FormatSpec) blocked() bool { return s.Distal.Modes[1] == distal.Blocked }

// constrain states an SpMV launch's partitioning with the body the inner
// level picks: a singleton level divides the entries, a diagonal level
// takes explicit banded partitions, and a compressed or blocked level
// images pos → crd. The bodies are called directly, not through a func
// value, so that the task and operands spmvLaunch builds stay on its
// stack.
func (s *FormatSpec) constrain(t *constraint.Task, o spmvOperands) {
	switch s.Distal.Modes[1] {
	case distal.Singleton:
		constrainEntries(t, o)
	case distal.Diagonal:
		constrainBanded(t, o)
	default:
		constrainCompressed(t, o)
	}
}

// constrainCompressed is Figure 4's constraint set for a dense level
// over a compressed one (CSR, CSC, BSR): the operand the outer level
// indexes aligns with pos, pos's image gives crd and vals, and crd's
// image gives the other operand. A scatter format's outer level runs
// over columns, so x is the aligned operand and y the scattered image.
// A blocked level widens the edges by the tile edge bs: a block row
// covers bs rows of y, a block coordinate bs columns of x and each
// stored block bs² values.
func constrainCompressed(t *constraint.Task, o spmvOperands) {
	outer, inner := o.vy, o.vx
	if o.m.Spec().scatter {
		outer, inner = o.vx, o.vy
	}
	w := max(o.m.Meta().BlockSize, 1)
	t.AlignBlocks(o.pack[0], outer, w)
	t.Image(o.pack[0], o.pack[1])
	t.ImageBlocks(o.pack[0], w*w, o.pack[2])
	t.ImageBlocks(o.pack[1], w, inner)
	t.SetWorkSource(o.pack[1], w*w) // the outer block's stored values
}

// constrainEntries block-divides the flat entry space (COO): y and x are
// the images of the row and column coordinate regions.
func constrainEntries(t *constraint.Task, o spmvOperands) {
	t.Align(o.pack[0], o.pack[1])
	t.Align(o.pack[0], o.pack[2])
	t.Image(o.pack[0], o.vy)
	t.Image(o.pack[1], o.vx)
	t.SetWorkSource(o.pack[0], 1) // the entry block
}

// constrainBanded builds explicit partitions from the stored diagonal
// offsets (DIA): x's pieces are the row tiles shifted by every offset (a
// fixed-width halo) and data's pieces the matching slice of each
// diagonal.
func constrainBanded(t *constraint.Task, o spmvOperands) {
	rt := o.m.Runtime()
	rows, cols := o.m.Shape()
	offsets := o.m.Meta().Offsets
	colors := rt.LaunchDomain()
	rowTiles := geometry.Tile(geometry.NewRect(0, rows-1), colors)
	xSets := make([]geometry.IntervalSet, colors)
	dataSets := make([]geometry.IntervalSet, colors)
	xDom := geometry.NewRect(0, cols-1)
	for c, tile := range rowTiles {
		var xs, ds geometry.IntervalSet
		if !tile.Empty() {
			for d, off := range offsets {
				cs := tile.Shift(off).Intersect(xDom)
				if cs.Empty() {
					continue
				}
				xs = xs.UnionRect(cs)
				ds = ds.UnionRect(cs.Shift(int64(d) * cols))
			}
		}
		xSets[c] = xs
		dataSets[c] = ds
	}
	t.UsePartition(o.vy, rt.BlockPartition(o.y.Region(), colors))
	t.UsePartition(o.pack[0], rt.PartitionBySets(o.regions[0], dataSets))
	t.UsePartition(o.vx, rt.PartitionBySets(o.x.Region(), xSets))
	// rows × diagonals: data's pieces are clipped at the matrix edge.
	t.SetWorkSource(o.vy, int64(len(offsets)))
}

var csrPackFields = []PackField{
	{Name: "pos", Type: legion.RectType},
	{Name: "crd", Type: legion.Int64},
	{Name: "vals", Type: legion.Float64},
}

// CSRSpec: owner-computes rows.
var CSRSpec = newSpec(&FormatSpec{
	Name:       "csr",
	TaskName:   "sparse.spmv",
	Distal:     distal.CSR,
	PackFields: csrPackFields,
	assemble: func(rt *legion.Runtime, rows, cols int64, p []*legion.Region, _ PackMeta) (SparseMatrix, bool) {
		return &CSR{rt: rt, rows: rows, cols: cols, pos: p[0], crd: p[1], vals: p[2]},
			p[0].Size() == rows && p[1].Size() == p[2].Size()
	},
	convert: func(a *CSR, _ int64) SparseMatrix { return a },
})

// CSCSpec: the matrix is compressed over columns, so the kernel owns
// column ranges and scatters into y.
var CSCSpec = newSpec(&FormatSpec{
	Name:       "csc",
	TaskName:   "sparse.spmv_csc",
	Distal:     distal.CSC,
	PackFields: csrPackFields,
	assemble: func(rt *legion.Runtime, rows, cols int64, p []*legion.Region, _ PackMeta) (SparseMatrix, bool) {
		return &CSC{rt: rt, rows: rows, cols: cols, pos: p[0], crd: p[1], vals: p[2]},
			p[0].Size() == cols && p[1].Size() == p[2].Size()
	},
	convert: func(a *CSR, _ int64) SparseMatrix { return a.ToCSC() },
})

// COOSpec: the flat entry space is block-divided and scattered into y.
var COOSpec = newSpec(&FormatSpec{
	Name:     "coo",
	TaskName: "sparse.spmv_coo",
	Distal:   distal.COO,
	PackFields: []PackField{
		{Name: "row", Type: legion.Int64},
		{Name: "col", Type: legion.Int64},
		{Name: "vals", Type: legion.Float64},
	},
	assemble: func(rt *legion.Runtime, rows, cols int64, p []*legion.Region, _ PackMeta) (SparseMatrix, bool) {
		return &COO{rt: rt, rows: rows, cols: cols, row: p[0], col: p[1], vals: p[2]},
			p[0].Size() == p[1].Size() && p[1].Size() == p[2].Size()
	},
	convert: func(a *CSR, _ int64) SparseMatrix { return a.ToCOO() },
})

// DIASpec: owner-computes rows over explicit banded partitions.
var DIASpec = newSpec(&FormatSpec{
	Name:     "dia",
	TaskName: "sparse.spmv_dia",
	Distal:   distal.DIA,
	PackFields: []PackField{
		{Name: "data", Type: legion.Float64},
	},
	assemble: func(rt *legion.Runtime, rows, cols int64, p []*legion.Region, meta PackMeta) (SparseMatrix, bool) {
		return &DIA{rt: rt, rows: rows, cols: cols, offsets: meta.Offsets, data: p[0]},
			len(meta.Offsets) > 0 && p[0].Size() == int64(len(meta.Offsets))*cols
	},
	convert: func(a *CSR, _ int64) SparseMatrix { return a.ToDIA() },
})

// BSRSpec: block rows distributed like CSR rows (the §5.4 extension).
var BSRSpec = newSpec(&FormatSpec{
	Name:       "bsr",
	TaskName:   "sparse.spmv_bsr",
	Distal:     distal.BSR,
	PackFields: csrPackFields,
	assemble: func(rt *legion.Runtime, rows, cols int64, p []*legion.Region, meta PackMeta) (SparseMatrix, bool) {
		bs := meta.BlockSize
		return &BSR{rt: rt, rows: rows, cols: cols, blockSize: bs, pos: p[0], crd: p[1], vals: p[2]},
			blockMultiple(rows, cols, bs) == nil && p[0].Size() == rows/bs && p[2].Size() == p[1].Size()*bs*bs
	},
	convert: func(a *CSR, bs int64) SparseMatrix { return a.ToBSR(bs) },
})

// formats is the format table: the one list of format names.
var formats = []*FormatSpec{CSRSpec, CSCSpec, COOSpec, DIASpec, BSRSpec}

// FormatNames lists the format names Convert accepts, "|"-separated.
func FormatNames() string {
	names := make([]string, len(formats))
	for i, s := range formats {
		names[i] = s.Name
	}
	return strings.Join(names, "|")
}

// Convert returns a in the named format: a itself for "csr", otherwise a
// new matrix the caller owns. blockSize is the BSR tile edge; it must
// divide both dimensions, since ToBSR would pad them otherwise.
func Convert(a *CSR, format string, blockSize int64) (SparseMatrix, error) {
	for _, s := range formats {
		if s.Name != format {
			continue
		}
		if s.blocked() {
			if err := blockMultiple(a.rows, a.cols, blockSize); err != nil {
				return nil, err
			}
		}
		return s.convert(a, blockSize), nil
	}
	return nil, fmt.Errorf("unknown format %q (want %s)", format, FormatNames())
}

// blockMultiple checks that bs is a positive block size dividing both
// dimensions: a BSR matrix stores whole blocks.
func blockMultiple(rows, cols, bs int64) error {
	if bs <= 0 || rows%bs != 0 || cols%bs != 0 {
		return fmt.Errorf("%dx%d is not a multiple of the BSR block size %d", rows, cols, bs)
	}
	return nil
}

// Spec/Pack/Meta/ToCSR conformance for each concrete format.

// Spec returns the CSR format descriptor.
func (a *CSR) Spec() *FormatSpec { return CSRSpec }

// Pack returns {pos, crd, vals}.
func (a *CSR) Pack() []*legion.Region { return []*legion.Region{a.pos, a.crd, a.vals} }

// Meta is empty: the pack says everything.
func (a *CSR) Meta() PackMeta { return PackMeta{} }

// ToCSR returns the receiver itself (no copy); use Copy for a deep one.
func (a *CSR) ToCSR() *CSR { return a }

// Spec returns the CSC format descriptor.
func (a *CSC) Spec() *FormatSpec { return CSCSpec }

// Pack returns {pos, crd, vals} (pos ranges over columns).
func (a *CSC) Pack() []*legion.Region { return []*legion.Region{a.pos, a.crd, a.vals} }

// Meta is empty: the pack says everything.
func (a *CSC) Meta() PackMeta { return PackMeta{} }

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

// Meta is empty: the pack says everything.
func (a *COO) Meta() PackMeta { return PackMeta{} }

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

// Meta returns the stored diagonal offsets.
func (a *DIA) Meta() PackMeta { return PackMeta{Offsets: a.offsets} }

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

// Meta returns the block size.
func (a *BSR) Meta() PackMeta { return PackMeta{BlockSize: a.blockSize} }

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

// FromPack assembles a sparse matrix of the given format directly from
// a pack of existing regions — the §3 interoperation path ("users can
// directly construct sparse matrices out of cuNumeric arrays"),
// generalized from CSR to every format and validated against the spec's
// pack layout. FromPack(rt, m.Spec(), rows, cols, m.Pack(), m.Meta())
// rebuilds m.
func FromPack(rt *legion.Runtime, spec *FormatSpec, rows, cols int64, pack []*legion.Region, meta PackMeta) SparseMatrix {
	if len(pack) != len(spec.PackFields) {
		panic(fmt.Sprintf("core: FromPack(%s) needs %d regions, got %d", spec.Name, len(spec.PackFields), len(pack)))
	}
	for i, f := range spec.PackFields {
		if pack[i].Type() != f.Type {
			panic(fmt.Sprintf("core: FromPack(%s) region %q has type %v, want %v", spec.Name, f.Name, pack[i].Type(), f.Type))
		}
	}
	m, ok := spec.assemble(rt, rows, cols, pack, meta)
	if !ok {
		panic(fmt.Sprintf("core: FromPack(%s) region sizes or meta inconsistent with %dx%d", spec.Name, rows, cols))
	}
	return m
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
