package core

import (
	"fmt"

	"repro/internal/cunumeric"
	"repro/internal/distal"
	"repro/internal/geometry"
	"repro/internal/legion"
)

// BSR is a block-sparse-rows matrix: the matrix is tiled into dense
// blockSize x blockSize blocks and the *block* pattern is stored CSR
// style — pos ranges over block rows, crd holds block-column
// coordinates, and vals stores blockSize² values per stored block in
// row-major order. SciPy's bsr_matrix covers 72 functions the paper
// lists as planned-but-unimplemented ("which we plan to support, and
// are able to use DISTAL to generate kernels for", §5.4); this
// reproduction implements the format, its conversions, and its SpMV as
// that extension.
type BSR struct {
	rt         *legion.Runtime
	rows, cols int64 // element dimensions (multiples of blockSize)
	blockSize  int64
	pos        *legion.Region // RectType, length rows/blockSize
	crd        *legion.Region // Int64, block-column per stored block
	vals       *legion.Region // Float64, blockSize² per stored block
}

// Shape returns the element-space (rows, cols).
func (a *BSR) Shape() (int64, int64) { return a.rows, a.cols }

// BlockSize returns the dense tile edge.
func (a *BSR) BlockSize() int64 { return a.blockSize }

// NNZBlocks returns the number of stored dense blocks.
func (a *BSR) NNZBlocks() int64 { return a.crd.Size() }

// NNZ returns the number of stored values (including explicit zeros
// inside stored blocks, as in SciPy).
func (a *BSR) NNZ() int64 { return a.vals.Size() }

// Pos exposes the block-row range region.
func (a *BSR) Pos() *legion.Region { return a.pos }

// Crd exposes the block-column region.
func (a *BSR) Crd() *legion.Region { return a.crd }

// Vals exposes the block-values region.
func (a *BSR) Vals() *legion.Region { return a.vals }

// Destroy releases the matrix's regions.
func (a *BSR) Destroy() {
	a.rt.Destroy(a.pos)
	a.rt.Destroy(a.crd)
	a.rt.Destroy(a.vals)
}

func (a *BSR) String() string {
	return fmt.Sprintf("BSR(%dx%d, block=%d, blocks=%d)", a.rows, a.cols, a.blockSize, a.NNZBlocks())
}

// ToBSR converts a CSR matrix to BSR with the given block size, padding
// the dimensions up to block multiples (scipy .tobsr()).
func (a *CSR) ToBSR(blockSize int64) *BSR {
	if blockSize <= 0 {
		panic("core: ToBSR needs a positive block size")
	}
	pos, crd, vals := a.hostCSR()
	bRows := (a.rows + blockSize - 1) / blockSize
	bCols := (a.cols + blockSize - 1) / blockSize

	// Collect the block pattern, then fill block values.
	type blockKey struct{ br, bc int64 }
	pattern := map[blockKey][]float64{}
	for i := int64(0); i < a.rows; i++ {
		for k := pos[i].Lo; k <= pos[i].Hi; k++ {
			j := crd[k]
			key := blockKey{br: i / blockSize, bc: j / blockSize}
			blk := pattern[key]
			if blk == nil {
				blk = make([]float64, blockSize*blockSize)
				pattern[key] = blk
			}
			blk[(i%blockSize)*blockSize+(j%blockSize)] += vals[k]
		}
	}
	// Emit blocks in (block-row, block-col) order.
	bpos := make([]geometry.Rect, bRows)
	var bcrd []int64
	var bvals []float64
	for br := int64(0); br < bRows; br++ {
		lo := int64(len(bcrd))
		for bc := int64(0); bc < bCols; bc++ {
			if blk, ok := pattern[blockKey{br: br, bc: bc}]; ok {
				bcrd = append(bcrd, bc)
				bvals = append(bvals, blk...)
			}
		}
		bpos[br] = geometry.NewRect(lo, int64(len(bcrd))-1)
	}
	return &BSR{
		rt:        a.rt,
		rows:      bRows * blockSize,
		cols:      bCols * blockSize,
		blockSize: blockSize,
		pos:       a.rt.CreateRects("A.bpos", bpos),
		crd:       a.rt.CreateInt64("A.bcrd", bcrd),
		vals:      a.rt.CreateFloat64("A.bvals", bvals),
	}
}

// ToCSR converts BSR back to CSR, dropping the zero padding inside
// stored blocks.
func (a *BSR) ToCSR() *CSR {
	a.rt.Fence()
	pos, crd, vals := a.pos.Rects(), a.crd.Int64s(), a.vals.Float64s()
	bs := a.blockSize
	var r, c []int64
	var v []float64
	for br := int64(0); br < a.rows/bs; br++ {
		for k := pos[br].Lo; k <= pos[br].Hi; k++ {
			bc := crd[k]
			base := k * bs * bs
			for bi := int64(0); bi < bs; bi++ {
				for bj := int64(0); bj < bs; bj++ {
					if x := vals[base+bi*bs+bj]; x != 0 {
						r = append(r, br*bs+bi)
						c = append(c, bc*bs+bj)
						v = append(v, x)
					}
				}
			}
		}
	}
	rr, cc, vv := canonicalizeCOO(r, c, v)
	return buildCSR(a.rt, a.rows, a.cols, rr, cc, vv)
}

// SpMVInto computes y = A @ x.
func (a *BSR) SpMVInto(y, x *cunumeric.Array) { spmvLaunch(a, y, x) }

// SpMV allocates and returns y = A @ x.
func (a *BSR) SpMV(x *cunumeric.Array) *cunumeric.Array {
	y := cunumeric.Zeros(a.rt, a.rows)
	a.SpMVInto(y, x)
	return y
}

// Scale multiplies every stored value by alpha in place (ported op).
func (a *BSR) Scale(alpha float64) { cunumeric.FromRegion(a.vals).Scale(alpha) }

// SpMM computes Y = A @ X for a BSR matrix by falling back to a CSR
// conversion: no BSR SpMM kernel variant exists in the registry, so the
// operation pays the format-conversion cost the paper's third
// composability layer warns about ("expensive format conversions to
// supported data structures can dominate program execution time", §1).
// The conversion is performed once per call and surfaces in the
// runtime's profile under the conversion tasks rather than silently.
func (a *BSR) SpMM(x *cunumeric.Matrix) *cunumeric.Matrix {
	if _, ok := planKernel(a.rt, "spmm", distal.BSR); ok {
		panic("core: BSR SpMM variant appeared; remove the fallback")
	}
	csr := a.ToCSR()
	defer csr.Destroy()
	return csr.SpMM(x)
}
