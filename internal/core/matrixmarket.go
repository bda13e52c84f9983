package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/legion"
)

// Matrix Market I/O — the interchange format SuiteSparse and scipy.io
// (mmread/mmwrite) use, so real-world matrices can be loaded into the
// distributed library. The coordinate format with real or pattern
// entries and general or symmetric storage is supported, which covers
// the overwhelming majority of published matrices.

// mmPrealloc caps how many entries the reader pre-sizes its buffers for
// from the (untrusted) size line; beyond it the slices grow with the
// entries actually read.
const mmPrealloc = 1 << 16

// ReadMatrixMarket parses a Matrix Market stream into a CSR matrix.
func ReadMatrixMarket(rt *legion.Runtime, r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	if !sc.Scan() {
		return nil, fmt.Errorf("core: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" {
		return nil, fmt.Errorf("core: missing %%%%MatrixMarket header")
	}
	if header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("core: only coordinate matrices are supported, got %q %q", header[1], header[2])
	}
	field := header[3] // real | integer | pattern
	if field != "real" && field != "integer" && field != "pattern" {
		return nil, fmt.Errorf("core: unsupported field %q (real, integer, or pattern)", field)
	}
	symmetry := header[4] // general | symmetric | skew-symmetric
	if symmetry != "general" && symmetry != "symmetric" && symmetry != "skew-symmetric" {
		return nil, fmt.Errorf("core: unsupported symmetry %q", symmetry)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int64
	sized := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("core: malformed size line %q", line)
		}
		var err error
		if rows, err = strconv.ParseInt(f[0], 10, 64); err != nil {
			return nil, fmt.Errorf("core: bad row count: %w", err)
		}
		if cols, err = strconv.ParseInt(f[1], 10, 64); err != nil {
			return nil, fmt.Errorf("core: bad column count: %w", err)
		}
		if nnz, err = strconv.ParseInt(f[2], 10, 64); err != nil {
			return nil, fmt.Errorf("core: bad entry count: %w", err)
		}
		sized = true
		break
	}
	if !sized {
		return nil, fmt.Errorf("core: missing size line")
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("core: negative size line %d %d %d", rows, cols, nnz)
	}
	if symmetry != "general" && rows != cols {
		return nil, fmt.Errorf("core: %s matrix must be square, got %dx%d", symmetry, rows, cols)
	}

	// A file may legally repeat a coordinate, so nnz is not bounded by
	// rows*cols; the seen != nnz check below catches a lying header.
	prealloc := min(nnz, mmPrealloc)
	ri := make([]int64, 0, prealloc)
	ci := make([]int64, 0, prealloc)
	vi := make([]float64, 0, prealloc)
	var seen int64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("core: malformed entry %q", line)
		}
		i, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: bad row index: %w", err)
		}
		j, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: bad column index: %w", err)
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("core: entry (%d,%d) outside %dx%d", i, j, rows, cols)
		}
		v := 1.0
		if field != "pattern" {
			if v, err = strconv.ParseFloat(f[2], 64); err != nil {
				return nil, fmt.Errorf("core: bad value: %w", err)
			}
		}
		ri = append(ri, i-1)
		ci = append(ci, j-1)
		vi = append(vi, v)
		if symmetry != "general" && i != j {
			sv := v
			if symmetry == "skew-symmetric" {
				sv = -v
			}
			ri = append(ri, j-1)
			ci = append(ci, i-1)
			vi = append(vi, sv)
		}
		seen++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: reading MatrixMarket: %w", err)
	}
	if seen != nnz {
		return nil, fmt.Errorf("core: header promised %d entries, found %d", nnz, seen)
	}
	rr, cc, vv := canonicalizeCOO(ri, ci, vi)
	return buildCSR(rt, rows, cols, rr, cc, vv), nil
}

// WriteMatrixMarket emits the matrix as a general real coordinate
// Matrix Market stream (scipy.io.mmwrite's default).
func (a *CSR) WriteMatrixMarket(w io.Writer) error {
	bw := bufio.NewWriter(w)
	pos, crd, vals := a.hostCSR()
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n",
		a.rows, a.cols, a.NNZ()); err != nil {
		return err
	}
	for i := int64(0); i < a.rows; i++ {
		for k := pos[i].Lo; k <= pos[i].Hi; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, crd[k]+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
