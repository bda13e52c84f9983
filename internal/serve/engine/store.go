package engine

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/legion"
)

// MatrixDef is the engine's runtime-independent description of one
// matrix: host-side COO triples in canonical form (core.CanonicalTriples)
// plus a content fingerprint. Every pool runtime binds regions from this
// description on first use, so a replacement runtime reconstructs
// bit-identical state, and the fingerprint keys every cross-request
// cache.
type MatrixDef struct {
	Name     string
	Rows     int64
	Cols     int64
	Row, Col []int64
	Val      []float64
	FP       core.Fingerprint
	Preset   string // non-empty when built from a preset
	Revision int64  // bumped on re-upload; workers drop stale bindings

	received int // triples uploaded, before duplicates were summed
}

// NNZ returns the number of triples received, duplicates included.
func (d *MatrixDef) NNZ() int { return d.received }

// Info returns the listing row for this definition.
func (d *MatrixDef) Info() MatrixInfo {
	return MatrixInfo{
		Name: d.Name, Rows: d.Rows, Cols: d.Cols, NNZ: d.received,
		Fingerprint: fmt.Sprintf("%016x", uint64(d.FP)),
		Preset:      d.Preset, Revision: d.Revision,
	}
}

// Store maps matrix names to definitions. Uploads and preset
// materializations go through it; it is safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	byName   map[string]*MatrixDef
	revision int64
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{byName: map[string]*MatrixDef{}} }

// Get returns the definition for name, materializing a preset on first
// reference. Preset names have the form "preset" or "preset:n"
// (e.g. "poisson2d:64"); see BuildPreset.
func (s *Store) Get(name string) (*MatrixDef, error) {
	if d := s.Peek(name); d != nil {
		return d, nil
	}
	d, err := BuildPreset(name)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev := s.byName[name]; prev != nil {
		return prev, nil // raced with another materialization
	}
	s.revision++
	d.Revision = s.revision
	s.byName[name] = d
	return d, nil
}

// Peek returns the stored definition for name, or nil. Unlike Get it
// never materializes a preset.
func (s *Store) Peek(name string) *MatrixDef {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.byName[name]
}

// Put registers or replaces an uploaded matrix and returns the new
// definition and the one it replaced (nil for a new name). The
// definition holds canonical copies of the triples, so r, c and v are
// not kept, and every bind of it skips the sort. A replacement bumps
// the store revision, which workers observe to invalidate bindings of
// the old contents.
func (s *Store) Put(name string, rows, cols int64, r, c []int64, v []float64) (d, replaced *MatrixDef) {
	cr, cc, cv := core.CanonicalTriples(r, c, v)
	d = &MatrixDef{
		Name: name, Rows: rows, Cols: cols, Row: cr, Col: cc, Val: cv,
		FP:       core.FingerprintTriples(rows, cols, cr, cc, cv),
		received: len(v),
	}
	s.mu.Lock()
	s.revision++
	d.Revision = s.revision
	replaced = s.byName[name]
	s.byName[name] = d
	s.mu.Unlock()
	return d, replaced
}

// carries reports whether any stored definition has fingerprint fp.
func (s *Store) carries(fp core.Fingerprint) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, d := range s.byName {
		if d.FP == fp {
			return true
		}
	}
	return false
}

// Rev returns the store's current revision counter.
func (s *Store) Rev() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.revision
}

// List returns every stored definition's listing row, sorted by name.
func (s *Store) List() []MatrixInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]MatrixInfo, 0, len(s.byName))
	for _, d := range s.byName {
		out = append(out, d.Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Bind materializes the definition on a runtime in the requested format
// ("" is csr); BSR uses 2x2 blocks.
func (d *MatrixDef) Bind(rt *legion.Runtime, format string) (core.SparseMatrix, error) {
	if format == "" {
		format = "csr"
	}
	csr := core.FromTriples(rt, d.Rows, d.Cols, d.Row, d.Col, d.Val)
	m, err := core.Convert(csr, format, 2)
	if m != core.SparseMatrix(csr) {
		csr.Destroy()
	}
	if err != nil {
		return nil, fmt.Errorf("matrix %q: %w", d.Name, err)
	}
	return m, nil
}

// BuildPreset constructs the named preset's triples on a throwaway
// runtime and snapshots them to the host. Supported presets:
//
//	poisson2d[:nx]  5-point 2-D Poisson operator (default nx 32)
//	poisson3d[:nx]  7-point 3-D Poisson operator (default nx 8)
//	banded[:n]      random banded SPD-ish system (default n 256)
//	random[:n]      scipy.sparse.random-style matrix (default n 128)
//	eye[:n]         identity (default n 64)
func BuildPreset(name string) (*MatrixDef, error) {
	kind, n, err := splitPreset(name)
	if err != nil {
		return nil, err
	}
	rt := presetRuntime()
	defer rt.Shutdown()
	var a *core.CSR
	switch kind {
	case "poisson2d":
		if n == 0 {
			n = 32
		}
		a = core.Poisson2D(rt, n)
	case "poisson3d":
		if n == 0 {
			n = 8
		}
		a = core.Poisson3D(rt, n)
	case "banded":
		if n == 0 {
			n = 256
		}
		a = core.Banded(rt, n, 3, 42)
	case "random":
		if n == 0 {
			n = 128
		}
		a = core.Random(rt, n, n, 0.05, 42)
	case "eye":
		if n == 0 {
			n = 64
		}
		a = core.Eye(rt, n)
	default:
		return nil, fmt.Errorf("unknown matrix %q (no upload and no such preset)", name)
	}
	defer a.Destroy()
	coo := a.ToCOO()
	defer coo.Destroy()
	rt.Fence()
	pack := coo.Pack()
	r, c, v := core.CanonicalTriples(pack[0].Int64s(), pack[1].Int64s(), pack[2].Float64s())
	rows, cols := a.Shape()
	return &MatrixDef{
		Name: name, Rows: rows, Cols: cols, Row: r, Col: c, Val: v,
		FP:     core.FingerprintTriples(rows, cols, r, c, v),
		Preset: kind, received: int(pack[2].Size()),
	}, nil
}

func splitPreset(name string) (kind string, n int64, err error) {
	kind = name
	for i := 0; i < len(name); i++ {
		if name[i] == ':' {
			kind = name[:i]
			if _, err := fmt.Sscanf(name[i+1:], "%d", &n); err != nil || n <= 0 {
				return "", 0, fmt.Errorf("bad preset size in %q", name)
			}
			break
		}
	}
	return kind, n, nil
}
