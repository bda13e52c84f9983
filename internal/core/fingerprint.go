package core

// Matrix fingerprinting for cross-request caching. legate-serve keys its
// binding, partition, and plan caches on a stable identity of a matrix's
// *contents*, not its Go object: two uploads of the same triples — or a
// preset rebuilt on a replacement runtime — must land on the same cache
// entries, and a re-upload with different values must not. The
// fingerprint is FNV-1a over the shape and the canonicalized triples; it
// is a cache key, not a cryptographic digest.

import "math"

// Fingerprint is the 64-bit content identity of a sparse matrix.
type Fingerprint uint64

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnv accumulates FNV-1a over 64-bit words (byte-at-a-time over each
// word, little-endian, so the result is independent of host order).
type fnv struct{ h uint64 }

func newFNV() *fnv { return &fnv{h: fnvOffset} }

func (f *fnv) word(w uint64) {
	h := f.h
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime
		w >>= 8
	}
	f.h = h
}

func (f *fnv) int64(v int64)     { f.word(uint64(v)) }
func (f *fnv) float64(v float64) { f.word(math.Float64bits(v)) }
func (f *fnv) str(s string) {
	for i := 0; i < len(s); i++ {
		f.h ^= uint64(s[i])
		f.h *= fnvPrime
	}
	f.word(uint64(len(s)))
}

func (f *fnv) int64s(vs []int64) {
	for _, v := range vs {
		f.int64(v)
	}
	f.word(uint64(len(vs)))
}

func (f *fnv) float64s(vs []float64) {
	for _, v := range vs {
		f.float64(v)
	}
	f.word(uint64(len(vs)))
}

// FingerprintTriples fingerprints a host-side COO triple set — the form
// matrices arrive in over the serve API. Triples are canonicalized
// (row-major sort, duplicates summed) first, so any ordering of the same
// logical matrix fingerprints identically; canonical triples are hashed
// as they are.
func FingerprintTriples(rows, cols int64, r, c []int64, v []float64) Fingerprint {
	cr, cc, cv := canonicalizeCOO(r, c, v)
	f := newFNV()
	f.str("triples")
	f.int64(rows)
	f.int64(cols)
	f.int64s(cr)
	f.int64s(cc)
	f.float64s(cv)
	return Fingerprint(f.h)
}
