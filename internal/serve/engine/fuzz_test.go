package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/cunumeric"
	"repro/internal/legion"
	"repro/internal/machine"
	"repro/internal/seq"
)

// triplesFromBytes reads data as zig-zag varints: rows, cols, then
// (row, col, value) groups until the bytes run out. Nothing is clamped,
// so shapes and indices reach negative and 2^63-sized values; a value is
// a quarter-integer in [-32, 32), which keeps every sum of duplicates
// and every SpMV dot product exact whatever order it is taken in.
func triplesFromBytes(data []byte) *UploadRequest {
	next := func() (int64, bool) {
		v, n := binary.Varint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	req := &UploadRequest{Name: "fuzz"}
	req.Rows, _ = next()
	req.Cols, _ = next()
	for {
		r, ok1 := next()
		c, ok2 := next()
		v, ok3 := next()
		if !ok1 || !ok2 || !ok3 {
			return req
		}
		req.Row, req.Col = append(req.Row, r), append(req.Col, c)
		req.Val = append(req.Val, float64(int8(v))/4)
	}
}

// FuzzFromTriples drives the upload path — Engine.Upload's validation,
// the store, MatrixDef.Bind → core.FromTriples — with arbitrary
// triples: negative and out-of-range indices, absurd shapes, duplicates,
// unsorted input. Either the upload is refused as a bad request, or the
// bound matrix multiplies exactly like the sequential reference built
// from the same triples. Accepted shapes past 4096 are not bound: the
// limit on a declared dimension is far above what a fuzz run should
// materialize.
func FuzzFromTriples(f *testing.F) {
	enc := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendVarint(b, v)
		}
		return b
	}
	f.Add(enc(3, 3, 0, 0, 4, 1, 1, 8, 2, 2, 12))                   // diagonal
	f.Add(enc(2, 3, 1, 2, 4, 0, 0, 4, 1, 2, -8, 0, 0, 4, 1, 0, 1)) // unsorted, duplicates
	f.Add(enc(4, 4))                                               // empty
	f.Add(enc(2, 2, 2, 0, 1))                                      // row out of range
	f.Add(enc(2, 2, 0, -1, 1))                                     // negative column
	f.Add(enc(-1, 5))
	f.Add(enc(math.MaxInt64, 1, 0, 0, 1))
	f.Add(enc(1<<24+1, 1))
	f.Add(enc(1<<24, 1<<24, 1<<24-1, 1<<24-1, 4))
	f.Add(enc(5, 5, 1, 1)) // truncated group
	f.Add([]byte{})

	e, err := New(Config{Pool: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(e.Close)
	m := machine.Summit(1)
	rt := legion.NewRuntime(m, m.Select(machine.CPU, 2))
	f.Cleanup(rt.Shutdown)

	f.Fuzz(func(t *testing.T, data []byte) {
		req := triplesFromBytes(data)
		if _, err := e.Upload(context.Background(), req); err != nil {
			var ee *Error
			if !errors.As(err, &ee) || ee.Code != CodeBadRequest {
				t.Fatalf("upload refused with %v, want a bad_request", err)
			}
			return
		}
		if req.Rows > 4096 || req.Cols > 4096 {
			t.Skip("accepted, too large to materialize in a fuzz run")
		}
		def, err := e.store.Get(req.Name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := def.Bind(rt, "csr")
		if err != nil {
			t.Fatal(err)
		}
		defer a.Destroy()
		xs := make([]float64, req.Cols)
		for i := range xs {
			xs[i] = float64(i%7 - 3)
		}
		x, y := cunumeric.FromSlice(rt, xs), cunumeric.Zeros(rt, req.Rows)
		defer x.Destroy()
		defer y.Destroy()
		a.SpMVInto(y, x)
		got := y.ToSlice()
		if err := rt.Err(); err != nil {
			t.Fatal(err)
		}
		want := seq.FromTriples(req.Rows, req.Cols, req.Row, req.Col, req.Val).SpMV(xs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%d, %d triples: y[%d] = %v, reference %v", req.Rows, req.Cols, len(req.Row), i, got[i], want[i])
			}
		}
	})
}
