package core

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

const mmGeneral = `%%MatrixMarket matrix coordinate real general
% a comment
3 4 5
1 1 2.5
1 3 -1
2 2 4
3 1 7
3 4 0.5
`

func TestReadMatrixMarketGeneral(t *testing.T) {
	rt := newRT(t, 2)
	a, err := ReadMatrixMarket(rt, strings.NewReader(mmGeneral))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows() != 3 || a.Cols() != 4 || a.NNZ() != 5 {
		t.Fatalf("shape/nnz wrong: %v", a)
	}
	d := a.ToDense()
	if d[0] != 2.5 || d[2] != -1 || d[5] != 4 || d[8] != 7 || d[11] != 0.5 {
		t.Fatalf("dense = %v", d)
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	rt := newRT(t, 1)
	src := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1
2 1 5
3 2 -2
`
	a, err := ReadMatrixMarket(rt, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := a.ToDense()
	if d[1] != 5 || d[3] != 5 {
		t.Fatal("symmetric mirror missing")
	}
	if d[5] != -2 || d[7] != -2 {
		t.Fatal("symmetric mirror missing (3,2)")
	}
	if a.NNZ() != 5 {
		t.Fatalf("nnz = %d, want 5 (3 stored + 2 mirrored)", a.NNZ())
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	rt := newRT(t, 1)
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	a, err := ReadMatrixMarket(rt, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := a.ToDense()
	if d[1] != 1 || d[2] != 1 || d[0] != 0 {
		t.Fatalf("pattern dense = %v", d)
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rt := newRT(t, 2)
	a := Random(rt, 15, 11, 0.3, 77)
	var buf bytes.Buffer
	if err := a.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(rt, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(b.ToDense(), a.ToDense(), 0) {
		t.Fatal("round trip differs")
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	rt := newRT(t, 1)
	cases := []struct {
		name, src string
	}{
		{"empty", ""},
		{"no header", "1 1 1\n1 1 2\n"},
		{"array format", "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"},
		{"bad field", "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 2 3\n"},
		{"bad symmetry", "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 2\n"},
		{"out of range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 2\n"},
		{"count mismatch", "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 2\n"},
		{"bad value", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 abc\n"},
		{"negative count", "%%MatrixMarket matrix coordinate real general\n1 1 -1\n"},
		{"huge count", "%%MatrixMarket matrix coordinate real general\n2 2 99999999999999\n1 1 1\n"},
		{"negative rows", "%%MatrixMarket matrix coordinate real general\n-1 1 0\n"},
		{"no size line", "%%MatrixMarket matrix coordinate real general\n"},
	}
	for _, c := range cases {
		if _, err := ReadMatrixMarket(rt, strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// declaredDims returns the rows and cols a Matrix Market stream's size
// line declares (0, 0 when it has none the reader would accept).
func declaredDims(src string) (rows, cols int64) {
	for _, line := range strings.Split(src, "\n")[1:] {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if f := strings.Fields(line); len(f) == 3 {
			rows, _ = strconv.ParseInt(f[0], 10, 64)
			cols, _ = strconv.ParseInt(f[1], 10, 64)
		}
		break
	}
	return rows, cols
}

// FuzzReadMatrixMarket: the reader never panics on any stream, and a
// matrix it accepts survives WriteMatrixMarket → ReadMatrixMarket with
// its shape, entry count and values intact. Streams declaring more than
// 4096 rows or columns are skipped: a header may legally declare a
// matrix larger than memory, and CSR storage is O(rows).
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add(mmGeneral)
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 1\n2 1 5\n3 2 -2\n")
	f.Add("%%MatrixMarket matrix coordinate pattern skew-symmetric\n2 2 1\n2 1\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 3\n1 1 -3\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 -1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 99999999999999\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 1 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 2 2\n1 1 NaN\n1 2 -Inf\n")
	rt := newRT(f, 1)
	f.Fuzz(func(t *testing.T, src string) {
		if rows, cols := declaredDims(src); rows > 4096 || cols > 4096 {
			t.Skip("declares a matrix too large to materialize in a fuzz run")
		}
		a, err := ReadMatrixMarket(rt, strings.NewReader(src))
		if err != nil {
			return
		}
		defer a.Destroy()
		var buf bytes.Buffer
		if err := a.WriteMatrixMarket(&buf); err != nil {
			t.Fatal(err)
		}
		b, err := ReadMatrixMarket(rt, &buf)
		if err != nil {
			t.Fatalf("re-reading own output: %v\n%s", err, buf.String())
		}
		defer b.Destroy()
		if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.NNZ() != b.NNZ() {
			t.Fatalf("round trip changed %v into %v", a, b)
		}
		_, _, av := a.hostCSR()
		_, _, bv := b.hostCSR()
		for i := range av {
			if av[i] != bv[i] && !(math.IsNaN(av[i]) && math.IsNaN(bv[i])) {
				t.Fatalf("round trip changed value %d: %v -> %v", i, av[i], bv[i])
			}
		}
	})
}
