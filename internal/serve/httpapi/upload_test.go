package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/serve/engine"
)

// uploadBackend is the engine side of an upload decode test: it keeps
// the upload the transport handed it and acknowledges it unvalidated.
type uploadBackend struct {
	engine.Backend
	got *engine.UploadRequest
}

func (u *uploadBackend) Upload(_ context.Context, req *engine.UploadRequest) (*engine.UploadResponse, error) {
	u.got = req
	return &engine.UploadResponse{Name: req.Name, NNZ: len(req.Val)}, nil
}

// postUpload sends body to POST /matrix on a handler with testBodyLimit
// and returns the status, the reply and the upload the backend saw (nil
// if the transport refused it).
func postUpload(t *testing.T, body string) (int, []byte, *engine.UploadRequest) {
	t.Helper()
	backend := &uploadBackend{}
	rec := httptest.NewRecorder()
	newHandler(backend, testBodyLimit).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/matrix", strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes(), backend.got
}

// sameUpload reports how two decoded uploads differ, or "" if they hold
// the same fields: equal integers and names, floats with equal bits,
// and slices nil in both or in neither.
func sameUpload(a, b *engine.UploadRequest) string {
	switch {
	case a.Name != b.Name || a.Rows != b.Rows || a.Cols != b.Cols || a.Meta != b.Meta:
		return fmt.Sprintf("header %q %d×%d %+v, want %q %d×%d %+v", a.Name, a.Rows, a.Cols, a.Meta, b.Name, b.Rows, b.Cols, b.Meta)
	case !sameSlice(a.Row, b.Row, slices.Equal[[]int64]):
		return fmt.Sprintf("row %v, want %v", a.Row, b.Row)
	case !sameSlice(a.Col, b.Col, slices.Equal[[]int64]):
		return fmt.Sprintf("col %v, want %v", a.Col, b.Col)
	case !sameSlice(a.Val, b.Val, bitsEqual):
		return fmt.Sprintf("val %v, want %v", a.Val, b.Val)
	}
	return ""
}

// sameSlice reports whether a and b are nil in both or in neither and
// eq holds for them.
func sameSlice[T any](a, b []T, eq func(a, b []T) bool) bool {
	return (a == nil) == (b == nil) && eq(a, b)
}

// FuzzUploadDecode: whatever bytes arrive as an upload, decodeUpload
// gives exactly what json.Decoder gives — the same fields with the same
// float bits, or the same error — and POST /matrix either hands the
// backend that request or answers 400 with that error. A body past the
// limit is refused whatever it holds.
func FuzzUploadDecode(f *testing.F) {
	canonical := `{"name":"m","rows":3,"cols":4,"row":[0,0,2],"col":[1,3,2],"val":[0.1,-2.5e-7,3]}`
	f.Add(canonical)
	f.Add(`{"Name":"m","rows":3,"cols":4,"row":[0],"col":[1],"val":[1]}`)
	f.Add(`{"name":"m","rows":3,"cols":4,"meta":{},"row":[0],"col":[1],"val":[1]}`)
	f.Add(`{"name":"m","rows":3,"rows":5,"cols":4,"row":[0],"col":[1],"val":[1],"val":[2]}`)
	f.Add(`{"name":"mé","rows":3,"cols":4,"row":[0],"col":[1],"val":[1]}`)
	f.Add(`{"name":"m\u00e9","rows":3,"cols":4,"row":[0],"col":[1],"val":[1]}`)
	f.Add("{\"name\":\"m\xff\",\"rows\":3,\"cols\":4,\"row\":[0],\"col\":[1],\"val\":[1]}")
	f.Add(`{"name":"m","rows":3,"cols":4,"row":null,"col":null,"val":null}`)
	f.Add(`{"name":"m","rows":3,"cols":4,"row":[],"col":[],"val":[]}`)
	f.Add(`{"name":"m","rows":1.0,"cols":1e3,"row":[0],"col":[1],"val":[1]}`)
	f.Add(`{"name":"m","rows":-0,"cols":4,"row":[-0],"col":[1],"val":[-0,-0.0,0e5]}`)
	f.Add(`{"name":"m","rows":3,"cols":4,"row":[0],"col":[1],"val":[1e400]}`)
	f.Add(`{"name":"m","rows":+1,"cols":4,"row":[0],"col":[1],"val":[1]}`)
	f.Add(`{"name":"m","rows":3,"cols":4,"row":[0],"col":[1],"val":[.5]}`)
	f.Add(`{"name":"m","rows":03,"cols":4,"row":[0],"col":[1],"val":[1]}`)
	f.Add(`{"name":"m","rows":3,"cols":4,"row":[0],"col":[1],"val":[1.]}`)
	f.Add(`{"name":"m","rows":3,"cols":4,"row":[0],"col":[1],"val":[1e]}`)
	f.Add(`{"name":"m","rows":3,"cols":4,"row":[0],"col":[1],"val":[NaN]}`)
	f.Add(`{"name":"m","rows":99999999999999999999,"cols":4,"row":[0],"col":[1],"val":[1e-400]}`)
	f.Add(" \t\r\n{ \"name\" :\"m\" ,\n\"rows\"\t:3,\"cols\":4 ,\"row\":[ 0 ,1 ],\"col\":[1,\r0],\"val\":[1 ,2]\n}\n")
	f.Add(canonical + `garbage{"name":`)
	f.Add(`{"name":"m","rows":3,"cols":4,"row":[0,],"col":[1],"val":[1]`)
	f.Add(`{"name":"m","rows":3,"cols":4,"row":[,,,,,,],"col":[1 2],"val":[1]}`)
	f.Add(canonical + strings.Repeat(" ", testBodyLimit-len(canonical)))   // exactly the limit
	f.Add(canonical + strings.Repeat(" ", testBodyLimit+1-len(canonical))) // one byte past it
	f.Add(``)
	f.Fuzz(func(t *testing.T, body string) {
		var got, want engine.UploadRequest
		gotErr := decodeUpload([]byte(body), &got)
		wantErr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("decodeUpload error %v, json.Decoder error %v", gotErr, wantErr)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("decodeUpload error %q, json.Decoder error %q", gotErr, wantErr)
		case gotErr == nil:
			if diff := sameUpload(&got, &want); diff != "" {
				t.Fatal(diff)
			}
		}

		status, reply, seen := postUpload(t, body)
		if len(body) > testBodyLimit {
			wantErr = &http.MaxBytesError{Limit: testBodyLimit}
		}
		if wantErr != nil {
			var env ErrorResponse
			if status != http.StatusBadRequest || seen != nil || json.Unmarshal(reply, &env) != nil ||
				env.Code != string(engine.CodeBadRequest) || env.Error != wantErr.Error() {
				t.Fatalf("status %d, reached backend %v, reply %s; want 400 with %q", status, seen != nil, reply, wantErr)
			}
			return
		}
		if status != http.StatusOK || seen == nil {
			t.Fatalf("status %d, reply %s", status, reply)
		}
		if diff := sameUpload(seen, &want); diff != "" {
			t.Fatal(diff)
		}
	})
}

// uploadBody marshals an upload of a pentadiagonal n×n matrix whose
// off-diagonal values come from a seeded generator, in row-major order:
// the shape of the benchmark's churn uploads.
func uploadBody(n int64) []byte {
	rng := rand.New(rand.NewSource(n))
	req := engine.UploadRequest{Name: fmt.Sprintf("penta-%d", n), Rows: n, Cols: n}
	for i := int64(0); i < n; i++ {
		for j := max(0, i-2); j <= min(n-1, i+2); j++ {
			v := -(0.25 + 0.75*rng.Float64())
			if i == j {
				v = 3 + rng.Float64()
			}
			req.Row, req.Col, req.Val = append(req.Row, i), append(req.Col, j), append(req.Val, v)
		}
	}
	body, err := json.Marshal(&req)
	if err != nil {
		panic(err)
	}
	return body
}

// poissonBody marshals an upload of the 5-point Laplacian on an nx×nx
// grid, the triples of the poisson2d:nx preset.
func poissonBody(nx int64) []byte {
	n := nx * nx
	req := engine.UploadRequest{Name: fmt.Sprintf("poisson2d-%d", nx), Rows: n, Cols: n}
	for row := int64(0); row < n; row++ {
		i, j := row/nx, row%nx
		for _, e := range []struct {
			ok  bool
			col int64
			v   float64
		}{{i > 0, row - nx, -1}, {j > 0, row - 1, -1}, {true, row, 4}, {j < nx-1, row + 1, -1}, {i < nx-1, row + nx, -1}} {
			if e.ok {
				req.Row, req.Col, req.Val = append(req.Row, row), append(req.Col, e.col), append(req.Val, e.v)
			}
		}
	}
	body, err := json.Marshal(&req)
	if err != nil {
		panic(err)
	}
	return body
}

// TestUploadDecodeAllocs: the fast path takes a marshalled upload, and
// its allocations do not grow with the number of entries — one per
// array and one for the name, none per number.
func TestUploadDecodeAllocs(t *testing.T) {
	allocs := func(n int64) float64 {
		body := uploadBody(n)
		var req engine.UploadRequest
		if !parseUpload(body, &req) {
			t.Fatalf("%d rows: the fast path refused a marshalled upload", n)
		}
		return testing.AllocsPerRun(20, func() {
			if err := decodeUpload(body, &req); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(20), allocs(2000) // 96 and 9,996 triples
	if large > small || large > 4 {
		t.Fatalf("decoding allocates %v times for 96 triples and %v for 9,996; want at most 4 for both", small, large)
	}
}

// BenchmarkUploadDecode compares encoding/json with decodeUpload on
// upload bodies the size of the benchmark's churn matrices (600, 1,750
// and 2,900 pentadiagonal rows) and of the poisson2d:256 preset (326,656
// triples). Run with -cpu 2 for the DESIGN "Upload decoding" table.
func BenchmarkUploadDecode(b *testing.B) {
	bodies := []struct {
		name string
		body []byte
	}{
		{"rows=600", uploadBody(600)},
		{"rows=1750", uploadBody(1750)},
		{"rows=2900", uploadBody(2900)},
		{"poisson2d=256", poissonBody(256)},
	}
	for _, c := range bodies {
		for _, d := range []struct {
			name   string
			decode func([]byte, *engine.UploadRequest) error
		}{
			{"json", func(body []byte, req *engine.UploadRequest) error {
				return json.NewDecoder(bytes.NewReader(body)).Decode(req)
			}},
			{"fast", decodeUpload},
		} {
			b.Run(c.name+"/"+d.name, func(b *testing.B) {
				b.SetBytes(int64(len(c.body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var req engine.UploadRequest
					if err := d.decode(c.body, &req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
