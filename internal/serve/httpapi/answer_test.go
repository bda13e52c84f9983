package httpapi

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/serve/engine"
)

// answerBackend answers every solve, SpMV and eigen request with the
// same fixed answer; nothing else is reached.
type answerBackend struct {
	engine.Backend
	solve *engine.SolveResponse
	spmv  *engine.SpMVResponse
	eigen *engine.EigenResponse
}

func (a *answerBackend) Solve(context.Context, *engine.SolveRequest) (*engine.SolveResponse, error) {
	return a.solve, nil
}

func (a *answerBackend) SpMV(context.Context, *engine.SpMVRequest) (*engine.SpMVResponse, error) {
	return a.spmv, nil
}

func (a *answerBackend) Eigen(context.Context, *engine.EigenRequest) (*engine.EigenResponse, error) {
	return a.eigen, nil
}

// floatSeed spells vs as the little-endian float64 bit patterns
// FuzzAnswerEncoding reads.
func floatSeed(vs ...float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzAnswerEncoding: whatever floats an answer holds and however long
// its vector — either side of the split threshold at this GOMAXPROCS —
// the served body of a solve, SpMV or eigen answer is byte for byte what
// json.Encoder writes for it, and an answer it cannot encode is the same
// 500 envelope with the same message. The split encoder itself is also
// checked at 2 and 3 parts, so the splice is exercised at GOMAXPROCS 1.
// bits holds the vector's distinct float64 bit patterns (repeated to
// length n; nil under 8 bytes) and the first is the scalar field too.
func FuzzAnswerEncoding(f *testing.F) {
	const grain = encodeGrainElems
	negZero := math.Copysign(0, -1)
	f.Add(uint8(0), uint16(2*grain), floatSeed(negZero, 1, -2.5))
	f.Add(uint8(1), uint16(2*grain), floatSeed(math.Float64frombits(1), 1e-7, 1e21))
	f.Add(uint8(2), uint16(2*grain-1), floatSeed(1e-7, 9.999999999999999e-7, 1e-6))
	f.Add(uint8(0), uint16(3*grain), floatSeed(1e21, 9.99999999999999e20, -1e21))
	f.Add(uint8(1), uint16(0), []byte(nil)) // nil vector: null
	f.Add(uint8(2), uint16(1), floatSeed(0.1))
	f.Add(uint8(0), uint16(0), floatSeed(math.NaN())) // empty vector, unencodable scalar
	f.Add(uint8(0), uint16(2*grain), floatSeed(1, math.NaN()))
	f.Add(uint8(1), uint16(2*grain+1), floatSeed(2, 3, math.Inf(1)))
	f.Add(uint8(2), uint16(grain), floatSeed(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, kind uint8, n uint16, bits []byte) {
		var vec []float64
		if len(bits) >= 8 {
			vals := make([]float64, len(bits)/8)
			for i := range vals {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(bits[8*i:]))
			}
			vec = make([]float64, int(n)%(3*grain+1))
			for i := range vec {
				vec[i] = vals[i%len(vals)]
			}
		}
		scalar := 0.5
		if len(bits) >= 8 {
			scalar = math.Float64frombits(binary.LittleEndian.Uint64(bits))
		}
		backend := &answerBackend{
			solve: &engine.SolveResponse{X: vec, Iterations: 7, Residual: scalar, Converged: true, Cache: "hit", Batched: 1, LatencyNS: 12345},
			spmv:  &engine.SpMVResponse{Y: vec, Cache: "miss", Batched: 2, Worker: 1, LatencyNS: 678},
			eigen: &engine.EigenResponse{Eigenvalue: scalar, Vector: vec, Cache: "hit", Worker: 3, LatencyNS: 9},
		}
		var answer any
		var path string
		var held func() []float64
		switch kind % 3 {
		case 0:
			answer, path, held = backend.solve, "/solve", func() []float64 { return backend.solve.X }
		case 1:
			answer, path, held = backend.spmv, "/spmv", func() []float64 { return backend.spmv.Y }
		default:
			answer, path, held = backend.eigen, "/eigen", func() []float64 { return backend.eigen.Vector }
		}

		var want bytes.Buffer
		encErr := json.NewEncoder(&want).Encode(answer)

		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"matrix":"m"}`))
		newHandler(backend, testBodyLimit).ServeHTTP(rec, req)
		if got := held(); len(got) != len(vec) || (len(vec) > 0 && &got[0] != &vec[0]) {
			t.Fatal("writeJSON modified the backend's answer")
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q", ct)
		}
		if encErr != nil {
			var env ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("status %d, body is not an envelope: %v", rec.Code, err)
			}
			msg := "encoding the answer: " + encErr.Error()
			if rec.Code != http.StatusInternalServerError || env.Code != string(engine.CodeInternal) || env.Retryable || env.Error != msg {
				t.Fatalf("status %d, envelope %+v; want 500, internal, not retryable, %q", rec.Code, env, msg)
			}
		} else {
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
			if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Fatalf("served body differs from json.Encoder's (%d vs %d bytes, %d elements)",
					rec.Body.Len(), want.Len(), len(vec))
			}
		}

		for _, parts := range []int{2, 3} {
			body, ok := encodeAnswer(answer, parts)
			switch {
			case encErr != nil || len(vec) < parts:
				if ok {
					t.Fatalf("%d parts: encoded an answer the serial path must handle", parts)
				}
			case !ok:
				t.Fatalf("%d parts: refused an encodable %d-element answer", parts, len(vec))
			case !bytes.Equal(body, want.Bytes()):
				t.Fatalf("%d parts: body differs from json.Encoder's", parts)
			}
		}
	})
}

// BenchmarkAnswerEncoding times one answer's encoding, serially through
// json.Encoder and split over GOMAXPROCS parts (at least 2) by
// encodeAnswer, at sizes either side of the grain: the crossover table
// behind encodeGrainElems. The values are full-precision doubles, like a
// solver's answer.
func BenchmarkAnswerEncoding(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 16} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		answer := &engine.SolveResponse{X: x, Iterations: 8, Residual: 1e-9, Converged: true, Cache: "hit", Batched: 1}
		b.Run(fmt.Sprintf("n=%d/serial", n), func(b *testing.B) {
			for range b.N {
				if err := json.NewEncoder(io.Discard).Encode(answer); err != nil {
					b.Fatal(err)
				}
			}
		})
		parts := max(2, runtime.GOMAXPROCS(0))
		b.Run(fmt.Sprintf("n=%d/split", n), func(b *testing.B) {
			for range b.N {
				if _, ok := encodeAnswer(answer, parts); !ok {
					b.Fatal("encodeAnswer refused the answer")
				}
			}
		})
	}
}
