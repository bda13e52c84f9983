package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/legion"
	"repro/internal/machine"
	"repro/internal/serve/engine"
	"repro/internal/serve/httpapi"
	"repro/internal/shard"
	"repro/internal/solvers"
)

// answer is what the program returned for one op, in the cheapest form
// that still lets it be compared bit for bit. A library op answers with
// its residual history. An HTTP op answers with the head of the
// response body up to the end of its first array (the numeric payload,
// which repeats byte for byte when the floats do) and the tail after it
// (cache flag, latency, worker: fields that legitimately vary).
type answer struct {
	vals []float64
	head []byte
	tail []byte
}

func (a *answer) miss() bool { return bytes.Contains(a.tail, []byte(`"cache":"miss"`)) }

// sut is a system under test that a client can send requests to.
type sut interface {
	// do executes one request; rec (may be nil) receives the spans of
	// the calls made for it, under the op's root span.
	do(client int, r request, m *hostMatrix, rec *recorder, root, op int) (answer, error)
	close()
}

// --- library path ------------------------------------------------------

// libSUT is solvers.CG on one runtime: machine.Summit(1) with 2 CPU
// processors, everything else at the library's defaults.
type libSUT struct {
	rt *legion.Runtime
	a  *core.CSR
	b  *cunumeric.Array
}

func newLibRuntime() *legion.Runtime {
	m := machine.Summit(1)
	return legion.NewRuntime(m, m.Select(machine.CPU, 2))
}

func newLibSUT(w *workload) *libSUT {
	rt := newLibRuntime()
	a := core.Poisson2D(rt, w.NX)
	b := cunumeric.Full(rt, a.Rows(), 1)
	rt.Fence()
	return &libSUT{rt: rt, a: a, b: b}
}

func (s *libSUT) do(_ int, _ request, _ *hostMatrix, rec *recorder, root, op int) (answer, error) {
	var res *solvers.Result
	if rec == nil {
		res = solvers.CG(s.a, s.b, cgMaxIter, cgTol)
	} else {
		res = mirrorCG(rec, root, op, s.a, s.b, cgMaxIter, cgTol)
	}
	id := rec.begin("cunumeric.Destroy", root, op)
	res.X.Destroy()
	rec.end(id)
	if res.Err != nil {
		return answer{}, res.Err
	}
	return answer{vals: res.Residuals}, nil
}

func (s *libSUT) close() { s.rt.Shutdown() }

// --- HTTP path ---------------------------------------------------------

// httpSUT is an in-process HTTP server over a Backend (a plain engine
// or a shard coordinator) with one keep-alive connection per client.
type httpSUT struct {
	backend engine.Backend
	server  *httptest.Server
	clients []*http.Client

	reqBytes, respBytes atomic.Int64 // body bytes sent and received, all clients
}

// newHTTPSUT builds the served stack at legate-serve's defaults: the
// zero engine.Config (pool 2, procs 4, cache 8, 2 ms batch window,
// tuning on, checkpoint every 64). The shard count is the only
// non-default setting anywhere in the benchmark.
func newHTTPSUT(w *workload, pl *plan) (*httpSUT, error) {
	var backend engine.Backend
	var err error
	if w.Kind == "shard" {
		backend, err = shard.New(shard.Config{Shards: 2})
	} else {
		backend, err = engine.New(engine.Config{})
	}
	if err != nil {
		return nil, err
	}
	s := serveHTTP(backend, w.Clients)
	if w.NX > 0 { // a poisson2d:<nx> preset, which the store materialises on first use
		return s, nil
	}
	for i, m := range pl.Matrices {
		if _, err := s.do(0, request{Class: "upload", Matrix: i}, m, nil, -1, -1); err != nil {
			s.close()
			return nil, fmt.Errorf("upload %s: %w", m.Name, err)
		}
	}
	return s, nil
}

// serveHTTP puts the HTTP transport in front of a backend and opens one
// keep-alive connection per client.
func serveHTTP(backend engine.Backend, clients int) *httpSUT {
	s := &httpSUT{backend: backend, server: httptest.NewServer(httpapi.Handler(backend))}
	for c := 0; c < clients; c++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	return s
}

func (s *httpSUT) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.server.Close()
	s.backend.Close()
}

// wireRequest turns a generated request into the path and JSON body
// the program sees.
func (s *httpSUT) wireRequest(r request, m *hostMatrix) (path string, body []byte, err error) {
	name := m.Name
	var v any
	switch r.Class {
	case "solve":
		path, v = "/solve", engine.SolveRequest{Matrix: name, MaxIter: cgMaxIter, Tol: cgTol}
	case "spmv":
		path, v = "/spmv", engine.SpMVRequest{Matrix: name}
	case "eigen":
		path, v = "/eigen", engine.EigenRequest{Matrix: name, Iters: eigenIters, Seed: eigenSeed(r.Matrix)}
	case "upload":
		row, col, val := m.triples()
		path, v = "/matrix", engine.UploadRequest{Name: name, Rows: m.Rows, Cols: m.Cols, Row: row, Col: col, Val: val}
	default:
		return "", nil, fmt.Errorf("unknown request class %q", r.Class)
	}
	body, err = json.Marshal(v)
	return path, body, err
}

func (s *httpSUT) do(client int, r request, m *hostMatrix, rec *recorder, root, op int) (answer, error) {
	id := rec.begin("client.encode", root, op)
	path, body, err := s.wireRequest(r, m)
	rec.end(id)
	if err != nil {
		return answer{}, err
	}
	id = rec.begin("httpapi.roundtrip", root, op)
	resp, err := s.clients[client].Post(s.server.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		rec.end(id)
		return answer{}, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.end(id)
	if err != nil {
		return answer{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	s.reqBytes.Add(int64(len(body)))
	s.respBytes.Add(int64(len(out)))
	if r.Class == "upload" {
		var up engine.UploadResponse
		if err := json.Unmarshal(out, &up); err != nil {
			return answer{}, err
		}
		if up.NNZ != len(m.Data) {
			return answer{}, fmt.Errorf("upload %s: stored %d entries, sent %d", m.Name, up.NNZ, len(m.Data))
		}
		return answer{}, nil
	}
	cut := bytes.IndexByte(out, ']') + 1
	return answer{head: out[:cut], tail: out[cut:]}, nil
}

// eigenSeed fixes the start vector of a matrix's power iteration, so a
// matrix revision has exactly one right answer per request class.
func eigenSeed(matrix int) uint64 { return uint64(1000 + matrix) }

// --- verification ------------------------------------------------------

// relTol is how far an answer may sit from the sequential reference,
// relative to the reference's largest entry. The program folds its dot
// products over one partial per processor, so it differs from seq in
// the last bits and no more.
const relTol = 1e-9

// reference computes the seq answer of a request class on m, in the
// flat form decode produces.
func reference(class string, matrix int, m *hostMatrix, lib bool) []float64 {
	switch class {
	case "solve":
		x, hist := m.CG(ones(m.Rows), cgMaxIter, cgTol)
		if lib {
			return hist
		}
		return x
	case "spmv":
		return m.SpMV(ones(m.Rows))
	default:
		lambda, vec := seqPower(m, eigenIters, eigenSeed(matrix))
		return append([]float64{lambda}, vec...)
	}
}

// ones is the default right-hand side and SpMV operand of every request.
func ones(n int64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// seqPower is solvers.PowerIteration on host slices.
func seqPower(m *hostMatrix, iters int, seed uint64) (float64, []float64) {
	x := make([]float64, m.Rows)
	for i := range x {
		x[i] = cunumeric.Uniform01(seed, uint64(i))
	}
	y := make([]float64, m.Rows)
	for it := 0; it < iters; it++ {
		m.SpMVInto(y, x)
		nrm := math.Sqrt(dot(y, y))
		if nrm == 0 {
			break
		}
		for i := range y {
			y[i] *= 1 / nrm
		}
		x, y = y, x
	}
	m.SpMVInto(y, x)
	return dot(x, y), x
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// decode flattens an HTTP answer into floats.
func decode(class string, a *answer) ([]float64, error) {
	body := append(append([]byte(nil), a.head...), a.tail...)
	switch class {
	case "solve":
		var r engine.SolveResponse
		err := json.Unmarshal(body, &r)
		return r.X, err
	case "spmv":
		var r engine.SpMVResponse
		err := json.Unmarshal(body, &r)
		return r.Y, err
	default:
		var r engine.EigenResponse
		err := json.Unmarshal(body, &r)
		return append([]float64{r.Eigenvalue}, r.Vector...), err
	}
}

type refKey struct {
	matrix int
	class  string
}

// ref is the right answer for one (matrix revision, class): the seq
// reference, and the first answer seen, which every later one must
// repeat bit for bit.
type ref struct {
	want  []float64
	first *answer
}

// verifier checks every op's result. Hot matrices are shared by the
// clients, hence the lock.
type verifier struct {
	mu   sync.Mutex
	lib  bool
	refs map[refKey]*ref
}

func newVerifier(lib bool) *verifier {
	return &verifier{lib: lib, refs: map[refKey]*ref{}}
}

// expect installs the seq references of every class for the current
// contents of a matrix, forgetting the previous revision's answers.
func (v *verifier) expect(matrix int, m *hostMatrix, classes []string, corrupt bool) {
	for _, class := range classes {
		want := reference(class, matrix, m, v.lib)
		if corrupt {
			want[0] = want[0]*1.001 + 1e-3
		}
		v.mu.Lock()
		v.refs[refKey{matrix, class}] = &ref{want: want}
		v.mu.Unlock()
	}
}

func (v *verifier) check(k refKey, a answer) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	r := v.refs[k]
	if r == nil {
		return fmt.Errorf("no reference for matrix %d %s", k.matrix, k.class)
	}
	if r.first != nil {
		if !bytes.Equal(a.head, r.first.head) || !sameBits(a.vals, r.first.vals) {
			return fmt.Errorf("matrix %d %s: answer is not bit-identical to the first answer of this revision", k.matrix, k.class)
		}
		return nil
	}
	got := a.vals
	if !v.lib {
		var err error
		if got, err = decode(k.class, &a); err != nil {
			return err
		}
	}
	if err := closeTo(got, r.want); err != nil {
		return fmt.Errorf("matrix %d %s vs seq: %w", k.matrix, k.class, err)
	}
	r.first = &a
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func closeTo(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	var scale float64
	for _, w := range want {
		scale = math.Max(scale, math.Abs(w))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); !(d <= relTol*scale) {
			return fmt.Errorf("entry %d is %v, want %v (off by %.3g of the largest entry)", i, got[i], want[i], d/scale)
		}
	}
	return nil
}

// plainEngineAnswer solves the standard op on a plain single-process
// engine and returns it in the form an HTTP response would carry. The
// sharded workload checks it against seq and installs it as the first
// answer, so every sharded x has to equal a plain engine's byte for
// byte.
func plainEngineAnswer(preset string) (answer, error) {
	e, err := engine.New(engine.Config{})
	if err != nil {
		return answer{}, err
	}
	defer e.Close()
	resp, err := e.Solve(context.Background(), &engine.SolveRequest{Matrix: preset, MaxIter: cgMaxIter, Tol: cgTol})
	if err != nil {
		return answer{}, err
	}
	x, err := json.Marshal(resp.X)
	if err != nil {
		return answer{}, err
	}
	return answer{head: append([]byte(`{"x":`), x...), tail: []byte("}")}, nil
}
