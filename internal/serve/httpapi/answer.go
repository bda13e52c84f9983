package httpapi

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"

	"repro/internal/serve/engine"
)

// encodeGrainElems is the answer-encoding grain: the fewest vector
// elements one goroutine formats when writeJSON splits an answer. An
// answer whose vector holds fewer than two grains is encoded serially,
// as is every answer at GOMAXPROCS 1. Set from BenchmarkAnswerEncoding's
// crossover table (DESIGN "legate-serve").
const encodeGrainElems = 1 << 11

// answerVector returns the vector of a solve, SpMV or eigen answer, the
// JSON key that precedes it, and a shallow copy of the answer with that
// vector nil, which marshals to the envelope with `null` in its place.
// The answer itself is never modified. ok is false for any other value.
// In each of the three types the vector precedes every string field, so
// the first occurrence of key followed by null in the envelope is the
// vector's.
func answerVector(v any) (vec []float64, key string, env any, ok bool) {
	switch a := v.(type) {
	case *engine.SolveResponse:
		c := *a
		c.X = nil
		return a.X, `"x":`, &c, true
	case *engine.SpMVResponse:
		c := *a
		c.Y = nil
		return a.Y, `"y":`, &c, true
	case *engine.EigenResponse:
		c := *a
		c.Vector = nil
		return a.Vector, `"vector":`, &c, true
	}
	return nil, "", nil, false
}

// answerParts is how many contiguous chunks writeJSON encodes v's
// vector in: one per processor, each at least encodeGrainElems long,
// and 1 (the serial path) for a value that is no answer.
func answerParts(v any) int {
	vec, _, _, ok := answerVector(v)
	if !ok {
		return 1
	}
	return max(1, min(runtime.GOMAXPROCS(0), len(vec)/encodeGrainElems))
}

// encodeAnswer returns the bytes json.NewEncoder(w).Encode(v) writes,
// with v's vector marshalled as parts contiguous chunks at once: each a
// plain json.Marshal of its sub-slice, spliced without its brackets in
// place of the envelope's null. ok is false when v is no answer, its
// vector has fewer than parts elements, or any piece fails to encode —
// the serial encoder then reports the same error it always did.
func encodeAnswer(v any, parts int) (body []byte, ok bool) {
	vec, key, env, ok := answerVector(v)
	if !ok || parts < 2 || len(vec) < parts {
		return nil, false
	}
	chunks := make([][]byte, parts)
	errs := make([]error, parts)
	chunk := func(i int) {
		lo, hi := i*len(vec)/parts, (i+1)*len(vec)/parts
		chunks[i], errs[i] = json.Marshal(vec[lo:hi])
	}
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for i := 1; i < parts; i++ {
		go func() {
			defer wg.Done()
			chunk(i)
		}()
	}
	chunk(0)
	head, err := json.Marshal(env)
	wg.Wait()
	if err != nil {
		return nil, false
	}
	for _, err := range errs {
		if err != nil {
			return nil, false
		}
	}
	at := bytes.Index(head, []byte(key+"null"))
	if at < 0 {
		return nil, false
	}
	at += len(key)
	size := len(head) + len("\n")
	for _, c := range chunks {
		size += len(c)
	}
	body = make([]byte, 0, size)
	body = append(body, head[:at]...)
	body = append(body, '[')
	for i, c := range chunks {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, c[1:len(c)-1]...)
	}
	body = append(body, ']')
	body = append(body, head[at+len("null"):]...)
	return append(body, '\n'), true
}
