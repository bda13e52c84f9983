package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent: clipped
		{Name: "inner", Start: 12, End: 18, Parent: 1},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"op":    100 - (40 + 10), // cover is [10,50] and [90,100]
		"a":     20 - 6,
		"b":     30,
		"c":     30,
		"inner": 6,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
}

func TestSelfTimeSumsSpansOfOneName(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 10, Parent: -1, Op: 0},
		{Name: "get", Start: 2, End: 5, Parent: 0, Op: 0},
		{Name: "op", Start: 10, End: 30, Parent: -1, Op: 1},
		{Name: "get", Start: 11, End: 21, Parent: 2, Op: 1},
	}
	self := selfTimes(spans)
	if self["op"] != 7+10 || self["get"] != 13 {
		t.Errorf("self = %v", self)
	}
	// Self times partition the root spans: they add up to the ops' wall.
	if sum := self["op"] + self["get"]; sum != 10+20 {
		t.Errorf("self times sum to %d, want the 30 ns of the two ops", sum)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0)
	r.end(id) // must not panic: the untraced pass runs the same code
}

func TestRecorderNestsAndTraceFileRoundTrips(t *testing.T) {
	r := newRecorder()
	root := r.begin("op", -1, 7)
	child := r.begin("call", root, 7)
	r.end(child)
	r.end(root)
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[1].Op != 7 {
		t.Fatalf("spans = %+v", r.spans)
	}
	if r.spans[0].End < r.spans[1].End || r.spans[1].Start < r.spans[0].Start {
		t.Errorf("child %+v not inside parent %+v", r.spans[1], r.spans[0])
	}
	dir := t.TempDir()
	if err := writeTrace(dir, &traceFile{Workload: "w", Seed: 3, Clients: [][]span{r.spans}}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, "trace-w.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back traceFile
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Seed != 3 || len(back.Clients) != 1 || back.Clients[0][1] != r.spans[1] {
		t.Errorf("round trip lost data: %+v", back)
	}
}
