package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval recorded by benchmark code around a call
// into a layer. Start and End are nanoseconds since the recorder was
// made. Parent is the index of the enclosing span in the same recorder
// (-1 for a root) and Op numbers the workload op the span belongs to,
// so all spans of one request share an identifier.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory; one recorder belongs to one
// goroutine, so recording takes no lock. A nil recorder records
// nothing, which is how the untraced pass runs the same code.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, to be passed to end and
// used as the parent of spans opened inside it.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its direct children cover.
// Overlapping children are counted once, and a child is clipped to its
// parent, so self time is never negative.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for i, s := range spans {
		self[s.Name] += (s.End - s.Start) - cover(children[i], s.Start, s.End)
	}
	return self
}

// cover is the length of the union of the spans clipped to [lo, hi].
func cover(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	at := lo
	for _, s := range spans {
		start, end := max(s.Start, at), min(s.End, hi)
		if end > start {
			total += end - start
			at = end
		}
	}
	return total
}

// traceFile is what a traced epoch leaves in benchmark/out: the spans of
// every client of that epoch.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Clients  [][]span `json:"clients"`
}

func writeTrace(dir string, tf *traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), buf, 0o644)
}
