// Package prof is the runtime's observability subsystem — the role the
// Legion Prof and Legion Spy tools play for the real Legion runtime.
// The legion runtime publishes events into a Sink from every layer:
//
//   - per-point task spans on the *simulated* timeline (processor,
//     launch, fusion group, trace-replay epoch, checkpoint epoch),
//   - dependence edges as the dynamic analysis discovers them (the
//     Legion Spy role),
//   - coherence copies tagged with their machine link class and bytes,
//   - mapper allocation/eviction traffic and fault-recovery marks.
//
// The Sink is a bounded ring buffer: recording never allocates without
// bound (old events are overwritten and counted as dropped), and a nil
// sink costs one pointer compare per event site, so profiling is
// near-free when off. Exporters over an immutable Snapshot produce a
// Chrome-trace/Perfetto JSON timeline, a Graphviz DOT dependence graph,
// and an aggregate Report with a critical-path analysis (the
// achievable-speedup bound for the workload) and a per-link-class
// communication matrix. See cmd/legate-prof.
//
// Beside the rings, the sink keeps one per-task-name Summary (launches,
// points, simulated time, fused launches and their members), folded in
// as records arrive so it survives ring overflow. It is the runtime's
// only task profile: `legate-bench -exp info`, `solve -profile` and
// `examples/poisson -profile` print it.
package prof

import (
	"sort"
	"sync"
	"time"

	"repro/internal/machine"
)

// DefaultCapacity is the per-stream ring capacity of NewSink(0) —
// large enough to hold every event of the benchmark presets, small
// enough that an unbounded producer cannot exhaust memory.
const DefaultCapacity = 1 << 18

// HostProc mirrors legion.HostProc: copies sourced from host memory
// carry it as their Src processor.
const HostProc = -1

// Span is one point task execution on the simulated timeline.
type Span struct {
	Run    int           `json:"run"`    // runtime attach index (one per profiled runtime)
	Task   string        `json:"task"`   // launch name ("fused[...]" for a fused carrier)
	Launch int64         `json:"launch"` // launch sequence number within the run
	Point  int           `json:"point"`  // point index within the launch domain
	Proc   int           `json:"proc"`   // machine.ProcID the point ran on
	Node   int           `json:"node"`   // node hosting the processor
	Start  time.Duration `json:"start"`  // simulated start time
	Dur    time.Duration `json:"dur"`    // simulated duration (overhead + copies + kernel)
	Work   int64         `json:"work"`   // elements the kernel time was charged for

	// Composition tags: which optimization regime the span ran under.
	FusedMembers int   `json:"fused_members,omitempty"` // >0: carrier of that many fused launches
	TraceID      int64 `json:"trace_id,omitempty"`      // enclosing trace (0 = none)
	TraceEpoch   int64 `json:"trace_epoch,omitempty"`   // nth execution of that trace (1 = recording)
	TraceReplay  bool  `json:"trace_replay,omitempty"`  // span issued during a trace replay
	CkptEpoch    int64 `json:"ckpt_epoch,omitempty"`    // checkpoint epoch (0 until the first commit)
	Replay       bool  `json:"replay,omitempty"`        // span re-executed by fault recovery
}

// End returns the span's simulated finish time.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// Dep is one dependence edge between two launches of the same run,
// discovered by the runtime's dynamic analysis (RAW/WAW/WAR).
type Dep struct {
	Run  int   `json:"run"`
	From int64 `json:"from"` // producing launch sequence number
	To   int64 `json:"to"`   // consuming launch sequence number
}

// Copy is one modeled coherence copy between processor memories.
type Copy struct {
	Run   int               `json:"run"`
	Src   int               `json:"src"` // source ProcID (HostProc for host memory)
	Dst   int               `json:"dst"` // destination ProcID
	Link  machine.LinkClass `json:"link"`
	Bytes int64             `json:"bytes"`
}

// MemKind classifies a mapper memory event.
type MemKind int

const (
	// MemAlloc is a fresh allocation on a processor.
	MemAlloc MemKind = iota
	// MemGrow is an allocation resized by the coalescing heuristic
	// (its previous contents are copied — §4.3's realloc traffic).
	MemGrow
	// MemReuse is a view landing in a pooled allocation.
	MemReuse
	// MemEvict is a processor's memory dropped after a modeled kill.
	MemEvict
)

func (k MemKind) String() string {
	switch k {
	case MemAlloc:
		return "alloc"
	case MemGrow:
		return "grow"
	case MemReuse:
		return "reuse"
	case MemEvict:
		return "evict"
	default:
		return "mem?"
	}
}

// MemEvent is one mapper allocation-lifecycle event.
type MemEvent struct {
	Run    int     `json:"run"`
	Kind   MemKind `json:"kind"`
	Proc   int     `json:"proc"`
	Region string  `json:"region,omitempty"`
	Bytes  int64   `json:"bytes"`
}

// MarkKind classifies an instantaneous runtime event.
type MarkKind int

const (
	// MarkFault is a point task whose kernel panicked.
	MarkFault MarkKind = iota
	// MarkCheckpoint is a checkpoint epoch commit.
	MarkCheckpoint
	// MarkRestore is a checkpoint restore before recovery replay.
	MarkRestore
	// MarkProcDeath is a processor retired after a modeled kill.
	MarkProcDeath
	// MarkShed is a request rejected by serve admission control (queue
	// full, quota exhausted, breaker open, or queue wait past the
	// deadline budget). Task carries the shed code.
	MarkShed
	// MarkCancel is a cooperative cancellation that fired: a deadline
	// expired or a client abandoned its request mid-epoch.
	MarkCancel
	// MarkBreaker is a circuit-breaker state transition; Task carries
	// the new state (open, half-open, closed).
	MarkBreaker
	// MarkFailover is a shard-coordinator request retried on the next
	// engine after the one it tried degraded; Proc carries the shard
	// that was abandoned and Task the matrix name.
	MarkFailover
)

func (k MarkKind) String() string {
	switch k {
	case MarkFault:
		return "fault"
	case MarkCheckpoint:
		return "checkpoint"
	case MarkRestore:
		return "restore"
	case MarkProcDeath:
		return "proc-death"
	case MarkShed:
		return "shed"
	case MarkCancel:
		return "cancel"
	case MarkBreaker:
		return "breaker"
	case MarkFailover:
		return "failover"
	default:
		return "mark?"
	}
}

// Mark is one instantaneous event on the simulated timeline.
type Mark struct {
	Run   int           `json:"run"`
	Kind  MarkKind      `json:"kind"`
	At    time.Duration `json:"at"`
	Proc  int           `json:"proc,omitempty"`
	Task  string        `json:"task,omitempty"`
	Point int           `json:"point,omitempty"`
	Bytes int64         `json:"bytes,omitempty"`
}

// LaunchInfo is the Spy-side record of one launch: identity, shape, and
// the optimization regime it was issued under. Spans reference it by
// (Run, Seq).
type LaunchInfo struct {
	Run         int      `json:"run"`
	Seq         int64    `json:"seq"`
	Name        string   `json:"name"`
	Points      int      `json:"points"`
	Stream      int64    `json:"stream,omitempty"` // launch-stream position (0 for fused carriers)
	Members     []string `json:"members,omitempty"`
	TraceID     int64    `json:"trace_id,omitempty"`
	TraceEpoch  int64    `json:"trace_epoch,omitempty"`
	TraceReplay bool     `json:"trace_replay,omitempty"`
	CkptEpoch   int64    `json:"ckpt_epoch,omitempty"`
}

// ring is a bounded drop-oldest buffer. Not goroutine-safe; the Sink's
// mutex guards it.
type ring[T any] struct {
	cap     int
	buf     []T
	next    int // overwrite position once full
	dropped int64
}

func newRing[T any](capacity int) ring[T] { return ring[T]{cap: capacity} }

func (r *ring[T]) add(v T) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.cap
	r.dropped++
}

// snapshot returns the retained events in insertion order.
func (r *ring[T]) snapshot() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Sink collects events from one or more runtimes. All Record methods
// are safe for concurrent use (worker goroutines publish spans and
// copies in parallel); each is a mutex acquire plus a ring store, cheap
// enough to leave on for whole benchmark runs. Launches and spans also
// fold into the per-task-name Summary under the same lock.
type Sink struct {
	mu       sync.Mutex
	spans    ring[Span]
	deps     ring[Dep]
	copies   ring[Copy]
	mem      ring[MemEvent]
	marks    ring[Mark]
	launches map[launchKey]LaunchInfo
	order    []launchKey // insertion order of launches
	dropL    int64
	runs     int

	tasks        map[string]*TaskStat // the Summary's running totals
	fusedGroups  int64
	fusedMembers int64
}

type launchKey struct {
	run int
	seq int64
}

// NewSink creates a sink whose per-stream rings hold capacity events
// (0 means DefaultCapacity).
func NewSink(capacity int) *Sink {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Sink{
		spans:    newRing[Span](capacity),
		deps:     newRing[Dep](capacity),
		copies:   newRing[Copy](capacity),
		mem:      newRing[MemEvent](capacity),
		marks:    newRing[Mark](capacity),
		launches: map[launchKey]LaunchInfo{},
		tasks:    map[string]*TaskStat{},
	}
}

// AttachRun registers one runtime with the sink and returns its run
// index, which the runtime tags every event with. Run indices start
// at 1.
func (s *Sink) AttachRun() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs++
	return s.runs
}

// RecordLaunch registers a launch and its dependence edges (the seq
// numbers of the launches it waits on). WAR edges to readers that had
// already completed and been compacted out of the runtime's region
// state (legion.regionState.addReader) are not recorded: the writer
// still waits for their finish time, but no longer knows their seqs.
func (s *Sink) RecordLaunch(li LaunchInfo, deps []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := launchKey{li.Run, li.Seq}
	if len(s.launches) < s.spans.cap {
		if _, ok := s.launches[k]; !ok {
			s.order = append(s.order, k)
		}
		s.launches[k] = li
	} else {
		s.dropL++
	}
	for _, from := range deps {
		s.deps.add(Dep{Run: li.Run, From: from, To: li.Seq})
	}
	st := s.task(li.Name)
	st.Launches++
	st.Points += int64(li.Points)
	if len(li.Members) > 0 {
		s.fusedGroups++
		s.fusedMembers += int64(len(li.Members))
	}
}

// RecordSpan records one point task span.
func (s *Sink) RecordSpan(sp Span) {
	s.mu.Lock()
	s.spans.add(sp)
	if !sp.Replay {
		s.task(sp.Task).SimTime += sp.Dur
	}
	s.mu.Unlock()
}

// RecordCopy records one modeled coherence copy.
func (s *Sink) RecordCopy(c Copy) {
	s.mu.Lock()
	s.copies.add(c)
	s.mu.Unlock()
}

// RecordMem records one mapper memory event.
func (s *Sink) RecordMem(e MemEvent) {
	s.mu.Lock()
	s.mem.add(e)
	s.mu.Unlock()
}

// RecordMark records one instantaneous event.
func (s *Sink) RecordMark(m Mark) {
	s.mu.Lock()
	s.marks.add(m)
	s.mu.Unlock()
}

// Trace is an immutable snapshot of a Sink, the input to every
// exporter. Launches are in issue order.
type Trace struct {
	Spans    []Span       `json:"spans"`
	Deps     []Dep        `json:"deps"`
	Copies   []Copy       `json:"copies"`
	Mem      []MemEvent   `json:"mem"`
	Marks    []Mark       `json:"marks"`
	Launches []LaunchInfo `json:"launches"`

	DroppedSpans    int64 `json:"dropped_spans,omitempty"`
	DroppedDeps     int64 `json:"dropped_deps,omitempty"`
	DroppedCopies   int64 `json:"dropped_copies,omitempty"`
	DroppedLaunches int64 `json:"dropped_launches,omitempty"`
}

// Snapshot copies the sink's current contents. The sink remains live;
// recording may continue concurrently.
//
// Streams that worker goroutines publish concurrently (spans, copies,
// memory events, marks) arrive in scheduler-dependent order, so the
// snapshot sorts them into a canonical simulated-time order — the
// simulation is deterministic, and this keeps the exported artifacts
// bit-identical across runs with identical flags.
func (s *Sink) Snapshot() *Trace {
	s.mu.Lock()
	t := &Trace{
		Spans:           s.spans.snapshot(),
		Deps:            s.deps.snapshot(),
		Copies:          s.copies.snapshot(),
		Mem:             s.mem.snapshot(),
		Marks:           s.marks.snapshot(),
		DroppedSpans:    s.spans.dropped,
		DroppedDeps:     s.deps.dropped,
		DroppedCopies:   s.copies.dropped,
		DroppedLaunches: s.dropL,
	}
	t.Launches = make([]LaunchInfo, 0, len(s.order))
	for _, k := range s.order {
		t.Launches = append(t.Launches, s.launches[k])
	}
	s.mu.Unlock()

	sort.SliceStable(t.Spans, func(a, b int) bool {
		x, y := t.Spans[a], t.Spans[b]
		if x.Run != y.Run {
			return x.Run < y.Run
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		if x.Proc != y.Proc {
			return x.Proc < y.Proc
		}
		if x.Launch != y.Launch {
			return x.Launch < y.Launch
		}
		return x.Point < y.Point
	})
	sort.SliceStable(t.Deps, func(a, b int) bool {
		x, y := t.Deps[a], t.Deps[b]
		if x.Run != y.Run {
			return x.Run < y.Run
		}
		if x.To != y.To {
			return x.To < y.To
		}
		return x.From < y.From
	})
	sort.SliceStable(t.Copies, func(a, b int) bool {
		x, y := t.Copies[a], t.Copies[b]
		if x.Run != y.Run {
			return x.Run < y.Run
		}
		if x.Src != y.Src {
			return x.Src < y.Src
		}
		if x.Dst != y.Dst {
			return x.Dst < y.Dst
		}
		if x.Link != y.Link {
			return x.Link < y.Link
		}
		return x.Bytes < y.Bytes
	})
	sort.SliceStable(t.Mem, func(a, b int) bool {
		x, y := t.Mem[a], t.Mem[b]
		if x.Run != y.Run {
			return x.Run < y.Run
		}
		if x.Proc != y.Proc {
			return x.Proc < y.Proc
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		if x.Region != y.Region {
			return x.Region < y.Region
		}
		return x.Bytes < y.Bytes
	})
	sort.SliceStable(t.Marks, func(a, b int) bool {
		x, y := t.Marks[a], t.Marks[b]
		if x.Run != y.Run {
			return x.Run < y.Run
		}
		if x.At != y.At {
			return x.At < y.At
		}
		if x.Kind != y.Kind {
			return x.Kind < y.Kind
		}
		if x.Proc != y.Proc {
			return x.Proc < y.Proc
		}
		return x.Point < y.Point
	})
	return t
}

// launchIndex maps (run, seq) to the trace's LaunchInfo.
func (t *Trace) launchIndex() map[launchKey]LaunchInfo {
	idx := make(map[launchKey]LaunchInfo, len(t.Launches))
	for _, li := range t.Launches {
		idx[launchKey{li.Run, li.Seq}] = li
	}
	return idx
}
