// Package fault provides a deterministic, seeded fault injector for the
// Legion runtime simulation. An Injector carries two kinds of schedule:
//
//   - point faults: a specific point task of a specific launch-stream
//     position panics (or, with SetRate, a seeded pseudo-random fraction
//     of all point tasks does), modeling transient kernel failures;
//   - processor kills: processor N is declared dead once the simulated
//     clock reaches time T, modeling permanent hardware loss;
//   - latency: a specific point (SlowPoint), every point of a specific
//     launch (StallLaunch), or a seeded pseudo-random fraction of all
//     points (SetLag) sleeps for a scheduled wall-clock duration before
//     its kernel runs, modeling slow kernels, GC pauses, and overload
//     (SetLag with rate 1 stalls everything — the overload schedule the
//     serve chaos suite drives deadlines and load shedding with).
//     Delays never touch the simulated clock or any computed value, so a
//     lagged run stays bit-identical to an unlagged one.
//
// Every decision is a pure function of the injector's seed and the
// (stream, point) coordinates the runtime hands it, so a given schedule
// reproduces exactly across runs — the property the chaos tests rely on
// to compare a faulty run bit-for-bit against a fault-free one. Fired
// faults are one-shot: a replayed point task does not fail again, which
// is what lets checkpoint/replay recovery make forward progress.
//
// The package deliberately depends only on internal/machine; the legion
// package consumes it through the small legion.FaultInjector interface,
// so tests and benches can also plug in hand-rolled injectors.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/machine"
)

// PointKey identifies one point task of one launch by its position in
// the runtime's launch stream (1-based; assigned by the runtime when
// checkpointing or fault injection is enabled) and its point index.
type PointKey struct {
	Stream int64
	Point  int
}

type procKill struct {
	proc  machine.ProcID
	at    time.Duration
	fired bool
}

// Injector is a deterministic fault schedule. The zero value is not
// usable; construct with New. All methods are safe for concurrent use —
// the runtime consults ShouldFail from worker goroutines.
type Injector struct {
	mu   sync.Mutex
	seed uint64

	scheduled map[PointKey]struct{} // explicit point-fault schedule
	fired     map[PointKey]struct{} // one-shot memory: never refire
	rate      float64               // pseudo-random per-point failure probability
	rateMax   int                   // cap on random fires (0 = unlimited)
	rateFired int

	procs []procKill

	pointFired int // total point faults delivered

	// Latency schedules. slowPts holds explicit per-point delays; stalls
	// holds per-launch delays applied to every point of the launch. Both
	// are one-shot per (stream, point), like point faults, so recovery
	// replay is not re-stalled by the delay it already paid.
	slowPts    map[PointKey]time.Duration
	stalls     map[int64]time.Duration
	lagRate    float64 // pseudo-random per-point delay probability
	lagDur     time.Duration
	lagMax     int // cap on random delays (0 = unlimited)
	lagFired   int
	delayDone  map[PointKey]struct{}
	delayFired int // total delays delivered
}

// New returns an empty injector with the given seed. The seed only
// matters for SetRate-style random faults; explicit schedules fire
// regardless of it.
func New(seed uint64) *Injector {
	return &Injector{
		seed:      seed,
		scheduled: make(map[PointKey]struct{}),
		fired:     make(map[PointKey]struct{}),
		slowPts:   make(map[PointKey]time.Duration),
		stalls:    make(map[int64]time.Duration),
		delayDone: make(map[PointKey]struct{}),
	}
}

// KillPoint schedules the point task at (stream, point) to panic the
// first time it runs. Stream positions are 1-based and count every
// launch issued after the injector (and checkpointing) was attached.
func (in *Injector) KillPoint(stream int64, point int) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.scheduled[PointKey{stream, point}] = struct{}{}
	return in
}

// KillProc schedules processor p to die once the simulated clock
// reaches at. The runtime observes the death at its next launch or
// fence boundary, after quiescing in-flight work.
func (in *Injector) KillProc(p machine.ProcID, at time.Duration) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.procs = append(in.procs, procKill{proc: p, at: at})
	return in
}

// SetRate makes every point task fail independently with probability
// rate, derived from the injector seed — the schedule is fixed at
// construction time even though it looks random. max bounds the total
// number of random faults (0 = unbounded). Explicit KillPoint faults
// are unaffected.
func (in *Injector) SetRate(rate float64, max int) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rate = rate
	in.rateMax = max
	return in
}

// ShouldFail reports whether the point task at (stream, point) must
// fail now. A true result is consumed: the same coordinates never fire
// twice, so recovery replay is not re-killed by the same fault.
func (in *Injector) ShouldFail(stream int64, point int) bool {
	if stream <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	k := PointKey{stream, point}
	if _, done := in.fired[k]; done {
		return false
	}
	if _, ok := in.scheduled[k]; ok {
		in.fired[k] = struct{}{}
		in.pointFired++
		return true
	}
	if in.rate > 0 && (in.rateMax <= 0 || in.rateFired < in.rateMax) &&
		hash01(in.seed, uint64(stream), uint64(point)) < in.rate {
		in.fired[k] = struct{}{}
		in.rateFired++
		in.pointFired++
		return true
	}
	return false
}

// SlowPoint schedules the point task at (stream, point) to sleep d
// before its kernel runs, the first time it runs.
func (in *Injector) SlowPoint(stream int64, point int, d time.Duration) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.slowPts[PointKey{stream, point}] = d
	return in
}

// StallLaunch schedules every point task of the stream-th launch to
// sleep d before its kernel runs (once per point). Points of one launch
// run concurrently, so the launch as a whole stalls for roughly d of
// wall-clock time — the shape of a head-of-line stall.
func (in *Injector) StallLaunch(stream int64, d time.Duration) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stalls[stream] = d
	return in
}

// SetLag makes every point task sleep d independently with probability
// rate, derived from the injector seed (decorrelated from SetRate's
// fault schedule by a distinct salt). max bounds the total number of
// random delays (0 = unbounded). rate 1 is the overload schedule: every
// point drags, saturating the service end to end.
func (in *Injector) SetLag(rate float64, d time.Duration, max int) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.lagRate = rate
	in.lagDur = d
	in.lagMax = max
	return in
}

// Delay returns how long the point task at (stream, point) must sleep
// before running its kernel now, or 0. Like ShouldFail, a non-zero
// result is consumed: the same coordinates never delay twice, so
// recovery replay does not pay a stall a second time.
func (in *Injector) Delay(stream int64, point int) time.Duration {
	if stream <= 0 {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	k := PointKey{stream, point}
	if _, done := in.delayDone[k]; done {
		return 0
	}
	if d, ok := in.slowPts[k]; ok {
		in.delayDone[k] = struct{}{}
		in.delayFired++
		return d
	}
	if d, ok := in.stalls[stream]; ok {
		in.delayDone[k] = struct{}{}
		in.delayFired++
		return d
	}
	if in.lagRate > 0 && (in.lagMax <= 0 || in.lagFired < in.lagMax) &&
		hash01(in.seed^lagSalt, uint64(stream), uint64(point)) < in.lagRate {
		in.delayDone[k] = struct{}{}
		in.lagFired++
		in.delayFired++
		return in.lagDur
	}
	return 0
}

// lagSalt decorrelates the lag schedule from the SetRate fault schedule
// sharing the same seed.
const lagSalt = 0xd1b54a32d192ed03

// Delays returns how many scheduled delays have fired so far.
func (in *Injector) Delays() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.delayFired
}

// DeadProcs returns the processors whose scheduled kill time has been
// reached at simulated time now. Each kill is reported exactly once;
// the runtime is expected to retire the processor on receipt.
func (in *Injector) DeadProcs(now time.Duration) []machine.ProcID {
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []machine.ProcID
	for i := range in.procs {
		pk := &in.procs[i]
		if !pk.fired && now >= pk.at {
			pk.fired = true
			out = append(out, pk.proc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PointFaults returns how many point faults have fired so far.
func (in *Injector) PointFaults() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.pointFired
}

// ProcKills returns how many scheduled processor kills have fired.
func (in *Injector) ProcKills() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for i := range in.procs {
		if in.procs[i].fired {
			n++
		}
	}
	return n
}

// Parse builds an injector from a comma-separated schedule spec, the
// format accepted by legate-bench's -faults flag:
//
//	point@S:P      kill point P of the S-th launch (1-based stream position)
//	proc@N:DUR     kill processor N at simulated time DUR (Go duration, e.g. 200us)
//	rate:R[:MAX]   every point fails with probability R, at most MAX times
//	slow@S:P:DUR   point P of the S-th launch sleeps DUR before running
//	stall@S:DUR    every point of the S-th launch sleeps DUR (head-of-line stall)
//	lag:R:DUR[:MAX] every point sleeps DUR with probability R, at most MAX times
//	               (lag:1:DUR is the overload schedule: everything drags)
//
// Example: "point@40:2,proc@1:500us,rate:0.001:3,stall@12:50ms,lag:0.05:5ms:20".
func Parse(spec string, seed uint64) (*Injector, error) {
	in := New(seed)
	if strings.TrimSpace(spec) == "" {
		return in, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		switch {
		case strings.HasPrefix(tok, "point@"):
			parts := strings.SplitN(tok[len("point@"):], ":", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("fault: bad point spec %q (want point@STREAM:POINT)", tok)
			}
			s, err1 := strconv.ParseInt(parts[0], 10, 64)
			p, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil || s <= 0 || p < 0 {
				return nil, fmt.Errorf("fault: bad point spec %q", tok)
			}
			in.KillPoint(s, p)
		case strings.HasPrefix(tok, "proc@"):
			parts := strings.SplitN(tok[len("proc@"):], ":", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("fault: bad proc spec %q (want proc@ID:DURATION)", tok)
			}
			id, err1 := strconv.Atoi(parts[0])
			at, err2 := time.ParseDuration(parts[1])
			if err1 != nil || err2 != nil || id < 0 || at < 0 {
				return nil, fmt.Errorf("fault: bad proc spec %q", tok)
			}
			in.KillProc(machine.ProcID(id), at)
		case strings.HasPrefix(tok, "slow@"):
			parts := strings.SplitN(tok[len("slow@"):], ":", 3)
			if len(parts) != 3 {
				return nil, fmt.Errorf("fault: bad slow spec %q (want slow@STREAM:POINT:DURATION)", tok)
			}
			s, err1 := strconv.ParseInt(parts[0], 10, 64)
			p, err2 := strconv.Atoi(parts[1])
			d, err3 := time.ParseDuration(parts[2])
			if err1 != nil || err2 != nil || err3 != nil || s <= 0 || p < 0 || d < 0 {
				return nil, fmt.Errorf("fault: bad slow spec %q", tok)
			}
			in.SlowPoint(s, p, d)
		case strings.HasPrefix(tok, "stall@"):
			parts := strings.SplitN(tok[len("stall@"):], ":", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("fault: bad stall spec %q (want stall@STREAM:DURATION)", tok)
			}
			s, err1 := strconv.ParseInt(parts[0], 10, 64)
			d, err2 := time.ParseDuration(parts[1])
			if err1 != nil || err2 != nil || s <= 0 || d < 0 {
				return nil, fmt.Errorf("fault: bad stall spec %q", tok)
			}
			in.StallLaunch(s, d)
		case strings.HasPrefix(tok, "lag:"):
			parts := strings.Split(tok[len("lag:"):], ":")
			if len(parts) < 2 || len(parts) > 3 {
				return nil, fmt.Errorf("fault: bad lag spec %q (want lag:R:DURATION[:MAX])", tok)
			}
			r, err1 := strconv.ParseFloat(parts[0], 64)
			d, err2 := time.ParseDuration(parts[1])
			if err1 != nil || err2 != nil || !(r >= 0 && r <= 1) || d < 0 { // !(…) also rejects NaN
				return nil, fmt.Errorf("fault: bad lag spec %q", tok)
			}
			max := 0
			if len(parts) == 3 {
				var err error
				if max, err = strconv.Atoi(parts[2]); err != nil || max < 0 {
					return nil, fmt.Errorf("fault: bad lag spec %q", tok)
				}
			}
			in.SetLag(r, d, max)
		case strings.HasPrefix(tok, "rate:"):
			parts := strings.Split(tok[len("rate:"):], ":")
			if len(parts) < 1 || len(parts) > 2 {
				return nil, fmt.Errorf("fault: bad rate spec %q (want rate:R[:MAX])", tok)
			}
			r, err := strconv.ParseFloat(parts[0], 64)
			if err != nil || !(r >= 0 && r <= 1) { // !(…) also rejects NaN
				return nil, fmt.Errorf("fault: bad rate spec %q", tok)
			}
			max := 0
			if len(parts) == 2 {
				if max, err = strconv.Atoi(parts[1]); err != nil || max < 0 {
					return nil, fmt.Errorf("fault: bad rate spec %q", tok)
				}
			}
			in.SetRate(r, max)
		default:
			return nil, fmt.Errorf("fault: unknown schedule token %q", tok)
		}
	}
	return in, nil
}

// RateForMTBF converts a mean-time-between-failures expressed in
// launches into a per-point failure probability, given the typical
// number of points per launch.
func RateForMTBF(mtbfLaunches float64, pointsPerLaunch int) float64 {
	if mtbfLaunches <= 0 || pointsPerLaunch <= 0 {
		return 0
	}
	return 1 / (mtbfLaunches * float64(pointsPerLaunch))
}

// hash01 maps (seed, stream, point) to [0, 1) with a splitmix64-style
// finalizer, the same construction internal/cunumeric uses for its
// partition-independent random arrays.
func hash01(seed, stream, point uint64) float64 {
	x := seed ^ stream*0x9e3779b97f4a7c15 ^ point*0xbf58476d1ce4e5b9
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
