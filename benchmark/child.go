package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/distal"
	"repro/internal/serve/engine"
)

// An epoch is one run of this file in a fresh child process: build the
// system under test, prime it, have every client execute its fixed list
// of ops, verify each answer, and report. The child talks to its parent
// over stdout, one line per message:
//
//	hb <phase> <progress> <done> <failed> <median op ns>   liveness, every 50 ms while progress moves
//	win <json>     the measured window (windowResult)
//	layer <json>   per-layer values of one traced section (layerValues)
//	err <text>     a traced section failed
//
// The parent's watchdog kills a child whose progress stalls; everything
// the child sent before that still counts.

// childOpts are the flags of a child process.
type childOpts struct {
	Workload   string
	Seed       int64
	Trace      bool
	OutDir     string
	CorruptRef bool // perturb the seq references, to show verification bites
	HangAfter  int  // block forever after this many ops, to show the watchdog bites (0 = never)
}

// windowResult is what an epoch measured.
type windowResult struct {
	SetupS     float64     `json:"setup_s"`
	WallS      float64     `json:"wall_s"`
	Ops        int         `json:"ops"`
	Failed     int         `json:"failed"`
	LatMS      [][]float64 `json:"lat_ms"`     // [client][op]
	ComputeMS  float64     `json:"compute_ms"` // summed latency of the compute ops (no uploads)
	FloorMS    float64     `json:"floor_ms"`   // summed seq floor of the same ops
	PeakRSSMB  float64     `json:"peak_rss_mb"`
	Layer      layerValues `json:"layer"`
	Errors     []string    `json:"errors,omitempty"`
	GoMaxProcs int         `json:"gomaxprocs"`
}

// pulse is the child's liveness state, read by the heartbeat goroutine.
type pulse struct {
	phase    atomic.Value // string
	progress atomic.Int64 // bumped by every completed step of any phase
	done     atomic.Int64 // window ops completed
	failed   atomic.Int64 // of those, how many failed
	medianNS atomic.Int64 // running median op latency

	out sync.Mutex // serialises lines on stdout
}

func (p *pulse) tick() { p.progress.Add(1) }

func (p *pulse) enter(phase string) {
	p.phase.Store(phase)
	p.tick()
}

func (p *pulse) send(kind string, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		buf = []byte(fmt.Sprintf("%q", err.Error()))
		kind = "err"
	}
	p.out.Lock()
	fmt.Printf("%s %s\n", kind, buf)
	p.out.Unlock()
}

// beat prints a heartbeat whenever progress has moved, until stop closes.
func (p *pulse) beat(stop <-chan struct{}) {
	last := int64(-1)
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if now := p.progress.Load(); now != last {
			last = now
			p.out.Lock()
			fmt.Printf("hb %s %d %d %d %d\n", p.phase.Load(), now, p.done.Load(), p.failed.Load(), p.medianNS.Load())
			p.out.Unlock()
		}
	}
}

var computeClasses = []string{"solve", "spmv", "eigen"}

// floors times the seq floor of every (matrix, class) the plan's
// compute ops use: the single-thread seq.CG / SpMVInto / power loop on
// the same matrix, in milliseconds. A floor is the best the machine
// does, so it is the fastest of a few repetitions; that also keeps a
// burst of interference out of the denominator of overhead_x.
func floors(pl *plan, cur []*hostMatrix, tick func()) map[refKey]float64 {
	out := map[refKey]float64{}
	for _, reqs := range pl.Requests {
		for _, r := range reqs {
			k := refKey{r.Matrix, r.Class}
			if _, seen := out[k]; seen || r.Class == "upload" {
				continue
			}
			m := cur[r.Matrix]
			best := math.Inf(1)
			for i := int64(0); i < min(20, max(5, 4_000_000/int64(len(m.Data)))); i++ {
				t0 := time.Now()
				reference(r.Class, r.Matrix, m, false)
				best = min(best, ms(time.Since(t0)))
				tick()
			}
			out[k] = best
		}
	}
	return out
}

// procCounters is the process's own accounting at one moment.
type procCounters struct {
	cpu               time.Duration
	mallocs, bytes    uint64
	pauseNS           uint64
	planHits, planMis int64
	compiles          int64
}

func readProc(backend engine.Backend) procCounters {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	plan := distal.Standard.Stats()
	c := procCounters{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, pauseNS: ms.PauseTotalNs,
		planHits: plan.Hits, planMis: plan.Misses, compiles: plan.Compiles,
	}
	if backend != nil { // engine workers count plan lookups on scoped views
		pc := backend.Metrics().PlanCache
		c.planHits, c.planMis = pc.Hits, pc.Misses
	}
	return c
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// childMain runs one epoch and returns the process exit code.
func childMain(o childOpts) int {
	w := findWorkload(o.Workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "child: unknown workload %q\n", o.Workload)
		return 2
	}
	p := &pulse{}
	p.enter("setup")
	stop := make(chan struct{})
	defer close(stop)
	go p.beat(stop)

	// Benchmark-side preparation: inputs and reference answers. None of
	// it is the program's set-up, so it stays out of setup_s.
	pl := buildPlan(w, o.Seed)
	cur := append([]*hostMatrix(nil), pl.Matrices...)
	v := newVerifier(w.Kind == "lib")
	for i, m := range cur {
		v.expect(i, m, computeClasses, o.CorruptRef)
		p.tick()
	}
	res := windowResult{GoMaxProcs: runtime.GOMAXPROCS(0), Layer: layerValues{}}
	fail := func(format string, args ...any) {
		res.Failed++
		if len(res.Errors) < 5 {
			res.Errors = append(res.Errors, fmt.Sprintf(format, args...))
		}
	}
	var errMu sync.Mutex

	if w.Kind == "shard" {
		// A plain engine's x is checked against seq like any first answer;
		// from here on every sharded x must equal it byte for byte.
		plain, err := plainEngineAnswer(cur[0].Name)
		if err == nil {
			err = v.check(refKey{0, "solve"}, plain)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "child: plain engine reference:", err)
			return 1
		}
		p.tick()
	}

	// The program's set-up: build, upload, bind, prime.
	setupStart := time.Now()
	var s sut
	var backend engine.Backend
	var lib *libSUT
	if w.Kind == "lib" {
		lib = newLibSUT(w)
		s = lib
	} else {
		h, err := newHTTPSUT(w, pl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "child: set-up:", err)
			return 1
		}
		s, backend = h, h.backend
	}
	p.enter("prime")
	var primeLat []float64
	for i, r := range pl.Prime {
		t0 := time.Now()
		ans, err := s.do(i%w.Clients, r, cur[r.Matrix], nil, -1, -1)
		if err == nil {
			err = v.check(refKey{r.Matrix, r.Class}, ans)
		}
		if err != nil {
			// Nothing measured after a wrong answer could be trusted.
			fmt.Fprintln(os.Stderr, "child: prime:", err)
			s.close()
			return 1
		}
		primeLat = append(primeLat, ms(time.Since(t0)))
		p.medianNS.Store(int64(median(primeLat) * 1e6))
		p.tick()
	}
	res.SetupS = time.Since(setupStart).Seconds()

	p.enter("floor")
	floorBefore := floors(pl, cur, p.tick)

	// The measured window.
	var recs []*recorder
	res.LatMS = make([][]float64, w.Clients)
	for c := range res.LatMS {
		res.LatMS[c] = make([]float64, len(pl.Requests[c]))
		if o.Trace {
			recs = append(recs, newRecorder())
		} else {
			recs = append(recs, nil)
		}
	}
	var rtBefore rtSnapshot
	var engBefore engine.MetricsSnapshot
	if lib != nil {
		rtBefore = snapshotRuntime(lib.rt)
	} else {
		engBefore = backend.Metrics()
	}
	missed := make([][]bool, w.Clients) // which answers said "cache":"miss"
	for c := range missed {
		missed[c] = make([]bool, len(pl.Requests[c]))
	}
	procBefore := readProc(backend)
	p.enter("run")
	var wg sync.WaitGroup
	windowStart := time.Now()
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec, lat := recs[c], res.LatMS[c]
			for i, r := range pl.Requests[c] {
				if o.HangAfter > 0 && int(p.done.Load()) >= o.HangAfter {
					select {} // a stand-in for the runtime's lost-wakeup deadlock
				}
				m := cur[r.Matrix]
				if r.Class == "upload" {
					m = m.withShift(r.Shift)
					cur[r.Matrix] = m
					v.expect(r.Matrix, m, computeClasses, o.CorruptRef)
				}
				op := c*len(lat) + i
				root := rec.begin("op", -1, op)
				t0 := time.Now()
				ans, err := s.do(c, r, m, rec, root, op)
				lat[i] = ms(time.Since(t0))
				rec.end(root)
				if err == nil && r.Class != "upload" {
					err = v.check(refKey{r.Matrix, r.Class}, ans)
				}
				missed[c][i] = err == nil && ans.miss()
				if err != nil {
					errMu.Lock()
					fail("client %d op %d (%s matrix %d): %v", c, i, r.Class, r.Matrix, err)
					errMu.Unlock()
					p.failed.Add(1)
				}
				p.done.Add(1)
				p.tick()
				if c == 0 && (i < 32 || i%32 == 31) {
					p.medianNS.Store(int64(median(lat[:i+1]) * 1e6))
				}
			}
		}(c)
	}
	wg.Wait()
	res.WallS = time.Since(windowStart).Seconds()
	p.enter("report")
	procAfter := readProc(backend)
	res.PeakRSSMB = peakRSSMB()

	floorAfter := floors(pl, cur, p.tick)
	var floorB, floorA float64
	var uploads, hit, miss []float64 // latencies of the uploads and of the solves by cache outcome
	for c, reqs := range pl.Requests {
		for i, r := range reqs {
			res.Ops++
			lat := res.LatMS[c][i]
			switch {
			case r.Class == "upload":
				uploads = append(uploads, lat)
				continue
			case r.Class == "solve" && missed[c][i]:
				miss = append(miss, lat)
			case r.Class == "solve":
				hit = append(hit, lat)
			}
			k := refKey{r.Matrix, r.Class}
			res.ComputeMS += lat
			floorB += floorBefore[k]
			floorA += floorAfter[k]
		}
	}
	res.FloorMS = (floorB + floorA) / 2

	// Counters diffed across the window, and the run's own accounting.
	out := res.Layer
	ops := float64(res.Ops)
	out["run.floor_drift_x"] = floorA / floorB
	out["run.cpu_ms_per_op"] = ms(procAfter.cpu-procBefore.cpu) / ops
	out["run.alloc_kb_per_op"] = float64(procAfter.bytes-procBefore.bytes) / 1e3 / ops
	out["run.allocs_per_op"] = float64(procAfter.mallocs-procBefore.mallocs) / ops
	out["run.gc_pause_ms_per_s"] = float64(procAfter.pauseNS-procBefore.pauseNS) / 1e6 / res.WallS
	var aging []float64
	for _, lat := range res.LatMS {
		aging = append(aging, agingX(lat))
	}
	out["run.aging_x"] = median(aging)
	out["distal.plan_hit_share"] = share(procAfter.planHits-procBefore.planHits, procAfter.planMis-procBefore.planMis)
	out["distal.compiles"] = float64(procAfter.compiles - procBefore.compiles)
	if lib != nil {
		runtimeCounts(rtBefore, snapshotRuntime(lib.rt), res.Ops, out)
		if o.Trace {
			mirrorMetrics(recs[0].spans, out)
			out["solvers.mirror_match"] = 0
			if res.Failed == 0 { // every mirrored answer repeated solvers.CG's prime answer bit for bit
				out["solvers.mirror_match"] = 1
			}
		}
	} else {
		h := s.(*httpSUT)
		engAfter := backend.Metrics()
		engineCounts(engBefore, engAfter, out)
		cacheCounts(engBefore.PartitionCache, engAfter.PartitionCache, res.Ops, out)
		out["httpapi.req_kb"] = float64(h.reqBytes.Load()) / 1e3 / ops
		out["httpapi.resp_kb"] = float64(h.respBytes.Load()) / 1e3 / ops
		if w.Kind == "shard" {
			shardCounts(engBefore, engAfter, res.Ops, out)
		}
		if len(uploads) > 0 {
			out["engine.upload_ms"] = median(uploads)
		}
		if len(miss) >= 3 {
			out["engine.bind_miss_ms"] = median(miss) - median(hit)
		}
	}
	p.send("win", &res)
	s.close()
	if !o.Trace {
		return 0
	}
	tf := &traceFile{Workload: w.Name, Seed: o.Seed}
	for _, rec := range recs {
		tf.Clients = append(tf.Clients, rec.spans)
	}
	if err := writeTrace(o.OutDir, tf); err != nil {
		p.send("err", "write trace: "+err.Error())
	}
	// The window's heap (hundreds of MB on the large matrices) would tax
	// every collection during the ladder; let go of it first.
	tf, recs, res, v = nil, nil, windowResult{}, nil
	debug.FreeOSMemory()

	// Below the workload: the depth ladder and the isolated probes, on
	// the workload's main matrix. Values the window already measured on
	// the workload's own stack win over the ladder's.
	p.enter("layers")
	primary := cur[pl.Primary]
	below := layerValues{}
	if err := ladder(w, primary, p.tick, below); err != nil {
		p.send("err", "ladder: "+err.Error())
	}
	for k := range out {
		delete(below, k)
	}
	p.send("layer", below)
	below = layerValues{}
	if err := probes(w, primary, p.tick, below); err != nil {
		p.send("err", "probes: "+err.Error())
	}
	p.send("layer", below)
	return 0
}
