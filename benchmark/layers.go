package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/cunumeric"
	"repro/internal/distal"
	"repro/internal/geometry"
	"repro/internal/legion"
	"repro/internal/machine"
	"repro/internal/serve/engine"
	"repro/internal/serve/loopback"
	"repro/internal/shard"
	"repro/internal/solvers"
)

// This file is the traced pass's view below the workload: the mirrored
// CG loop, the depth ladder and the isolated probes. All of it times
// calls into public functions from outside; nothing here reaches into a
// module.

// layerValues collects per-layer metric values by name.
type layerValues map[string]float64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// p50 times f n times and returns the median duration. tick is the
// child's heartbeat, so a probe that deadlocks is noticed.
func p50(n int, tick func(), f func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
		tick()
	}
	return time.Duration(median(ds))
}

// mirrorCG is solvers.CG statement for statement, with a span around
// every call into cunumeric, core and legion. solvers.mirror_match
// checks that it reproduces solvers.CG's residuals bit for bit, which
// is what lets its spans stand for the real loop's.
func mirrorCG(rec *recorder, root, op int, a core.SparseMatrix, b *cunumeric.Array, maxIter int, tol float64) *solvers.Result {
	rt := a.Runtime()
	n := b.Len()
	in := func(name string) func() {
		id := rec.begin(name, root, op)
		return func() { rec.end(id) }
	}
	zeros := func() *cunumeric.Array {
		defer in("cunumeric.Zeros")()
		return cunumeric.Zeros(rt, n)
	}
	copyTo := func(dst, src *cunumeric.Array) {
		defer in("cunumeric.Copy")()
		cunumeric.Copy(dst, src)
	}
	dotGet := func(x, y *cunumeric.Array) float64 {
		done := in("cunumeric.Dot")
		f := cunumeric.Dot(x, y)
		done()
		defer in("legion.Future.Get")()
		return f.Get()
	}
	axpy := func(alpha float64, x, y *cunumeric.Array) {
		defer in("cunumeric.AXPY")()
		cunumeric.AXPY(alpha, x, y)
	}
	destroy := func(x *cunumeric.Array) {
		defer in("cunumeric.Destroy")()
		x.Destroy()
	}

	x := zeros()
	r := zeros()
	copyTo(r, b)
	p := zeros()
	copyTo(p, r)
	ap := zeros()

	res := &solvers.Result{X: x}
	rs := dotGet(r, r)
	for it := 0; it < maxIter && rt.Cancelled() == nil; it++ {
		done := in("core.SpMVInto")
		a.SpMVInto(ap, p)
		done()
		pap := dotGet(p, ap)
		if pap == 0 {
			break
		}
		alpha := rs / pap
		axpy(alpha, p, x)
		axpy(-alpha, ap, r)
		rsNew := dotGet(r, r)
		nrm := math.Sqrt(rsNew)
		res.Iterations = it + 1
		res.Residuals = append(res.Residuals, nrm)
		if math.IsNaN(nrm) || math.IsInf(nrm, 0) {
			break
		}
		if nrm < tol {
			res.Converged = true
			break
		}
		done = in("cunumeric.AXPBY")
		cunumeric.AXPBY(1, r, rsNew/rs, p)
		done()
		rs = rsNew
	}
	destroy(r)
	destroy(p)
	destroy(ap)
	res.Err = rt.Err()
	return res
}

// waitNames are the spans in which the application goroutine is blocked
// on the runtime, not issuing work.
var waitNames = map[string]bool{"legion.Future.Get": true, "cunumeric.Destroy": true, "legion.Fence": true}

// mirrorMetrics derives the span-based metrics from the spans of
// mirrored ops. Self times partition each op's wall, so their sum is
// the ops' total and the waiting spans' part of it is the wait share.
func mirrorMetrics(spans []span, out layerValues) {
	var wait, total int64
	for name, self := range selfTimes(spans) {
		total += self
		if waitNames[name] {
			wait += self
		}
	}
	var issue []float64
	for _, s := range spans {
		if s.Name == "core.SpMVInto" {
			issue = append(issue, float64(s.End-s.Start))
		}
	}
	if total > 0 {
		out["legion.wait_share"] = float64(wait) / float64(total)
	}
	if len(issue) > 0 {
		out["core.spmv_issue_us"] = median(issue) / 1e3
	}
}

// engineShapedRuntime builds a runtime the way an engine with the zero
// Config builds its pool runtimes (4 CPU processors over 2 nodes,
// checkpoint every 64 launches) but without a tuner, so the depth below
// the engine runs the static mapper on the same machine shape.
func engineShapedRuntime() *legion.Runtime {
	m := machine.New(machine.Config{Nodes: 2})
	rt := legion.NewRuntime(m, m.Select(machine.CPU, 4))
	rt.EnableCheckpointing(64)
	return rt
}

// rtSnapshot is the public counters of one runtime at one moment.
type rtSnapshot struct {
	tasks, points, copies, bytes int64
	sim                          time.Duration
	cache                        legion.CacheStats
}

func snapshotRuntime(rt *legion.Runtime) rtSnapshot {
	st := rt.Stats()
	return rtSnapshot{
		tasks: st.Tasks.Load(), points: st.PointTasks.Load(),
		copies: st.Copies.Load(), bytes: st.TotalBytes(),
		sim: rt.SimTime(), cache: rt.CacheStats(),
	}
}

// runtimeCounts turns two snapshots around ops ops into the per-op
// counts. With the static mapper and one client these repeat exactly.
func runtimeCounts(before, after rtSnapshot, ops int, out layerValues) {
	n := float64(ops)
	out["legion.launches_per_op"] = float64(after.tasks-before.tasks) / n
	out["legion.points_per_op"] = float64(after.points-before.points) / n
	out["machine.copies_per_op"] = float64(after.copies-before.copies) / n
	out["machine.copied_kb_per_op"] = float64(after.bytes-before.bytes) / 1e3 / n
	out["machine.sim_ms_per_op"] = ms(after.sim-before.sim) / n
	cacheCounts(before.cache, after.cache, ops, out)
}

// cacheCounts reports the partition caches over a window.
func cacheCounts(b, a legion.CacheStats, ops int, out layerValues) {
	out["legion.image_builds_per_op"] = float64(a.ImageBuilds-b.ImageBuilds) / float64(ops)
	out["legion.image_hit_share"] = share(a.ImageHits+a.ImageSetHits-b.ImageHits-b.ImageSetHits, a.ImageBuilds-b.ImageBuilds)
	out["legion.part_hit_share"] = share(a.PartHits+a.AlignHits-b.PartHits-b.AlignHits, a.PartMisses+a.AlignMisses-b.PartMisses-b.AlignMisses)
}

// share is hits / (hits + misses), or 1 when nothing was looked up.
func share(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 1
	}
	return float64(hits) / float64(hits+misses)
}

// engineCounts reports a backend's counters over a window of ops.
func engineCounts(b, a engine.MetricsSnapshot, out layerValues) {
	out["engine.bind_hit_share"] = share(a.BindingCache.Hits-b.BindingCache.Hits, a.BindingCache.Misses-b.BindingCache.Misses)
	out["engine.evictions"] = float64(a.BindingCache.Evictions - b.BindingCache.Evictions)
	out["engine.invalidations"] = float64(a.BindingCache.Invalidations - b.BindingCache.Invalidations)
	out["engine.batch_mean"] = 1
	if batches := a.Batching.Batches - b.Batching.Batches; batches > 0 {
		out["engine.batch_mean"] = float64(a.Batching.Jobs-b.Batching.Jobs) / float64(batches)
	}
	out["engine.sheds"] = float64(a.Lifecycle.Sheds - b.Lifecycle.Sheds)
	out["engine.retries"] = float64(a.Pool.Retries - b.Pool.Retries)
	out["engine.replacements"] = float64(a.Pool.Replacements - b.Pool.Replacements)
}

// shardCounts reports the coordinator's comms accounting per op.
func shardCounts(b, a engine.MetricsSnapshot, ops int, out layerValues) {
	var scatters, bytes, partials, failovers int64
	for i, s := range a.Shards {
		var prev engine.ShardMetrics
		if i < len(b.Shards) {
			prev = b.Shards[i]
		}
		scatters += s.Scatters - prev.Scatters
		bytes += s.BytesOut + s.BytesIn - prev.BytesOut - prev.BytesIn
		partials += s.DotPartials - prev.DotPartials
		failovers += s.Failovers - prev.Failovers
	}
	n := float64(ops)
	out["shard.scatters_per_op"] = float64(scatters) / n
	out["shard.kb_per_op"] = float64(bytes) / 1e3 / n
	out["shard.dot_partials_per_op"] = float64(partials) / n
	out["shard.failovers"] = float64(failovers)
}

// distalSpMV binds the compiled CSR SpMV variant that core dispatches to
// on CPUs to host slices, the way BenchmarkFormatDirectKernel does.
func distalSpMV(m *hostMatrix) func(y, x []float64) {
	k := distal.Standard.MustLookup("spmv", distal.CSR, distal.CPUThread)
	pos := make([]geometry.Rect, m.Rows)
	for i := range pos {
		pos[i] = geometry.Rect{Lo: m.Indptr[i], Hi: m.Indptr[i+1] - 1}
	}
	yOp, xOp := &distal.Operand{}, &distal.Operand{}
	args := &distal.Args{
		Ops: map[string]*distal.Operand{
			"y": yOp, "x": xOp,
			"A": {Pos: pos, Crd: m.Indices, Vals: m.Data},
		},
		Lo: 0, Hi: m.Rows - 1,
	}
	return func(y, x []float64) {
		yOp.Vals, xOp.Vals = y, x
		k.Exec(args)
	}
}

// ladder runs the standard op on matrix m through successive public
// entry points, innermost first. A layer's self time is its depth's p50
// minus the depth below it. It fills in every counter it can read on
// the way; the caller drops those the workload's own window measured.
func ladder(w *workload, m *hostMatrix, tick func(), out layerValues) error {
	k := w.LadderOps
	wantX, wantHist := m.CG(ones(m.Rows), cgMaxIter, cgTol)
	row, col, val := m.triples()
	ctx := context.Background()
	// timeSolves is the p50 of k standard solves on a backend.
	timeSolves := func(b engine.Backend) (time.Duration, error) {
		var err error
		d := p50(k, tick, func() {
			if _, e := b.Solve(ctx, &engine.SolveRequest{Matrix: m.Name, MaxIter: cgMaxIter, Tol: cgTol}); e != nil {
				err = e
			}
		})
		return d, err
	}
	// solveDepth uploads m to a backend and returns the upload time, the
	// first (cache-miss) solve and the p50 of k warm ones. As many
	// unmeasured solves come first, so the autotuner has settled on its
	// decisions; afterWarmUp runs between the two.
	solveDepth := func(b engine.Backend, afterWarmUp func()) (upload, miss, warm time.Duration, err error) {
		t0 := time.Now()
		if _, err = b.Upload(ctx, &engine.UploadRequest{Name: m.Name, Rows: m.Rows, Cols: m.Cols, Row: row, Col: col, Val: val}); err != nil {
			return
		}
		upload = time.Since(t0)
		tick()
		t0 = time.Now()
		resp, err := b.Solve(ctx, &engine.SolveRequest{Matrix: m.Name, MaxIter: cgMaxIter, Tol: cgTol})
		if err != nil {
			return
		}
		miss = time.Since(t0)
		if err = closeTo(resp.X, wantX); err != nil {
			return
		}
		if _, err = timeSolves(b); err != nil {
			return
		}
		afterWarmUp()
		warm, err = timeSolves(b)
		return
	}

	// Depth 0: the sequential floor. (Depth 1, the compiled kernel on
	// host slices, is a single call and is timed with the probes.)
	out["seq.op_ms"] = ms(p50(k, tick, func() { m.CG(ones(m.Rows), cgMaxIter, cgTol) }))

	// Depth 2: solvers.CG on a runtime the benchmark owns, then the
	// mirrored loop on the same runtime for the span-based metrics.
	rt := engineShapedRuntime()
	owned := &libSUT{rt: rt, a: core.FromTriples(rt, m.Rows, m.Cols, row, col, val), b: cunumeric.Full(rt, m.Rows, 1)}
	cg := func(rec *recorder, op int) []float64 {
		root := rec.begin("op", -1, op)
		ans, _ := owned.do(0, request{}, m, rec, root, op)
		rec.end(root)
		return ans.vals
	}
	first := cg(nil, 0) // warms partitions and plan cache
	if err := closeTo(first, wantHist); err != nil {
		return fmt.Errorf("solvers depth: %w", err)
	}
	tick()
	before := snapshotRuntime(rt)
	cgOp := p50(k, tick, func() { cg(nil, 0) })
	runtimeCounts(before, snapshotRuntime(rt), k, out)
	out["solvers.cg_ms"] = ms(cgOp)
	out["solvers.iters_per_op"] = float64(len(first))
	rec := newRecorder()
	out["solvers.mirror_match"] = 1
	for i := 0; i < k; i++ {
		if !sameBits(cg(rec, i), first) {
			out["solvers.mirror_match"] = 0
		}
		tick()
	}
	mirrorMetrics(rec.spans, out)
	owned.close()

	// Depth 3 and 4: Engine.Solve, with the static mapper and as shipped.
	static, err := engine.New(engine.Config{NoTune: true})
	if err != nil {
		return err
	}
	_, _, staticOp, err := solveDepth(static, func() {})
	static.Close()
	if err != nil {
		return fmt.Errorf("engine depth (NoTune): %w", err)
	}
	eng, err := engine.New(engine.Config{})
	if err != nil {
		return err
	}
	defer eng.Close() // a second Close is a no-op
	before0 := eng.Metrics()
	upload, miss, engOp, err := solveDepth(eng, func() {})
	if err != nil {
		return fmt.Errorf("engine depth: %w", err)
	}
	out["engine.solve_ms"] = ms(engOp)
	out["engine.self_ms"] = ms(staticOp - cgOp)
	out["engine.upload_ms"] = ms(upload)
	out["engine.bind_miss_ms"] = ms(miss - engOp)
	out["tune.speedup_x"] = float64(staticOp) / float64(engOp)
	var decisions int
	for _, bnd := range eng.TuneReport().Bindings {
		d := bnd.Decisions
		decisions += len(d.Variants) + len(d.Balanced)
		if d.FusionWindow != 0 {
			decisions++
		}
	}
	out["tune.decisions"] = float64(decisions)
	engineCounts(before0, eng.Metrics(), out)

	// Depth 5: the loopback client's deep copies over the same engine.
	lbOp, err := timeSolves(loopback.New(eng))
	if err != nil {
		return fmt.Errorf("loopback depth: %w", err)
	}
	out["loopback.self_us"] = us(lbOp - engOp)

	// Depth 6: HTTP over the same engine, one keep-alive client. Closing
	// the transport closes the engine too, before the shard depth starts.
	hs := serveHTTP(eng, 1)
	httpOp := p50(k, tick, func() {
		if _, e := hs.do(0, request{Class: "solve"}, m, nil, -1, -1); e != nil {
			err = e
		}
	})
	hs.close()
	if err != nil {
		return fmt.Errorf("http depth: %w", err)
	}
	out["httpapi.self_ms"] = ms(httpOp - engOp)
	out["httpapi.req_kb"] = float64(hs.reqBytes.Load()) / 1e3 / float64(k)
	out["httpapi.resp_kb"] = float64(hs.respBytes.Load()) / 1e3 / float64(k)

	// Depth 7: the 2-shard coordinator, called directly.
	co, err := shard.New(shard.Config{Shards: 2})
	if err != nil {
		return err
	}
	defer co.Close()
	// The first solve pushes the blocks; per-op comms counts cover warm solves.
	var coBefore engine.MetricsSnapshot
	_, _, coOp, err := solveDepth(co, func() { coBefore = co.Metrics() })
	if err != nil {
		return fmt.Errorf("shard depth: %w", err)
	}
	out["shard.solve_ms"] = ms(coOp)
	out["shard.self_ms"] = ms(coOp - engOp)
	out["shard.scaling_x"] = float64(engOp) / float64(coOp)
	shardCounts(coBefore, co.Metrics(), k, out)
	return nil
}

// probes times single calls into each layer on a runtime shaped like
// the workload's own, with the workload's matrix, after the window.
func probes(w *workload, m *hostMatrix, tick func(), out layerValues) error {
	nnz := int64(len(m.Data))
	reps := int(min(200, max(5, 2_000_000/nnz)))
	x, y := ones(m.Rows), make([]float64, m.Rows)

	seqSpMV := p50(reps, tick, func() { m.SpMVInto(y, x) })
	spmv := distalSpMV(m)
	kernel := p50(reps, tick, func() { spmv(y, x) })
	if !sameBits(y, m.SpMV(x)) {
		return fmt.Errorf("distal kernel on host slices does not reproduce seq.SpMV")
	}
	out["seq.spmv_ns_per_nnz"] = float64(seqSpMV) / float64(nnz)
	out["distal.spmv_ns_per_nnz"] = float64(kernel) / float64(nnz)
	out["distal.kernel_vs_seq_x"] = float64(kernel) / float64(seqSpMV)

	row, col, val := m.triples()
	out["core.fingerprint_ms"] = ms(p50(5, tick, func() { core.FingerprintTriples(m.Rows, m.Cols, row, col, val) }))

	var rt *legion.Runtime
	if w.Kind == "lib" {
		rt = newLibRuntime()
	} else {
		rt = engineShapedRuntime()
	}
	defer rt.Shutdown()
	np := rt.NumProcs()
	noop := func(*legion.TaskContext) {}
	launch := func(points int) time.Duration {
		return p50(200, tick, func() {
			rt.NewLaunch("bench.noop", points, noop).Execute()
			rt.Fence()
		})
	}
	out["legion.launch_us"] = us(launch(1))
	launchNP := launch(np)
	out["legion.launch_np_us"] = us(launchNP)

	a := core.FromTriples(rt, m.Rows, m.Cols, row, col, val)
	vx := cunumeric.Full(rt, m.Rows, 1)
	vy := cunumeric.Zeros(rt, m.Rows)
	vz := cunumeric.Zeros(rt, m.Rows)
	a.SpMVInto(vy, vx) // warm the partition caches the probes below rely on
	rt.Fence()

	out["constraint.task_us"] = us(p50(200, tick, func() {
		t := constraint.NewTask(rt, "bench.aligned", noop)
		o := t.AddInOut(vz.Region())
		i1 := t.AddInput(vx.Region())
		i2 := t.AddInput(vy.Region())
		t.Align(o, i1).Align(o, i2)
		t.Execute()
		rt.Fence()
	}) - launchNP)
	out["constraint.image_task_us"] = us(p50(200, tick, func() {
		t := constraint.NewTask(rt, "bench.image", noop)
		o := t.AddInOut(vz.Region())
		pos := t.AddInput(a.Pos())
		crd := t.AddInput(a.Crd())
		vals := t.AddInput(a.Vals())
		x := t.AddInput(vx.Region())
		t.Align(o, pos).Image(pos, crd, vals).Image(crd, x)
		t.Execute()
		rt.Fence()
	}) - launchNP)

	fenced := p50(reps, tick, func() { a.SpMVInto(vy, vx); rt.Fence() })
	out["core.spmv_fenced_us"] = us(fenced)
	out["core.spmv_vs_kernel_x"] = float64(fenced) / float64(kernel)
	out["cunumeric.axpy_fenced_us"] = us(p50(reps, tick, func() { cunumeric.AXPY(0.5, vx, vz); rt.Fence() }))
	out["cunumeric.dot_get_us"] = us(p50(reps, tick, func() { cunumeric.Dot(vx, vy).Get() }))
	out["cunumeric.alloc_us"] = us(p50(reps, tick, func() { cunumeric.Zeros(rt, m.Rows).Destroy() }))

	// Image partitions are cached on the source's contents; dropping the
	// caches of pos and crd makes every repetition a full build.
	out["legion.image_ms"] = ms(p50(max(3, reps/10), tick, func() {
		rt.InvalidateRegionCaches(a.Pos())
		rt.InvalidateRegionCaches(a.Crd())
		rows := rt.BlockPartition(a.Pos(), np)
		entries := rt.ImageRange(a.Pos(), rows, a.Crd())
		rt.ImageCoord(a.Crd(), entries, vx.Region())
	}))
	return nil
}

// agingX is the p50 of the last fifth of a client's op latencies over
// the p50 of the first fifth: how much a warm runtime slowed during one
// epoch.
func agingX(lat []float64) float64 {
	fifth := len(lat) / 5
	if fifth == 0 {
		return math.NaN()
	}
	return median(lat[len(lat)-fifth:]) / median(lat[:fifth])
}
