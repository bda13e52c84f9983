// Command legate-serve runs the solver service: an HTTP JSON API over a
// pool of warm runtimes with cross-request plan and partition caching,
// fronted by admission control (deadlines, per-tenant quotas, bounded
// queues, circuit breakers) and stopped with a graceful drain.
//
// Usage:
//
//	legate-serve -addr :8080 -pool 2 -procs 4 -kind cpu
//	             [-deadline 0] [-max-queue 256] [-quota RATE[:BURST]]
//	             [-breaker N] [-breaker-cooldown 2s] [-drain 10s]
//	             [-shards N]
//
// With -shards > 1 the binary runs N in-process engine instances behind
// one router (internal/shard): each request goes whole to the engine
// that owns its matrix name and fails over to the next engine when that
// one degrades, with results bit-identical to a single engine.
//
// SIGINT/SIGTERM triggers graceful shutdown: the server stops admitting
// (new requests shed 503 "draining"), in-flight requests get up to
// -drain to complete, then the pool is torn down.
//
// See README.md ("legate-serve quickstart" and "sharded serve") for
// curl examples and the full flags table, and ARCHITECTURE.md for how a
// request flows through the engine/transport/shard split.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve/engine"
	"repro/internal/serve/httpapi"
	"repro/internal/shard"
)

// parseQuota parses -quota's RATE[:BURST] form.
func parseQuota(spec string) (float64, int, error) {
	if spec == "" {
		return 0, 0, nil
	}
	rate := spec
	burst := 0
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		rate = spec[:i]
		b, err := strconv.Atoi(spec[i+1:])
		if err != nil || b <= 0 {
			return 0, 0, fmt.Errorf("bad quota burst in %q", spec)
		}
		burst = b
	}
	r, err := strconv.ParseFloat(rate, 64)
	if err != nil || r < 0 {
		return 0, 0, fmt.Errorf("bad quota rate in %q", spec)
	}
	return r, burst, nil
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		pool        = flag.Int("pool", 2, "warm runtimes in the pool (per shard when -shards > 1)")
		procs       = flag.Int("procs", 4, "processors per pool runtime")
		kind        = flag.String("kind", "cpu", "processor kind: cpu or gpu")
		cacheSize   = flag.Int("cache-size", 8, "bound matrices cached per worker (LRU)")
		seed        = flag.Uint64("seed", 42, "fault-injection seed (also salts retry jitter)")
		faults      = flag.String("faults", "", "fault spec, e.g. 'point@120:1,proc@2:80ms,rate:0.001,lag:0.05:5ms' (see internal/fault)")
		ckptEvery   = flag.Int("checkpoint-every", 64, "launches per checkpoint epoch (-1 disables recovery)")
		profCap     = flag.Int("prof-capacity", 4096, "profiling sink capacity per request class")
		deadline    = flag.Duration("deadline", 0, "per-request deadline budget (0 = none; X-Deadline header overrides)")
		maxQueue    = flag.Int("max-queue", 256, "bounded per-worker queue depth; a full queue sheds 503")
		quota       = flag.String("quota", "", "per-tenant admission quota RATE[:BURST] in requests/sec (empty disables)")
		brkN        = flag.Int("breaker", 0, "consecutive degradations that trip a worker's circuit breaker (0 disables)")
		brkCooldown = flag.Duration("breaker-cooldown", 2*time.Second, "open -> half-open probe delay")
		retries     = flag.Int("retry-budget", 2, "total executions per degraded batch group")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
		shards      = flag.Int("shards", 1, "in-process engine shards behind a router that places each matrix by name (1 = single-process)")
	)
	flag.Parse()

	quotaRate, quotaBurst, err := parseQuota(*quota)
	if err != nil {
		fmt.Fprintln(os.Stderr, "legate-serve:", err)
		os.Exit(2)
	}

	ecfg := engine.Config{
		Pool:             *pool,
		Procs:            *procs,
		Kind:             *kind,
		CacheSize:        *cacheSize,
		Seed:             *seed,
		Faults:           *faults,
		CheckpointEvery:  *ckptEvery,
		ProfCapacity:     *profCap,
		Deadline:         *deadline,
		MaxQueue:         *maxQueue,
		QuotaRate:        quotaRate,
		QuotaBurst:       quotaBurst,
		BreakerThreshold: *brkN,
		BreakerCooldown:  *brkCooldown,
		RetryBudget:      *retries,
	}

	// One Backend serves both deployments: the transport only sees the
	// interface, so -shards swaps the engine for a coordinator without
	// touching a single handler.
	var backend engine.Backend
	if *shards > 1 {
		c, err := shard.New(shard.Config{Shards: *shards, Engine: ecfg})
		if err != nil {
			fmt.Fprintln(os.Stderr, "legate-serve:", err)
			os.Exit(1)
		}
		backend = c
	} else {
		e, err := engine.New(ecfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "legate-serve:", err)
			os.Exit(1)
		}
		backend = e
	}

	srv := &http.Server{Addr: *addr, Handler: httpapi.Handler(backend)}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("legate-serve: listening on %s (shards=%d pool=%d procs=%d kind=%s cache=%d deadline=%v max-queue=%d)",
			*addr, *shards, *pool, *procs, *kind, *cacheSize, *deadline, *maxQueue)
		errCh <- srv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		backend.Close()
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: shed new admissions, give in-flight work its
	// drain budget, stop the listener, then tear down the pool(s).
	log.Printf("legate-serve: shutting down (drain budget %v)", *drain)
	clean := backend.Drain(*drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("legate-serve: http shutdown: %v", err)
	}
	backend.Close()
	if clean {
		log.Printf("legate-serve: drained cleanly")
	} else {
		log.Printf("legate-serve: drain budget expired with requests in flight")
	}
}
