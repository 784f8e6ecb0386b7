// Command predictd serves LogGP running-time predictions over
// HTTP/JSON, hardened for unattended operation: bounded admission with
// load shedding, per-request deadlines and work budgets, graceful
// degradation to the closed-form bound certificate, contained
// prediction panics, and a clean SIGTERM drain (see internal/serve).
//
// Usage:
//
//	predictd [-addr :8080] [-workers 0] [-queue -1] [-deadline 5s]
//	         [-max-deadline 60s] [-budget 0] [-drain-grace 1s]
//	         [-drain-timeout 10s] [-cache-off] [-cache-bytes 268435456]
//	         [-cache-entries 65536] [-cache-shards 16] [-pprof]
//
// Endpoints:
//
//	POST /predict  one prediction request (see internal/serve.Request)
//	GET  /healthz  liveness (200 while the process runs)
//	GET  /readyz   readiness (503 once draining)
//	GET  /statsz   counters: accepted/shed/rejected/degraded/panics,
//	               plus the result cache's hit/miss/eviction counters
//	GET  /debug/pprof/...  runtime profiles, only with -pprof
//
// Identical prediction requests are answered from a content-addressed
// result cache: every prediction is deterministic, so entries never go
// stale, and only -cache-bytes and -cache-entries bound it. A miss
// evaluates on its own request's goroutine. -cache-off evaluates every
// request.
//
// On SIGINT/SIGTERM the server stops admitting work, lets in-flight
// requests run for the drain grace, bound-downgrades the rest, and
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"loggpsim/internal/resultcache"
	"loggpsim/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port; the bound address is printed to stderr)")
	workers := flag.Int("workers", 0, "concurrent predictions (0 = all CPUs); also sizes the evaluator pool")
	queue := flag.Int("queue", -1, "waiting requests beyond the running ones (-1 = 2×workers); excess is shed with 429")
	deadline := flag.Duration("deadline", 5*time.Second, "default per-request deadline")
	maxDeadline := flag.Duration("max-deadline", 60*time.Second, "ceiling on client-supplied deadlines")
	budget := flag.Float64("budget", 0, "default per-request work budget in analyze.Work units (0 = server default)")
	drainGrace := flag.Duration("drain-grace", time.Second, "how long in-flight requests keep running after a shutdown signal before degrading to bound certificates")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "hard cap on the whole shutdown")
	cacheOff := flag.Bool("cache-off", false, "disable the result cache (every request evaluates)")
	cacheBytes := flag.Int64("cache-bytes", 0, "result cache byte budget (0 = 256 MiB default, negative = unbounded)")
	cacheEntries := flag.Int("cache-entries", 0, "result cache entry budget (0 = 65536 default, negative = unbounded)")
	cacheShards := flag.Int("cache-shards", 0, "result cache shard count, rounded up to a power of two (0 = 16)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default; profiles expose internals)")
	flag.Parse()

	// The flag's -1 means "default" (2×workers) while serve.Config uses
	// 0 for that; translate, and map an explicit 0 to "no waiting room".
	qd := *queue
	if qd < 0 {
		qd = 0
	} else if qd == 0 {
		qd = -1
	}
	srv := serve.NewServer(serve.Config{
		Workers:         *workers,
		QueueDepth:      qd,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		DefaultBudget:   *budget,
		DrainGrace:      *drainGrace,
		CacheOff:        *cacheOff,
		Cache: resultcache.Config{
			MaxBytes:   *cacheBytes,
			MaxEntries: *cacheEntries,
			Shards:     *cacheShards,
		},
		Pprof: *pprofFlag,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "predictd: listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Fprintln(os.Stderr, "predictd: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "predictd:", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "predictd: shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "predictd: drained, exiting")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "predictd:", err)
	os.Exit(1)
}
