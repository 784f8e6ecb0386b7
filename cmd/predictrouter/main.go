// Command predictrouter fronts a predictd cluster: it owns admission
// (decode, size caps, validation) and routes each request to the peer
// that owns its canonical content key on a consistent-hash ring, so N
// peer caches behave like one cache (see internal/cluster).
//
// Usage:
//
//	predictrouter -peers http://h1:8080,http://h2:8080,... [-addr :8080]
//	              [-replicas 128] [-salt ""] [-probe-interval 500ms]
//	              [-probe-timeout 2s] [-fail-threshold 2]
//	              [-backoff-base 250ms] [-backoff-max 5s]
//	              [-max-attempts 3] [-forward-timeout 75s]
//	              [-admin-token ""] [-join-timeout 10s]
//	              [-handoff-timeout 30s]
//
// Endpoints:
//
//	POST /predict       one prediction request, routed to its owner peer
//	GET  /healthz       router liveness
//	GET  /readyz        readiness (200 once at least one peer probes healthy)
//	GET  /statsz        routing counters, membership epoch + ring
//	                    fingerprint, and each peer's health view
//	POST /admin/join    add a peer: probe it ready, prewarm its share of
//	                    the cache from the current members, then swap the
//	                    grown ring in (epoch +1)
//	POST /admin/drain   retire a peer: swap the shrunk ring in (epoch +1),
//	                    then stream its cache to the new owners
//	POST /admin/remove  forget a drained peer (no ring change)
//
// Admin endpoints take {"peer": "http://host:port"} and are restricted
// to loopback callers unless -admin-token is set, in which case the
// X-Admin-Token header must match (from any source address).
//
// Peers that die are probed on a capped, deterministically staggered
// backoff and failed over to their ring successors, one leg at a time;
// a leg that outlives -forward-timeout fails over too. On SIGINT/SIGTERM
// the router stops its probe loops, finishes in-flight relays, and
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
	"strings"
	"syscall"
	"time"

	"loggpsim/internal/cluster"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port; the bound address is printed to stderr)")
	peers := flag.String("peers", "", "comma-separated predictd base URLs (required)")
	replicas := flag.Int("replicas", 0, "virtual nodes per peer on the ring (0 = 128)")
	salt := flag.String("salt", "", "ring placement salt (must match across router instances)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "health probe spacing per peer")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
	failThreshold := flag.Int("fail-threshold", 2, "consecutive transport failures before a peer is down")
	backoffBase := flag.Duration("backoff-base", 250*time.Millisecond, "reprobe backoff base for down peers")
	backoffMax := flag.Duration("backoff-max", 5*time.Second, "reprobe backoff cap")
	maxAttempts := flag.Int("max-attempts", 3, "ring owners tried per request (clamped to the peer count)")
	forwardTimeout := flag.Duration("forward-timeout", 75*time.Second, "per-leg forward timeout")
	adminToken := flag.String("admin-token", "", "shared secret for /admin/* (empty = loopback callers only)")
	joinTimeout := flag.Duration("join-timeout", 10*time.Second, "how long /admin/join waits for the new peer to probe ready")
	handoffTimeout := flag.Duration("handoff-timeout", 30*time.Second, "cache handoff budget per join/drain")
	flag.Parse()

	if *peers == "" {
		fatal(errors.New("-peers is required (comma-separated predictd URLs)"))
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Peers:          peerList,
		Replicas:       *replicas,
		Salt:           *salt,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		FailThreshold:  *failThreshold,
		BackoffBase:    *backoffBase,
		BackoffMax:     *backoffMax,
		MaxAttempts:    *maxAttempts,
		ForwardTimeout: *forwardTimeout,
		AdminToken:     *adminToken,
		JoinTimeout:    *joinTimeout,
		HandoffTimeout: *handoffTimeout,
	})
	if err != nil {
		fatal(err)
	}
	rt.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "predictrouter: listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler:           rt.Handler(),
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

	fmt.Fprintln(os.Stderr, "predictrouter: draining")
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "predictrouter: shutdown:", err)
	}
	rt.Close()
	fmt.Fprintln(os.Stderr, "predictrouter: drained, exiting")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "predictrouter:", err)
	os.Exit(1)
}
