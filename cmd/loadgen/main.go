// Command loadgen measures what predictd's result cache is worth — and
// what the cluster router keeps of it. It boots predictd twice (cache
// on, cache off) and replays the identical Zipf-skewed workload against
// each (see internal/loadgen); with -cluster N it additionally boots N
// cache-on peers behind predictrouter and replays the same workload
// through the router, first undisturbed, then (unless -chaos=false)
// with one peer SIGKILLed mid-replay and restarted — recording every
// leg into one JSON benchmark artifact.
//
// Usage:
//
//	loadgen [-bin path/to/predictd] [-router-bin path/to/predictrouter]
//	        [-requests 4000] [-off-requests 400] [-clients 8]
//	        [-universe 64] [-skew 1.3] [-seed 1] [-cluster 3]
//	        [-cluster-requests 0] [-chaos] [-min-hit-rate 0]
//	        [-min-speedup 0] [-min-cluster-hit-rate 0]
//	        [-resize-script ""] [-resize-peers 2]
//	        [-min-resize-hit-rate 0] [-out BENCH_serve.json]
//
// With the -bin flags empty the command builds the binaries itself
// (requires the go toolchain). The cluster legs seed their byte-identity
// tableau from the single-process cache-on leg, so every response served
// through the router is demanded byte-identical to what one predictd
// would have answered — the cluster's correctness bar. The chaos leg
// additionally demands zero failures: non-200 answers that are not
// deliberate sheds (429/503 with Retry-After semantics) fail the run.
//
// With -resize-script (e.g. "join:2@400,drain:0@800,remove:0@1000") a
// further leg boots -resize-peers peers behind the router and replays
// the workload while the scripted membership changes land through the
// router's admin API: grow the ring with peer 2 at request 400, drain
// peer 0 at 800, forget it at 1000. The leg demands zero failures and
// byte-identity throughout, then replays the workload once more against
// the resized cluster and records that verification leg's hit rate —
// the proof that the drain's cache handoff actually moved the entries
// (-min-resize-hit-rate puts a floor under it). -off-requests 0 skips
// the cache-off leg for resize-only runs.
//
// The command exits non-zero on any byte-identity mismatch, transport
// error, or chaos failure, or when a leg misses its -min-* floor
// (0 disables a floor).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"loggpsim/internal/loadgen"
)

func main() {
	var o options
	flag.StringVar(&o.bin, "bin", "", "predictd binary to benchmark (empty = go build it)")
	flag.StringVar(&o.routerBin, "router-bin", "", "predictrouter binary (empty = go build it; used when -cluster > 0)")
	flag.IntVar(&o.requests, "requests", 4000, "requests for the cache-on leg")
	flag.IntVar(&o.offRequests, "off-requests", 400, "requests for the cache-off leg (every one evaluates)")
	flag.IntVar(&o.clients, "clients", 8, "concurrent connections per leg")
	flag.IntVar(&o.universe, "universe", 64, "distinct requests in the workload")
	flag.Float64Var(&o.skew, "skew", 1.3, "Zipf skew (s > 1; larger = hotter hot keys)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (universe and replay order)")
	flag.IntVar(&o.cluster, "cluster", 3, "peers behind the router for the cluster legs (0 = skip them)")
	flag.IntVar(&o.clusterRequests, "cluster-requests", 0, "requests per cluster leg (0 = same as -requests)")
	flag.BoolVar(&o.chaos, "chaos", true, "kill and restart one peer mid-replay in a second cluster leg")
	flag.Float64Var(&o.minHitRate, "min-hit-rate", 0, "fail below this cache-on hit rate (0 = no floor)")
	flag.Float64Var(&o.minSpeedup, "min-speedup", 0, "fail below this req/s speedup over cache-off (0 = no floor)")
	flag.Float64Var(&o.minClusterHitRate, "min-cluster-hit-rate", 0, "fail below this cluster-leg hit rate (0 = no floor)")
	flag.StringVar(&o.resizeScript, "resize-script", "", `membership changes for the resize leg, e.g. "join:2@400,drain:0@800,remove:0@1000" (empty = skip it)`)
	flag.IntVar(&o.resizePeers, "resize-peers", 2, "peers the resize-leg cluster starts with")
	flag.Float64Var(&o.minResizeHitRate, "min-resize-hit-rate", 0, "fail below this post-resize verification hit rate (0 = no floor)")
	flag.StringVar(&o.out, "out", "BENCH_serve.json", "benchmark artifact path (empty = don't write)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type options struct {
	bin, routerBin           string
	requests, offRequests    int
	clients, universe        int
	skew                     float64
	seed                     int64
	cluster, clusterRequests int
	chaos                    bool
	minHitRate, minSpeedup   float64
	minClusterHitRate        float64
	resizeScript             string
	resizePeers              int
	minResizeHitRate         float64
	out                      string
}

// report is the BENCH_serve.json schema.
type report struct {
	Config struct {
		Requests    int     `json:"requests"`
		OffRequests int     `json:"off_requests"`
		Clients     int     `json:"clients"`
		Universe    int     `json:"universe"`
		Skew        float64 `json:"skew"`
		Seed        int64   `json:"seed"`
	} `json:"config"`
	CacheOn  loadgen.Result `json:"cache_on"`
	CacheOff loadgen.Result `json:"cache_off"`
	// Speedup is cache-on req/s over cache-off req/s.
	Speedup float64 `json:"speedup"`
	// Cluster records the router legs; absent with -cluster 0.
	Cluster *clusterReport `json:"cluster,omitempty"`
	// Resize records the live-membership leg; absent without
	// -resize-script.
	Resize *resizeReport `json:"resize,omitempty"`
}

// clusterReport is the router section of the artifact: the undisturbed
// leg, the chaos leg (one peer SIGKILLed at half, restarted at three
// quarters), and the router's final counter snapshot.
type clusterReport struct {
	Peers           int             `json:"peers"`
	Requests        int             `json:"requests"`
	Result          loadgen.Result  `json:"result"`
	Chaos           *loadgen.Result `json:"chaos,omitempty"`
	ChaosKilledPeer string          `json:"chaos_killed_peer,omitempty"`
	RouterStats     json.RawMessage `json:"router_stats,omitempty"`
}

// resizeReport is the live-membership section of the artifact: the
// replay that rode through the scripted joins/drains/removes, the
// verification replay against the resized cluster, and where the
// membership ended up.
type resizeReport struct {
	Script       string                `json:"script"`
	InitialPeers int                   `json:"initial_peers"`
	Requests     int                   `json:"requests"`
	Events       []loadgen.ResizeEvent `json:"events"`
	// Result is the leg replayed while the membership changed under it;
	// Verify the follow-up replay against the settled cluster, whose
	// hit rate proves the handoffs moved the cache with the ownership.
	Result loadgen.Result `json:"result"`
	Verify loadgen.Result `json:"verify"`
	// FinalEpoch must equal 1 + joins + drains: every ring swap, and
	// nothing else, moved it.
	FinalEpoch  uint64          `json:"final_epoch"`
	RouterStats json.RawMessage `json:"router_stats,omitempty"`
}

func run(o options) error {
	needRouter := o.cluster > 0 || o.resizeScript != ""
	if o.bin == "" || (o.routerBin == "" && needRouter) {
		dir, err := os.MkdirTemp("", "loadgen")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if o.bin == "" {
			o.bin = filepath.Join(dir, "predictd")
			if err := goBuild(o.bin, "loggpsim/cmd/predictd"); err != nil {
				return err
			}
		}
		if o.routerBin == "" && needRouter {
			o.routerBin = filepath.Join(dir, "predictrouter")
			if err := goBuild(o.routerBin, "loggpsim/cmd/predictrouter"); err != nil {
				return err
			}
		}
	}

	leg := func(label string, cacheOff bool, n int) (loadgen.Result, error) {
		p, err := startPredictd(o.bin, "127.0.0.1:0", cacheOff)
		if err != nil {
			return loadgen.Result{}, fmt.Errorf("%s leg: %w", label, err)
		}
		defer p.stop()
		fmt.Fprintf(os.Stderr, "loadgen: %s leg at %s, %d requests\n", label, p.base, n)
		return loadgen.Run(loadgen.Config{
			BaseURL:  p.base,
			Universe: o.universe,
			Skew:     o.skew,
			Seed:     o.seed,
			Clients:  o.clients,
			Requests: n,
		})
	}

	var rep report
	rep.Config.Requests = o.requests
	rep.Config.OffRequests = o.offRequests
	rep.Config.Clients = o.clients
	rep.Config.Universe = o.universe
	rep.Config.Skew = o.skew
	rep.Config.Seed = o.seed

	var err error
	if rep.CacheOn, err = leg("cache-on", false, o.requests); err != nil {
		return err
	}
	// -off-requests 0 skips the cache-off comparison leg — resize-only
	// runs don't need to re-measure the speedup.
	if o.offRequests > 0 {
		if rep.CacheOff, err = leg("cache-off", true, o.offRequests); err != nil {
			return err
		}
		if rep.CacheOff.ReqPerSec > 0 {
			rep.Speedup = rep.CacheOn.ReqPerSec / rep.CacheOff.ReqPerSec
		}
	}

	if o.cluster > 0 {
		cr, cerr := runCluster(o, rep.CacheOn.Reference)
		if cr != nil {
			rep.Cluster = cr
		}
		if cerr != nil {
			writeReport(rep, o.out)
			return cerr
		}
	}

	if o.resizeScript != "" {
		rr, rerr := runResize(o, rep.CacheOn.Reference)
		if rr != nil {
			rep.Resize = rr
		}
		if rerr != nil {
			writeReport(rep, o.out)
			return rerr
		}
	}

	if err := writeReport(rep, o.out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"loadgen: cache-on %.0f req/s (hit rate %.3f, p50 %.2fms, p99 %.2fms)",
		rep.CacheOn.ReqPerSec, rep.CacheOn.HitRate, rep.CacheOn.P50MS, rep.CacheOn.P99MS)
	if o.offRequests > 0 {
		fmt.Fprintf(os.Stderr, " | cache-off %.0f req/s (p50 %.2fms, p99 %.2fms) | speedup %.1fx",
			rep.CacheOff.ReqPerSec, rep.CacheOff.P50MS, rep.CacheOff.P99MS, rep.Speedup)
	}
	fmt.Fprintln(os.Stderr)
	if rep.Cluster != nil {
		fmt.Fprintf(os.Stderr,
			"loadgen: cluster(%d peers) %.0f req/s (hit rate %.3f, p99 %.2fms)",
			rep.Cluster.Peers, rep.Cluster.Result.ReqPerSec, rep.Cluster.Result.HitRate, rep.Cluster.Result.P99MS)
		if rep.Cluster.Chaos != nil {
			c := rep.Cluster.Chaos
			fmt.Fprintf(os.Stderr, " | chaos: %d requests, %d sheds, %d failures, %d mismatches",
				c.Requests, c.Sheds, c.NonOK-c.Sheds, c.Mismatches)
		}
		fmt.Fprintln(os.Stderr)
	}
	if rep.Resize != nil {
		fmt.Fprintf(os.Stderr,
			"loadgen: resize %q: %d requests, %d sheds, %d failures, %d mismatches | verify hit rate %.3f, epoch %d\n",
			rep.Resize.Script, rep.Resize.Result.Requests, rep.Resize.Result.Sheds,
			rep.Resize.Result.NonOK-rep.Resize.Result.Sheds, rep.Resize.Result.Mismatches,
			rep.Resize.Verify.HitRate, rep.Resize.FinalEpoch)
	}

	switch {
	case rep.CacheOn.Errors > 0 || rep.CacheOff.Errors > 0:
		return fmt.Errorf("transport errors: cache-on %d, cache-off %d",
			rep.CacheOn.Errors, rep.CacheOff.Errors)
	case rep.CacheOn.Mismatches > 0 || rep.CacheOff.Mismatches > 0:
		return fmt.Errorf("byte-identity mismatches: cache-on %d, cache-off %d",
			rep.CacheOn.Mismatches, rep.CacheOff.Mismatches)
	case o.minHitRate > 0 && rep.CacheOn.HitRate < o.minHitRate:
		return fmt.Errorf("cache-on hit rate %.3f below floor %.3f",
			rep.CacheOn.HitRate, o.minHitRate)
	case o.minSpeedup > 0 && rep.Speedup < o.minSpeedup:
		return fmt.Errorf("speedup %.2fx below floor %.2fx", rep.Speedup, o.minSpeedup)
	case rep.Cluster != nil && o.minClusterHitRate > 0 && rep.Cluster.Result.HitRate < o.minClusterHitRate:
		return fmt.Errorf("cluster hit rate %.3f below floor %.3f",
			rep.Cluster.Result.HitRate, o.minClusterHitRate)
	case rep.Resize != nil && o.minResizeHitRate > 0 && rep.Resize.Verify.HitRate < o.minResizeHitRate:
		return fmt.Errorf("post-resize hit rate %.3f below floor %.3f",
			rep.Resize.Verify.HitRate, o.minResizeHitRate)
	}
	return nil
}

func writeReport(rep report, out string) error {
	if out == "" {
		return nil
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(enc, '\n'), 0o644)
}

// runCluster boots o.cluster cache-on peers behind predictrouter and
// runs the router legs. The byte-identity tableau is seeded from the
// single-process cache-on leg, so "the cluster behaves like one
// predictd" is checked response by response, byte by byte. Correctness
// failures (mismatches, errors, chaos non-shed non-200s) are returned
// as errors; the partial report is returned either way so the artifact
// records what happened.
func runCluster(o options, reference [][]byte) (*clusterReport, error) {
	n := o.clusterRequests
	if n <= 0 {
		n = o.requests
	}
	cr := &clusterReport{Peers: o.cluster, Requests: n}

	peers := make([]*daemon, 0, o.cluster)
	defer func() {
		for _, p := range peers {
			p.stop()
		}
	}()
	peerURLs := make([]string, 0, o.cluster)
	for i := 0; i < o.cluster; i++ {
		p, err := startPredictd(o.bin, "127.0.0.1:0", false)
		if err != nil {
			return cr, fmt.Errorf("cluster peer %d: %w", i, err)
		}
		peers = append(peers, p)
		peerURLs = append(peerURLs, p.base)
	}

	// Test-speed probe cadence: discovery and recovery inside seconds,
	// not the operator-scale defaults.
	router, err := startDaemon(o.routerBin, "predictrouter", []string{
		"-addr", "127.0.0.1:0",
		"-peers", strings.Join(peerURLs, ","),
		"-probe-interval", "100ms",
		"-backoff-base", "100ms",
		"-backoff-max", "1s",
	})
	if err != nil {
		return cr, fmt.Errorf("router: %w", err)
	}
	defer router.stop()
	if err := waitHTTP(router.base+"/readyz", 10*time.Second); err != nil {
		return cr, fmt.Errorf("router never became ready: %w", err)
	}

	fmt.Fprintf(os.Stderr, "loadgen: cluster leg at %s (%d peers), %d requests\n", router.base, o.cluster, n)
	cfg := loadgen.Config{
		BaseURL:   router.base,
		Universe:  o.universe,
		Skew:      o.skew,
		Seed:      o.seed,
		Clients:   o.clients,
		Requests:  n,
		Reference: reference,
	}
	res, err := loadgen.Run(cfg)
	if err != nil {
		return cr, err
	}
	cr.Result = res
	switch {
	case res.Errors > 0:
		return cr, fmt.Errorf("cluster leg: %d transport errors", res.Errors)
	case res.Mismatches > 0:
		return cr, fmt.Errorf("cluster leg: %d responses differed from the single-process baseline", res.Mismatches)
	}

	if !o.chaos {
		cr.RouterStats = fetchStats(router.base)
		return cr, nil
	}

	// Chaos leg: SIGKILL the first peer at the halfway mark, restart it
	// at three quarters, and demand zero failures — every non-200 must
	// be a deliberate shed, every 200 byte-identical to the baseline.
	victim := peers[0]
	cr.ChaosKilledPeer = victim.base
	fmt.Fprintf(os.Stderr, "loadgen: chaos leg, killing %s at request %d\n", victim.base, n/2)
	cfg.Reference = res.Reference
	cfg.OnIssue = func(i int) {
		switch i {
		case n / 2:
			victim.kill()
		case n - n/4:
			go func() {
				if err := victim.restart(); err != nil {
					fmt.Fprintln(os.Stderr, "loadgen: chaos restart:", err)
				}
			}()
		}
	}
	chaos, err := loadgen.Run(cfg)
	if err != nil {
		return cr, err
	}
	cr.Chaos = &chaos

	// Give the router a moment to reprobe the restarted peer, then
	// record its view of the incident.
	waitErr := waitHTTP(victim.base+"/readyz", 10*time.Second)
	time.Sleep(500 * time.Millisecond)
	cr.RouterStats = fetchStats(router.base)

	switch {
	case chaos.Errors > 0:
		return cr, fmt.Errorf("chaos leg: %d transport errors", chaos.Errors)
	case chaos.NonOK-chaos.Sheds > 0:
		return cr, fmt.Errorf("chaos leg: %d failed responses (non-200, non-shed)", chaos.NonOK-chaos.Sheds)
	case chaos.Mismatches > 0:
		return cr, fmt.Errorf("chaos leg: %d responses differed from the baseline", chaos.Mismatches)
	case waitErr != nil:
		return cr, fmt.Errorf("killed peer never came back: %w", waitErr)
	}
	return cr, nil
}

// resizeToken gates the router's admin API for the resize leg. The
// loadgen talks to the router over loopback, where no token is needed;
// setting one anyway exercises the production access path.
const resizeToken = "resize-smoke"

// runResize boots -resize-peers peers (plus every peer index the script
// joins, booted up front so they are ready when their cue comes) behind
// a router, replays the workload while the scripted membership changes
// land through the admin API, and demands the chaos-leg bar throughout:
// zero transport errors, zero non-shed non-200s, zero byte diffs
// against the single-process baseline. A second replay against the
// settled cluster then measures the post-resize hit rate — the cache
// handoff's proof — and the final epoch is checked against the script
// (1 + joins + drains, exactly).
func runResize(o options, reference [][]byte) (*resizeReport, error) {
	events, err := loadgen.ParseResizeScript(o.resizeScript)
	if err != nil {
		return nil, err
	}
	if o.resizePeers < 1 {
		return nil, fmt.Errorf("resize leg: -resize-peers must be at least 1")
	}
	n := o.clusterRequests
	if n <= 0 {
		n = o.requests
	}
	rr := &resizeReport{Script: o.resizeScript, InitialPeers: o.resizePeers, Requests: n, Events: events}

	total := o.resizePeers
	wantEpoch := uint64(1)
	for _, ev := range events {
		if ev.Peer >= total {
			total = ev.Peer + 1
		}
		if ev.Action == "join" || ev.Action == "drain" {
			wantEpoch++
		}
		if ev.At >= n {
			return rr, fmt.Errorf("resize leg: event %s:%d@%d is beyond the %d-request replay",
				ev.Action, ev.Peer, ev.At, n)
		}
	}

	peers := make([]*daemon, 0, total)
	defer func() {
		for _, p := range peers {
			p.stop()
		}
	}()
	peerURLs := make([]string, 0, total)
	for i := 0; i < total; i++ {
		p, err := startPredictd(o.bin, "127.0.0.1:0", false)
		if err != nil {
			return rr, fmt.Errorf("resize peer %d: %w", i, err)
		}
		peers = append(peers, p)
		peerURLs = append(peerURLs, p.base)
	}

	router, err := startDaemon(o.routerBin, "predictrouter", []string{
		"-addr", "127.0.0.1:0",
		"-peers", strings.Join(peerURLs[:o.resizePeers], ","),
		"-probe-interval", "100ms",
		"-backoff-base", "100ms",
		"-backoff-max", "1s",
		"-admin-token", resizeToken,
	})
	if err != nil {
		return rr, fmt.Errorf("resize router: %w", err)
	}
	defer router.stop()
	if err := waitHTTP(router.base+"/readyz", 10*time.Second); err != nil {
		return rr, fmt.Errorf("resize router never became ready: %w", err)
	}

	// Membership changes fire from OnIssue goroutines so the load keeps
	// flowing while the router swaps rings and streams caches — that
	// concurrency is the thing under test. Failures are collected, not
	// fatal mid-replay, so the replay's own numbers still land.
	var adminMu sync.Mutex
	var adminErrs []error
	var adminWG sync.WaitGroup
	byAt := make(map[int][]loadgen.ResizeEvent)
	for _, ev := range events {
		byAt[ev.At] = append(byAt[ev.At], ev)
	}

	fmt.Fprintf(os.Stderr, "loadgen: resize leg at %s (%d peers growing to script %q), %d requests\n",
		router.base, o.resizePeers, o.resizeScript, n)
	cfg := loadgen.Config{
		BaseURL:   router.base,
		Universe:  o.universe,
		Skew:      o.skew,
		Seed:      o.seed,
		Clients:   o.clients,
		Requests:  n,
		Reference: reference,
		OnIssue: func(i int) {
			evs, ok := byAt[i]
			if !ok {
				return
			}
			adminWG.Add(1)
			go func() {
				defer adminWG.Done()
				// Events sharing one position run in script order in
				// one goroutine (drain-then-remove stays a sequence);
				// the router's admin mutex serializes across positions.
				for _, ev := range evs {
					fmt.Fprintf(os.Stderr, "loadgen: resize: %s %s at request %d\n", ev.Action, peerURLs[ev.Peer], ev.At)
					if err := adminCall(router.base, ev.Action, peerURLs[ev.Peer]); err != nil {
						adminMu.Lock()
						adminErrs = append(adminErrs, err)
						adminMu.Unlock()
					}
				}
			}()
		},
	}
	res, err := loadgen.Run(cfg)
	if err != nil {
		return rr, err
	}
	adminWG.Wait()
	rr.Result = res

	switch {
	case len(adminErrs) > 0:
		return rr, fmt.Errorf("resize leg: admin: %w", adminErrs[0])
	case res.Errors > 0:
		return rr, fmt.Errorf("resize leg: %d transport errors", res.Errors)
	case res.NonOK-res.Sheds > 0:
		return rr, fmt.Errorf("resize leg: %d failed responses (non-200, non-shed)", res.NonOK-res.Sheds)
	case res.Mismatches > 0:
		return rr, fmt.Errorf("resize leg: %d responses differed from the single-process baseline", res.Mismatches)
	}

	// Verification replay: the same workload against the settled
	// cluster. Identity must still hold, and the hit rate is the
	// handoff's report card — entries that failed to move with their
	// keys come back as misses here.
	cfg.OnIssue = nil
	cfg.Reference = res.Reference
	verify, err := loadgen.Run(cfg)
	if err != nil {
		return rr, err
	}
	rr.Verify = verify
	rr.RouterStats = fetchStats(router.base)
	var st struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(rr.RouterStats, &st); err == nil {
		rr.FinalEpoch = st.Epoch
	}

	switch {
	case verify.Errors > 0:
		return rr, fmt.Errorf("resize verify leg: %d transport errors", verify.Errors)
	case verify.NonOK-verify.Sheds > 0:
		return rr, fmt.Errorf("resize verify leg: %d failed responses", verify.NonOK-verify.Sheds)
	case verify.Mismatches > 0:
		return rr, fmt.Errorf("resize verify leg: %d responses differed from the baseline", verify.Mismatches)
	case rr.FinalEpoch != wantEpoch:
		return rr, fmt.Errorf("resize leg: final epoch %d, want %d (1 + joins + drains)", rr.FinalEpoch, wantEpoch)
	}
	return rr, nil
}

// adminCall drives one membership change through the router's admin
// API. A remove may race the drain it depends on (both ride OnIssue
// goroutines), so 409s retry briefly — the router answers 409 until the
// peer is drained, then accepts.
func adminCall(routerBase, action, peerURL string) error {
	body, err := json.Marshal(map[string]string{"peer": peerURL})
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 60 * time.Second}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, routerBase+"/admin/"+action, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Admin-Token", resizeToken)
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("admin %s %s: %w", action, peerURL, err)
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		if resp.StatusCode == http.StatusConflict && attempt < 50 {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		return fmt.Errorf("admin %s %s: status %d: %s", action, peerURL, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
}

func goBuild(out, pkg string) error {
	build := exec.Command("go", "build", "-o", out, pkg)
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building %s: %w", pkg, err)
	}
	return nil
}

func fetchStats(base string) json.RawMessage {
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil
	}
	return b
}

func waitHTTP(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return err
			}
			return fmt.Errorf("%s not answering 200", url)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// daemon is one child process (predictd or predictrouter) plus what is
// needed to stop, kill, and — for chaos — restart it on its original
// address.
type daemon struct {
	name     string
	bin      string
	args     []string // without -addr; addr is tracked separately
	addr     string   // bound address, fixed after the first boot
	base     string
	cmd      *exec.Cmd
	stopOnce func()
}

func (d *daemon) stop() {
	if d.stopOnce != nil {
		d.stopOnce()
		d.stopOnce = nil
	}
}

// kill SIGKILLs the process — no drain, no goodbye; the chaos case.
func (d *daemon) kill() {
	d.stopOnce = nil
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// restart boots the same binary on the same address, retrying briefly
// while the old socket frees up.
func (d *daemon) restart() error {
	var err error
	for i := 0; i < 40; i++ {
		var nd *daemon
		nd, err = startDaemon(d.bin, d.name, append([]string{"-addr", d.addr}, d.args...))
		if err == nil {
			*d = *nd
			return nil
		}
		time.Sleep(250 * time.Millisecond)
	}
	return fmt.Errorf("restarting %s at %s: %w", d.name, d.addr, err)
}

// startPredictd boots one predictd. A deep queue keeps the closed-loop
// client load inside admission: the loadtest measures evaluation
// throughput, not the shed rate (serve-smoke covers shedding).
func startPredictd(bin, addr string, cacheOff bool) (*daemon, error) {
	args := []string{"-queue", "64"}
	if cacheOff {
		args = append(args, "-cache-off")
	}
	d, err := startDaemon(bin, "predictd", append([]string{"-addr", addr}, args...))
	if err != nil {
		return nil, err
	}
	d.args = args
	return d, nil
}

// startDaemon boots a child, parses the bound address off its stderr
// "listening on" line, and waits for /healthz. The stop function
// drains (SIGINT) and reaps the process.
func startDaemon(bin, name string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{name: name, bin: bin, cmd: cmd}
	d.stopOnce = func() {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}

	// The address arrives on the first stderr line; keep draining the
	// pipe afterwards so the child never blocks on a full buffer.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
		close(addrCh)
	}()

	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			d.stop()
			return nil, fmt.Errorf("%s exited before reporting its address", name)
		}
		d.addr = addr
		d.base = "http://" + addr
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, fmt.Errorf("timed out waiting for %s to report its address", name)
	}

	if err := waitHTTP(d.base+"/healthz", 10*time.Second); err != nil {
		d.stop()
		return nil, fmt.Errorf("%s at %s never became healthy: %w", name, d.base, err)
	}
	return d, nil
}
