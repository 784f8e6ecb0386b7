package main

// Scripted end-to-end tests of the real router: build predictd and
// predictrouter, boot peers behind the router, replay a Zipf workload
// through it, and demand from the outside that the cluster answers like
// one predictd — zero transport errors, zero failed (non-200, non-shed)
// responses, every 200 byte-identical to a single process's — while a
// peer is SIGKILLed and restarted (TestPredictrouterClusterChaos,
// `make cluster-smoke`) or the membership grows and shrinks through the
// admin API (TestPredictrouterResize, `make resize-smoke`).

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"loggpsim/internal/loadgen"
)

// proc is one child daemon the test can stop, SIGKILL, and restart on
// its original address.
type proc struct {
	bin  string
	args []string // without -addr
	addr string   // fixed after the first boot
	base string
	cmd  *exec.Cmd
}

// startProc boots bin on addr, reads the bound address off its first
// stderr line and waits for /healthz. Failures come back as errors, not
// test failures: restart calls it from a replay goroutine, where
// t.Fatal is not allowed, and retries.
func startProc(bin, addr string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	type firstLine struct {
		line string
		err  error
	}
	first := make(chan firstLine, 1)
	go func() {
		br := bufio.NewReader(stderr)
		line, err := br.ReadString('\n')
		first <- firstLine{line, err}
		io.Copy(io.Discard, br) // never let the child block on stderr
	}()
	var line string
	select {
	case fl := <-first:
		if fl.err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("no listen line from %s: %w", filepath.Base(bin), fl.err)
		}
		line = fl.line
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("timed out waiting for %s to report its address", filepath.Base(bin))
	}
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("unexpected first stderr line %q", line)
	}
	p := &proc{
		bin:  bin,
		args: args,
		addr: strings.TrimSpace(line[i+len(marker):]),
		cmd:  cmd,
	}
	p.base = "http://" + p.addr
	if err := waitOK(p.base+"/healthz", 10*time.Second); err != nil {
		p.kill()
		return nil, fmt.Errorf("%s never became healthy: %w", p.base, err)
	}
	return p, nil
}

func (p *proc) stop(t *testing.T) {
	t.Helper()
	if p.cmd == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGINT)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
	p.cmd = nil
}

// kill is the chaos move: SIGKILL, no drain, socket torn mid-flight.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.cmd = nil
}

// restart boots the same binary back on the same address, retrying
// while the freed socket becomes bindable again.
func (p *proc) restart() error {
	var err error
	for i := 0; i < 40; i++ {
		var np *proc
		np, err = startProc(p.bin, p.addr, p.args...)
		if err == nil {
			p.cmd = np.cmd
			return nil
		}
		time.Sleep(250 * time.Millisecond)
	}
	return fmt.Errorf("restart at %s: %w", p.addr, err)
}

func waitOK(url string, timeout time.Duration) error {
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

// startPeers boots n cache-on predictd peers, each with a queue deep
// enough to keep the closed-loop replay inside admission (shedding is
// serve-smoke's subject) and with any further flags in args, and stops
// them when the test ends.
func startPeers(t *testing.T, bin string, n int, args ...string) []*proc {
	t.Helper()
	peers := make([]*proc, n)
	for i := range peers {
		p, err := startProc(bin, "127.0.0.1:0", append([]string{"-queue", "64"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.stop(t) })
		peers[i] = p
	}
	return peers
}

// soloBaseline replays cfg against one predictd. Its tableau is the
// byte-identity reference every cluster response must match.
func soloBaseline(t *testing.T, bin string, cfg loadgen.Config) loadgen.Result {
	t.Helper()
	solo, err := startProc(bin, "127.0.0.1:0", "-queue", "64")
	if err != nil {
		t.Fatal(err)
	}
	cfg.BaseURL = solo.base
	res, err := loadgen.Run(cfg)
	solo.stop(t)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.NonOK != 0 || res.Mismatches != 0 {
		t.Fatalf("baseline leg unclean: %d transport errors, %d non-200s, %d mismatches",
			res.Errors, res.NonOK, res.Mismatches)
	}
	return res
}

// requireClean fails the test on any transport error, failed (non-200,
// non-shed) response or byte mismatch in a replay leg.
func requireClean(t *testing.T, leg string, res loadgen.Result) {
	t.Helper()
	if res.Errors != 0 {
		t.Fatalf("%s: %d transport errors", leg, res.Errors)
	}
	if failed := res.NonOK - res.Sheds; failed != 0 {
		t.Fatalf("%s: %d failed responses (non-200, non-shed) of %d", leg, failed, res.Requests)
	}
	if res.Mismatches != 0 {
		t.Fatalf("%s: %d responses differed from the single-process baseline", leg, res.Mismatches)
	}
}

func build(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// routerPeerView reads the router's /statsz entry for one peer.
func routerPeerView(t *testing.T, routerBase, peerBase string) (state string, probeFails, forwardErrs int64) {
	t.Helper()
	resp, err := http.Get(routerBase + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Failovers int64 `json:"failovers"`
		Peers     []struct {
			Name        string `json:"name"`
			State       string `json:"state"`
			ProbeFails  int64  `json:"probe_fails"`
			ForwardErrs int64  `json:"forward_errors"`
		} `json:"peers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, p := range st.Peers {
		if p.Name == peerBase {
			return p.State, p.ProbeFails, p.ForwardErrs + st.Failovers
		}
	}
	t.Fatalf("peer %s missing from router statsz", peerBase)
	return "", 0, 0
}

func TestPredictrouterClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	dir := t.TempDir()
	routerBin := build(t, dir, "predictrouter.bin", ".")
	predictdBin := build(t, dir, "predictd.bin", "loggpsim/cmd/predictd")

	const (
		universe = 32
		requests = 600
		seed     = 1
		skew     = 1.3
		clients  = 4
	)
	baseline := soloBaseline(t, predictdBin, loadgen.Config{
		Universe: universe, Skew: skew, Seed: seed,
		Clients: clients, Requests: requests,
	})

	// Three peers behind the router, probed at test cadence.
	peers := startPeers(t, predictdBin, 3)
	var urls []string
	for _, p := range peers {
		urls = append(urls, p.base)
	}
	router, err := startProc(routerBin, "127.0.0.1:0",
		"-peers", strings.Join(urls, ","),
		"-probe-interval", "50ms",
		"-backoff-base", "50ms",
		"-backoff-max", "500ms",
	)
	if err != nil {
		t.Fatal(err)
	}
	defer router.stop(t)
	if err := waitOK(router.base+"/readyz", 10*time.Second); err != nil {
		t.Fatalf("router never became ready: %v", err)
	}

	// Undisturbed replay: each key has one owner, so the cluster keeps
	// the single process's hit rate and answers.
	calm, err := loadgen.Run(loadgen.Config{
		BaseURL: router.base, Universe: universe, Skew: skew, Seed: seed,
		Clients: clients, Requests: requests,
		Reference: baseline.Reference,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, "undisturbed leg", calm)
	if calm.HitRate < 0.9 {
		t.Fatalf("undisturbed leg: hit rate %.3f below 0.9", calm.HitRate)
	}

	// Chaos replay: SIGKILL peer 0 at the halfway mark, restart it on
	// the same address at three quarters, keep the requests flowing.
	victim := peers[0]
	res, err := loadgen.Run(loadgen.Config{
		BaseURL: router.base, Universe: universe, Skew: skew, Seed: seed,
		Clients: clients, Requests: requests,
		Reference: baseline.Reference,
		RetryCap:  100 * time.Millisecond,
		OnIssue: func(i int) {
			switch i {
			case requests / 2:
				victim.kill()
			case requests - requests/4:
				go func() {
					if err := victim.restart(); err != nil {
						t.Error(err)
					}
				}()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The headline: no transport errors, no failed responses (every
	// non-200 is a deliberate shed), every 200 byte-identical to the
	// single-process baseline.
	requireClean(t, "chaos leg", res)
	if res.HitRate == 0 {
		t.Fatal("cluster served no cache hits on a Zipf replay")
	}

	// The kill must have been visible to the router — a failed probe, a
	// failed forward, or a failover — or the chaos proved nothing.
	_, probeFails, forwardErrs := routerPeerView(t, router.base, victim.base)
	if probeFails+forwardErrs == 0 {
		t.Fatal("router never observed the killed peer: chaos window missed")
	}

	// And the restarted peer probes back to healthy.
	deadline := time.Now().Add(15 * time.Second)
	for {
		state, _, _ := routerPeerView(t, router.base, victim.base)
		if state == "healthy" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed peer stuck in state %q after restart", state)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestPredictrouterResize grows a live 2-peer cluster to 3 and then
// drains and removes the original first peer, all through the router's
// admin API while the replay keeps flowing. The chaos bar holds
// throughout and in a verification replay against the settled ring,
// which must hit at ≥ 0.9. The router must report cache entries moved
// by the handoff and none lost, and the final epoch must be exactly 3:
// the join and the drain each swap the ring once, the remove does not.
func TestPredictrouterResize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	dir := t.TempDir()
	routerBin := build(t, dir, "predictrouter.bin", ".")
	predictdBin := build(t, dir, "predictd.bin", "loggpsim/cmd/predictd")

	const (
		universe   = 64
		requests   = 1600
		seed       = 1
		skew       = 1.3
		clients    = 8
		adminToken = "resize-smoke"
	)
	// Membership changes at fixed replay positions: peer 2 joins, then
	// peer 0 drains (streaming its cache to the new owners) and goes.
	events := []struct {
		at     int
		action string
		peer   int
	}{
		{400, "join", 2},
		{800, "drain", 0},
		{1200, "remove", 0},
	}
	cfg := loadgen.Config{
		Universe: universe, Skew: skew, Seed: seed,
		Clients: clients, Requests: requests,
	}
	baseline := soloBaseline(t, predictdBin, cfg)

	// Peer 2 boots with the others so it is ready when its cue comes;
	// the router starts with peers 0 and 1 only.
	peers := startPeers(t, predictdBin, 3)
	router, err := startProc(routerBin, "127.0.0.1:0",
		"-peers", peers[0].base+","+peers[1].base,
		"-probe-interval", "100ms",
		"-backoff-base", "100ms",
		"-backoff-max", "1s",
		"-admin-token", adminToken,
	)
	if err != nil {
		t.Fatal(err)
	}
	defer router.stop(t)
	if err := waitOK(router.base+"/readyz", 10*time.Second); err != nil {
		t.Fatalf("router never became ready: %v", err)
	}

	// Each change fires on its own goroutine so the load keeps flowing
	// while the router swaps rings and streams caches: that concurrency
	// is what is under test.
	var admin sync.WaitGroup
	cfg.BaseURL = router.base
	cfg.Reference = baseline.Reference
	cfg.OnIssue = func(i int) {
		for _, ev := range events {
			if ev.at != i {
				continue
			}
			admin.Add(1)
			go func() {
				defer admin.Done()
				if err := adminCall(router.base, adminToken, ev.action, peers[ev.peer].base); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	res, err := loadgen.Run(cfg)
	admin.Wait()
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, "resize leg", res)

	// Verification replay against the settled cluster.
	cfg.OnIssue = nil
	cfg.Reference = res.Reference
	verify, err := loadgen.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, "verification leg", verify)
	if verify.HitRate < 0.9 {
		t.Fatalf("verification leg: hit rate %.3f below 0.9", verify.HitRate)
	}
	st := readRouterStats(t, router.base)
	if st.Epoch != 3 {
		t.Fatalf("final epoch %d, want 3 (1 + one join + one drain)", st.Epoch)
	}
	// At this size the replay itself refills the new owners before the
	// verification leg, so the hit rate alone would pass a handoff that
	// moved nothing; the router's own accounting cannot.
	if st.HandoffMoved == 0 || st.HandoffFailed != 0 {
		t.Fatalf("handoff moved %d entries and lost %d, want some moved and none lost",
			st.HandoffMoved, st.HandoffFailed)
	}
	t.Logf("resize leg: %d requests, %d sheds | verification hit rate %.3f | handoff moved %d",
		res.Requests, res.Sheds, verify.HitRate, st.HandoffMoved)
}

// adminCall drives one membership change through the router's admin
// API. A remove may race the drain it depends on, so 409s retry
// briefly: the router answers 409 until the peer is drained.
func adminCall(routerBase, token, action, peerURL string) error {
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
		req.Header.Set("X-Admin-Token", token)
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

// routerStats is the part of the router's /statsz a resize is judged
// by: the membership epoch and the cache handoff's accounting.
type routerStats struct {
	Epoch         uint64 `json:"epoch"`
	HandoffMoved  int64  `json:"handoff_moved"`
	HandoffFailed int64  `json:"handoff_failed"`
}

func readRouterStats(t *testing.T, routerBase string) routerStats {
	t.Helper()
	resp, err := http.Get(routerBase + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st routerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// corpusLine is one line of the serve golden corpus
// (internal/serve/testdata/golden.jsonl): a canonical request and the
// SHA-256 of its 200 body. internal/serve's TestGoldenCorpus drives the
// same file in process and regenerates it under -update.
type corpusLine struct {
	Request json.RawMessage `json:"request"`
	SHA256  string          `json:"sha256"`
}

func readCorpus(t *testing.T) []corpusLine {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "serve", "testdata", "golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var out []corpusLine
	for i, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var c corpusLine
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatalf("golden.jsonl line %d: %v", i+1, err)
		}
		out = append(out, c)
	}
	return out
}

// TestPredictrouterGoldenCorpus drives the serve golden corpus through
// predictrouter in front of three predictd peers: every answer must be
// a 200 whose body hashes to its entry, exactly as in one process.
func TestPredictrouterGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	corpus := readCorpus(t)
	dir := t.TempDir()
	routerBin := build(t, dir, "predictrouter.bin", ".")
	predictdBin := build(t, dir, "predictd.bin", "loggpsim/cmd/predictd")
	// A deadline generous enough that no answer degrades on a slow run.
	peers := startPeers(t, predictdBin, 3, "-deadline", "5m", "-max-deadline", "5m")
	var urls []string
	for _, p := range peers {
		urls = append(urls, p.base)
	}
	router, err := startProc(routerBin, "127.0.0.1:0", "-peers", strings.Join(urls, ","))
	if err != nil {
		t.Fatal(err)
	}
	defer router.stop(t)
	if err := waitOK(router.base+"/readyz", 10*time.Second); err != nil {
		t.Fatalf("router never became ready: %v", err)
	}
	for i, c := range corpus {
		resp, err := http.Post(router.base+"/predict", "application/json", bytes.NewReader(c.Request))
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		sum := sha256.Sum256(body)
		if resp.StatusCode != http.StatusOK || hex.EncodeToString(sum[:]) != c.SHA256 {
			t.Errorf("line %d %s: status %d, body hash moved", i+1, c.Request, resp.StatusCode)
		}
	}
}

// TestPredictrouterRejectsBadFlags keeps startup failures honest: a
// missing -peers must exit non-zero with a diagnostic, not hang, and
// the removed hedging and load-gossip flags must be refused rather
// than silently accepted.
func TestPredictrouterRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := build(t, t.TempDir(), "predictrouter.bin", ".")
	out, err := exec.Command(bin, "-addr", "127.0.0.1:0").CombinedOutput()
	if err == nil {
		t.Fatalf("missing -peers exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "predictrouter:") {
		t.Fatalf("no diagnostic on stderr:\n%s", out)
	}
	for _, flag := range [][]string{{"-gossip-interval", "1s"}, {"-shed-load", "0.9"}, {"-hedge-off"}} {
		args := append([]string{"-addr", "127.0.0.1:0", "-peers", "http://127.0.0.1:1"}, flag...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "flag provided but not defined") {
			t.Fatalf("%s accepted (err %v):\n%s", flag[0], err, out)
		}
	}
}
