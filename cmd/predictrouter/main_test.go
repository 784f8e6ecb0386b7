package main

// Scripted end-to-end chaos test of the real router: build predictd and
// predictrouter, boot three peers behind the router, replay a Zipf
// workload through it, SIGKILL one peer mid-replay, restart it on its
// original address, and demand the robustness headline from the
// outside — zero transport errors, zero failed (non-200, non-shed)
// responses, every 200 byte-identical to what a single predictd
// answered, and the killed peer probed back to healthy.
// `make cluster-smoke` runs exactly this.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
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

func startProc(t *testing.T, bin, addr string, args ...string) (*proc, error) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(stderr)
	line, err := br.ReadString('\n')
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("no listen line from %s: %w", filepath.Base(bin), err)
	}
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("unexpected first stderr line %q", line)
	}
	go io.Copy(io.Discard, br) // never let the child block on stderr
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
func (p *proc) restart(t *testing.T) error {
	t.Helper()
	var err error
	for i := 0; i < 40; i++ {
		var np *proc
		np, err = startProc(t, p.bin, p.addr, p.args...)
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

	// Baseline: one predictd answers the whole workload; its tableau is
	// the byte-identity reference every cluster response must match.
	solo, err := startProc(t, predictdBin, "127.0.0.1:0", "-queue", "64")
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := loadgen.Run(loadgen.Config{
		BaseURL: solo.base, Universe: universe, Skew: skew, Seed: seed,
		Clients: clients, Requests: requests,
	})
	solo.stop(t)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Errors != 0 || baseline.NonOK != 0 || baseline.Mismatches != 0 {
		t.Fatalf("baseline leg unclean: %+v", baseline)
	}

	// Three peers behind the router, probed at test cadence.
	var peers []*proc
	var urls []string
	for i := 0; i < 3; i++ {
		p, err := startProc(t, predictdBin, "127.0.0.1:0", "-queue", "64")
		if err != nil {
			t.Fatal(err)
		}
		defer p.stop(t)
		peers = append(peers, p)
		urls = append(urls, p.base)
	}
	router, err := startProc(t, routerBin, "127.0.0.1:0",
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
					if err := victim.restart(t); err != nil {
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
	if res.Errors != 0 {
		t.Fatalf("chaos leg: %d transport errors", res.Errors)
	}
	if failed := res.NonOK - res.Sheds; failed != 0 {
		t.Fatalf("chaos leg: %d failed responses (non-200, non-shed) of %d", failed, res.Requests)
	}
	if res.Mismatches != 0 {
		t.Fatalf("chaos leg: %d responses differed from the single-process baseline", res.Mismatches)
	}
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
