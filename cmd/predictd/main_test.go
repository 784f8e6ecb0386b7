package main

// Scripted end-to-end tests of the real daemon: build the binary, boot
// it on an ephemeral port, and drive it from the outside. The
// robustness contract — healthy predictions, input rejection, oversized
// bodies, deadline and budget degradation to bound certificates,
// overload shedding, and a SIGTERM drain that exits 0 — is `make
// serve-smoke`; the result cache's worth under a Zipf replay is `make
// loadtest-smoke`.

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

func buildBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "predictd.bin")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemon boots the binary on an ephemeral port and returns its base
// URL, the running command, and a channel closed once stderr hits EOF
// (receive from it before cmd.Wait so no trailing output is lost).
// Stderr accumulates in errBuf.
func daemon(t *testing.T, bin string, errBuf *syncBuffer, args ...string) (string, *exec.Cmd, <-chan struct{}) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The first stderr line announces the bound address.
	br := bufio.NewReader(io.TeeReader(stderr, errBuf))
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("no listen line from predictd: %v (stderr so far: %s)", err, errBuf.String())
	}
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected first stderr line %q", line)
	}
	addr := strings.TrimSpace(line[i+len(marker):])
	stderrDone := make(chan struct{})
	go func() { // keep draining into errBuf via the tee
		defer close(stderrDone)
		io.Copy(io.Discard, br)
	}()
	return "http://" + addr, cmd, stderrDone
}

// syncBuffer is a bytes.Buffer safe for the tee goroutine + test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// postJSON fires one request and decodes the JSON answer. Failures are
// reported with Errorf, not Fatalf — it runs from helper goroutines in
// the overload and drain phases.
func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST %s: %v", url, err)
		return 0, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read response: %v", err)
		return resp.StatusCode, nil
	}
	var m map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Errorf("bad body %q: %v", raw, err)
			return resp.StatusCode, nil
		}
	}
	return resp.StatusCode, m
}

func TestPredictdEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBinary(t, t.TempDir())
	var errBuf syncBuffer
	base, cmd, stderrDone := daemon(t, bin, &errBuf,
		"-workers", "1", "-queue", "0", "-drain-grace", "100ms")
	defer cmd.Process.Kill()

	// Liveness and readiness are up.
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + ep)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %v (status %v)", ep, err, resp)
		}
		resp.Body.Close()
	}

	// A healthy prediction round-trips.
	code, m := postJSON(t, base, `{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8}}`)
	if code != http.StatusOK || m["prediction"] == nil || m["degraded"] != false {
		t.Fatalf("healthy predict: status %d body %v", code, m)
	}

	// Repeating it is answered from the result cache with the same
	// prediction; /statsz shows the hit.
	code, m2 := postJSON(t, base, `{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8}}`)
	if code != http.StatusOK {
		t.Fatalf("repeat predict: status %d body %v", code, m2)
	}
	if p1, p2 := m["prediction"], m2["prediction"]; !jsonEqual(p1, p2) {
		t.Fatalf("cached prediction drifted: %v vs %v", p1, p2)
	}
	if hits := cacheHits(t, base); hits < 1 {
		t.Fatalf("statsz reports %d cache hits after a repeat request", hits)
	}

	// Malformed input is a 400 with an error body, not a hang or a 500.
	if code, m = postJSON(t, base, `{"workload":{"kind":"ge","procs":4,"n":96,"block":7}}`); code != http.StatusBadRequest || m["error"] == "" {
		t.Fatalf("malformed predict: status %d body %v", code, m)
	}

	// An oversized body bounces with 413 before any decoding.
	big := `{"faults":"` + strings.Repeat("x", 2<<20) + `"}`
	if code, _ = postJSON(t, base, big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", code)
	}

	// A deadline the simulation cannot meet degrades to the bound
	// certificate — 200, degraded:true, bounds present.
	code, m = postJSON(t, base,
		`{"mode":"simulate","workload":{"kind":"ge","procs":8,"n":960,"block":8},"deadline_ms":1}`)
	if code != http.StatusOK || m["degraded"] != true || m["degrade_reason"] != "deadline" || m["bounds"] == nil {
		t.Fatalf("deadline degrade: status %d body %v", code, m)
	}

	// An envelope pays per lane: 256 samples of the paper's GE program
	// price at 257 times its 6.63e6-unit replay, far over the default
	// budget, so it answers the certificate at once instead of holding
	// the worker until its deadline.
	start := time.Now()
	code, m = postJSON(t, base,
		`{"mode":"envelope","workload":{"kind":"ge","procs":8,"n":960,"block":8},"samples":256}`)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("over-budget envelope took %v to degrade", took)
	}
	if code != http.StatusOK || m["degraded"] != true || m["degrade_reason"] != "budget" || m["bounds"] == nil {
		t.Fatalf("budget degrade: status %d body %v", code, m)
	}

	// Overload: pin the single worker with a slow request, then watch
	// the next one shed with 429. The slow request's own deadline keeps
	// the test bounded; its budget admits its 65 lanes (5.4e7 units).
	slow := `{"mode":"envelope","workload":{"kind":"ge","procs":8,"n":480,"block":8},"samples":64,"deadline_ms":3000,"budget":1e9}`
	done := make(chan struct{})
	go func() {
		defer close(done)
		postJSON(t, base, slow)
	}()
	waitInFlight(t, base, 3*time.Second) // the slow request holds the slot
	shed := false
	// Every probe needs a fresh seed: a repeated body would be answered
	// from the cache instead of contending for the pinned worker slot.
	probe := `{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8},"seed":%d}`
	for i, start := 0, time.Now(); time.Since(start) < 3*time.Second && !shed; i++ {
		code, _ := postJSON(t, base, fmt.Sprintf(probe, i+1))
		if code == http.StatusTooManyRequests {
			shed = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !shed {
		t.Fatal("no 429 observed while the worker was pinned")
	}
	<-done

	// Counters are visible.
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Accepted int64 `json:"accepted"`
		Shed     int64 `json:"shed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Accepted == 0 || st.Shed == 0 {
		t.Fatalf("statsz counters empty: %+v", st)
	}

	// SIGTERM: in-flight work drains (degrading past the grace), the
	// process reports the drain and exits 0.
	inflight := make(chan map[string]any, 1)
	go func() {
		_, m := postJSON(t, base,
			`{"mode":"simulate","workload":{"kind":"ge","procs":8,"n":960,"block":8},"deadline_ms":30000}`)
		inflight <- m
	}()
	// Give the request time to pass admission before the signal.
	waitInFlight(t, base, 3*time.Second)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stderrDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("predictd never closed stderr after SIGTERM; output so far:\n%s", errBuf.String())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM drain exited non-zero: %v\nstderr:\n%s", err, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "drained, exiting") {
		t.Fatalf("drain not reported on stderr:\n%s", errBuf.String())
	}
	m = <-inflight
	if m["degraded"] != true || m["bounds"] == nil {
		t.Fatalf("in-flight request not bound-downgraded during drain: %v", m)
	}
	if reason := m["degrade_reason"]; reason != "drain" && reason != "deadline" {
		t.Fatalf("drained request reason %v", reason)
	}
}

// jsonEqual compares two decoded-JSON values structurally.
func jsonEqual(a, b any) bool {
	ab, aerr := json.Marshal(a)
	bb, berr := json.Marshal(b)
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}

// cacheHits reads the result cache's hit counter from /statsz.
func cacheHits(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Cache struct {
			Hits int64 `json:"hits"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Cache.Hits
}

// waitInFlight polls /statsz until a request is in flight.
func waitInFlight(t *testing.T, base string, deadline time.Duration) {
	t.Helper()
	for start := time.Now(); time.Since(start) < deadline; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(base + "/statsz")
		if err != nil {
			continue // the server may be mid-boot or busy; keep polling
		}
		var st struct {
			InFlight int64 `json:"in_flight"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err == nil && st.InFlight > 0 {
			return
		}
	}
	t.Fatal("no request became in-flight")
}

// TestPredictdCacheReplay replays one Zipf workload (universe 64,
// s=1.3, seed 1, 8 clients) against a cache-on predictd (4000 requests)
// and a cache-off one (400) and demands what the result cache is for:
// both legs free of transport errors and byte mismatches, the cache-on
// leg answered at least 90% without evaluating, and at least 10x the
// cache-off leg's requests per second.
func TestPredictdCacheReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBinary(t, t.TempDir())
	leg := func(name string, requests int, args ...string) loadgen.Result {
		t.Helper()
		var errBuf syncBuffer
		// A deep queue keeps the closed-loop clients inside admission:
		// this measures evaluation, not shedding.
		base, cmd, _ := daemon(t, bin, &errBuf, append([]string{"-queue", "64"}, args...)...)
		defer func() {
			cmd.Process.Kill()
			cmd.Wait()
		}()
		res, err := loadgen.Run(loadgen.Config{
			BaseURL: base, Universe: 64, Skew: 1.3, Seed: 1,
			Clients: 8, Requests: requests,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 || res.Mismatches != 0 {
			t.Fatalf("%s leg: %d transport errors, %d byte mismatches", name, res.Errors, res.Mismatches)
		}
		return res
	}
	// Load from outside the test (other packages' tests under `go test
	// ./...`) only ever slows a leg, and need not slow both legs alike.
	// So each leg replays three times, alternating, against a fresh
	// process; every replay is held to the error, mismatch and hit-rate
	// floors, and the speedup compares the two legs' best rates.
	var on, off loadgen.Result
	for i := 0; i < 3; i++ {
		r := leg("cache-on", 4000)
		t.Logf("cache-on replay %d: %.0f req/s, %d misses, hit rate %.3f", i+1, r.ReqPerSec, r.Misses, r.HitRate)
		if r.HitRate < 0.9 {
			t.Errorf("cache-on hit rate %.3f below 0.9", r.HitRate)
		}
		if r.ReqPerSec > on.ReqPerSec {
			on = r
		}
		if r := leg("cache-off", 400, "-cache-off"); r.ReqPerSec > off.ReqPerSec {
			off = r
		}
	}
	speedup := on.ReqPerSec / off.ReqPerSec
	t.Logf("best of 3: cache-on %.0f req/s | cache-off %.0f req/s | speedup %.1fx",
		on.ReqPerSec, off.ReqPerSec, speedup)
	// The replay client runs in this test binary, and under -race it
	// costs several times more per request; a cache hit is little more
	// than that client work, so the ratio measures the detector rather
	// than the cache (about 10x with a race-built client, 20x without).
	if !raceEnabled && speedup < 10 {
		t.Errorf("cache-on/cache-off speedup %.1fx below 10x", speedup)
	}
}

// TestPredictdRejectsBadFlags keeps startup failures honest: a bad
// listen address must exit non-zero with a diagnostic, not hang, and
// the removed -cache-ttl flag must be refused rather than silently
// accepted.
func TestPredictdRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBinary(t, t.TempDir())
	out, err := exec.Command(bin, "-addr", "definitely:not:an:addr").CombinedOutput()
	if err == nil {
		t.Fatalf("bad -addr exited 0:\n%s", out)
	}
	if !bytes.Contains(out, []byte("predictd:")) {
		t.Fatalf("no diagnostic on stderr:\n%s", out)
	}
	out, err = exec.Command(bin, "-addr", "127.0.0.1:0", "-cache-ttl", "1m").CombinedOutput()
	if err == nil || !bytes.Contains(out, []byte("flag provided but not defined")) {
		t.Fatalf("-cache-ttl accepted (err %v):\n%s", err, out)
	}
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

// TestPredictdGoldenCorpus drives the serve golden corpus through the
// real binary: every answer must be a 200 whose body hashes to its
// entry, exactly as in process.
func TestPredictdGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	corpus := readCorpus(t)
	bin := buildBinary(t, t.TempDir())
	var errBuf syncBuffer
	// A deadline generous enough that no answer degrades on a slow run.
	base, cmd, _ := daemon(t, bin, &errBuf, "-deadline", "5m", "-max-deadline", "5m")
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	for i, c := range corpus {
		resp, err := http.Post(base+"/predict", "application/json", bytes.NewReader(c.Request))
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
