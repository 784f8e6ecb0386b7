package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"loggpsim/internal/serve"
)

// fakePeer is a controllable predictd stand-in bound to a fixed
// address, so tests can kill it and bring it back on the same port —
// exactly what the router sees when an operator restarts a peer.
type fakePeer struct {
	t       *testing.T
	addr    string
	handler atomic.Value // http.HandlerFunc for /predict
	ready   atomic.Bool
	hits    atomic.Int64

	srv atomic.Pointer[http.Server]
}

func newFakePeer(t *testing.T) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fp := &fakePeer{t: t, addr: ln.Addr().String()}
	fp.ready.Store(true)
	fp.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"mode":"simulate","served_by":%q}`, fp.addr)
	}))
	fp.start(ln)
	t.Cleanup(fp.stop)
	return fp
}

func (fp *fakePeer) url() string { return "http://" + fp.addr }

func (fp *fakePeer) start(ln net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		fp.hits.Add(1)
		fp.handler.Load().(http.HandlerFunc)(w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !fp.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	srv := &http.Server{Handler: mux}
	fp.srv.Store(srv)
	go func() { _ = srv.Serve(ln) }()
}

func (fp *fakePeer) stop() {
	if srv := fp.srv.Swap(nil); srv != nil {
		_ = srv.Close()
	}
}

// restart rebinds the same address (retrying briefly — the old socket
// may take a moment to release) and serves again.
func (fp *fakePeer) restart() {
	fp.t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 200; i++ {
		ln, err = net.Listen("tcp", fp.addr)
		if err == nil {
			fp.start(ln)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	fp.t.Fatalf("rebinding %s: %v", fp.addr, err)
}

// newTestRouter builds and starts a router over the fakes with
// test-speed probe timings (overridable via cfg).
func newTestRouter(t *testing.T, cfg Config, peers ...*fakePeer) *Router {
	t.Helper()
	rt := newIdleRouter(t, cfg, peers...)
	rt.Start()
	t.Cleanup(rt.Close)
	return rt
}

// newIdleRouter builds a router over the fakes without starting its
// probe loops: every peer stays Unknown, routing follows ring order,
// and only forwards move a peer's health state.
func newIdleRouter(t *testing.T, cfg Config, peers ...*fakePeer) *Router {
	t.Helper()
	for _, fp := range peers {
		cfg.Peers = append(cfg.Peers, fp.url())
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 10 * time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 50 * time.Millisecond
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func waitState(t *testing.T, rt *Router, name string, want State) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if rt.byName[name].currentState() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("peer %s never reached %v (stuck at %v)", name, want, rt.byName[name].currentState())
}

func simRequest(seed int) serve.Request {
	return serve.Request{
		Mode:     serve.ModeSimulate,
		Workload: serve.Workload{Kind: serve.KindGE, Procs: 4, N: 96, Block: 8},
		Seed:     int64(seed),
	}
}

func marshalReq(t *testing.T, r serve.Request) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// bodyOwnedBy hunts for a request whose canonical key's primary ring
// owner is the given peer — seeds vary the key, the ring spreads them.
func bodyOwnedBy(t *testing.T, rt *Router, owner string) []byte {
	t.Helper()
	for seed := 0; seed < 4000; seed++ {
		r := simRequest(seed)
		key, err := serve.CanonicalKey(&r)
		if err != nil {
			t.Fatal(err)
		}
		if rt.ringNow().Owner(key[:]) == owner {
			return marshalReq(t, r)
		}
	}
	t.Fatalf("no request owned by %s in 4000 seeds", owner)
	return nil
}

func post(rt *Router, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(string(body)))
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	return w
}

func TestNewRouterRejectsEmptyPeerSet(t *testing.T) {
	if _, err := NewRouter(Config{}); err == nil {
		t.Fatal("empty peer set accepted")
	}
}

func TestRoutingAgreesWithRing(t *testing.T) {
	a, b, c := newFakePeer(t), newFakePeer(t), newFakePeer(t)
	rt := newTestRouter(t, Config{}, a, b, c)
	// Healthy peers route ahead of unknown ones, so every peer must have
	// probed healthy before ring order alone decides.
	for _, fp := range []*fakePeer{a, b, c} {
		waitState(t, rt, normalizePeer(fp.url()), StateHealthy)
	}

	const n = 30
	for round := 0; round < 2; round++ {
		for seed := 0; seed < n; seed++ {
			r := simRequest(seed)
			key, err := serve.CanonicalKey(&r)
			if err != nil {
				t.Fatal(err)
			}
			w := post(rt, marshalReq(t, r))
			if w.Code != http.StatusOK {
				t.Fatalf("seed %d: status %d: %s", seed, w.Code, w.Body.String())
			}
			if got, want := w.Header().Get("X-Peer"), rt.ringNow().Owner(key[:]); got != want {
				t.Fatalf("seed %d served by %s, ring owner is %s", seed, got, want)
			}
		}
	}
	st := rt.Stats()
	if st.OwnerHits != 2*n {
		t.Errorf("owner hits %d, want %d — every request should land on its owner", st.OwnerHits, 2*n)
	}
	if st.Forwards != 2*n {
		t.Errorf("forwards %d, want %d — no failovers expected", st.Forwards, 2*n)
	}
}

func TestFailoverOnDeadPeer(t *testing.T) {
	a, b, c := newFakePeer(t), newFakePeer(t), newFakePeer(t)
	// An idle router keeps every peer Unknown, so the dead peer is
	// discovered by the forward itself, not a probe.
	rt := newIdleRouter(t, Config{FailThreshold: 1}, a, b, c)

	dead := normalizePeer(a.url())
	body := bodyOwnedBy(t, rt, dead)
	a.stop()

	w := post(rt, body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d with a live successor: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Peer"); got == dead {
		t.Fatalf("served by the dead peer %s", got)
	}
	if st := rt.Stats(); st.Failovers < 1 {
		t.Errorf("failovers %d, want ≥ 1", st.Failovers)
	}

	// FailThreshold 1: the failed forward alone demoted the peer to
	// Down, so the next request skips it without burning a failover.
	if got := rt.byName[dead].currentState(); got != StateDown {
		t.Fatalf("dead peer state %v, want down", got)
	}
	before := rt.Stats().Failovers
	w = post(rt, body)
	if w.Code != http.StatusOK {
		t.Fatalf("second request: status %d", w.Code)
	}
	if st := rt.Stats(); st.Failovers != before {
		t.Errorf("failovers grew %d → %d routing around a known-down peer", before, st.Failovers)
	}
}

func TestRetryableStatusFailsOver(t *testing.T) {
	a, b, c := newFakePeer(t), newFakePeer(t), newFakePeer(t)
	rt := newIdleRouter(t, Config{}, a, b, c) // ring order: the owner goes first

	owner := normalizePeer(a.url())
	body := bodyOwnedBy(t, rt, owner)
	a.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server at capacity", http.StatusTooManyRequests)
	}))

	w := post(rt, body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 from a successor: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Peer"); got == owner {
		t.Fatalf("served by the shedding owner %s", got)
	}
	if st := rt.Stats(); st.Failovers < 1 {
		t.Errorf("failovers %d, want ≥ 1", st.Failovers)
	}
}

func TestExhaustedRetryablesRelayTheLastResponse(t *testing.T) {
	a, b := newFakePeer(t), newFakePeer(t)
	rt := newTestRouter(t, Config{}, a, b)
	shed := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server at capacity", http.StatusTooManyRequests)
	})
	a.handler.Store(shed)
	b.handler.Store(shed)

	w := post(rt, marshalReq(t, simRequest(1)))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the peers' own 429 relayed", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("Retry-After not passed through")
	}
}

func TestClientErrorNeverRetries(t *testing.T) {
	a, b, c := newFakePeer(t), newFakePeer(t), newFakePeer(t)
	rt := newIdleRouter(t, Config{}, a, b, c) // ring order: the owner goes first

	owner := normalizePeer(a.url())
	body := bodyOwnedBy(t, rt, owner)
	a.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprint(w, `{"error":"prediction failed: deliberate"}`)
	}))

	w := post(rt, body)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want the owner's 422 relayed", w.Code)
	}
	if got := w.Header().Get("X-Peer"); got != owner {
		t.Fatalf("served by %s, want the owner %s", got, owner)
	}
	if body := w.Body.String(); !strings.Contains(body, "deliberate") {
		t.Errorf("peer body not relayed verbatim: %s", body)
	}
	if st := rt.Stats(); st.Failovers != 0 {
		t.Errorf("failovers %d on a non-retryable status", st.Failovers)
	}
}

func TestRouterOwnsAdmission(t *testing.T) {
	a := newFakePeer(t)
	rt := newTestRouter(t, Config{}, a)

	get := httptest.NewRequest(http.MethodGet, "/predict", nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, get)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", w.Code)
	}
	if w := post(rt, []byte("{not json")); w.Code != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", w.Code)
	}
	if w := post(rt, []byte(`{"mode":"simulate","typo_field":1}`)); w.Code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", w.Code)
	}
	if w := post(rt, []byte(`{"mode":"simulate","workload":{"kind":"ge","procs":1000000,"n":96,"block":8}}`)); w.Code != http.StatusBadRequest {
		t.Errorf("over-limit procs: status %d, want 400", w.Code)
	}
	// A valid request with data behind it dies here too: the router
	// forwards whole bodies, so a peer would otherwise receive the tail.
	valid := `{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8}}`
	for _, tail := range []string{`garbage`, `{"mode":"bogus"}`, `]`} {
		if w := post(rt, []byte(valid+tail)); w.Code != http.StatusBadRequest {
			t.Errorf("trailing %s: status %d, want 400", tail, w.Code)
		}
	}
	if a.hits.Load() != 0 {
		t.Errorf("rejected requests reached a peer %d times", a.hits.Load())
	}
	if st := rt.Stats(); st.Rejected != 7 {
		t.Errorf("rejected %d, want 7", st.Rejected)
	}
}

// With no second leg in flight, ForwardTimeout is the only bound on a
// stalled owner: its expiry must fail over to the successor and count
// against the owner — unlike a client cancellation, which never does
// (TestClientCancelIsNotAPeerFailure).
func TestStalledOwnerFailsOverAfterForwardTimeout(t *testing.T) {
	a, b, c := newFakePeer(t), newFakePeer(t), newFakePeer(t)
	rt := newIdleRouter(t, Config{ForwardTimeout: 50 * time.Millisecond}, a, b, c)

	owner := normalizePeer(a.url())
	body := bodyOwnedBy(t, rt, owner)
	a.handler.Store(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // stall until the router gives up on the leg
	}))

	w := post(rt, body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 from a successor: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Peer"); got == owner {
		t.Fatalf("served by the stalled owner %s", got)
	}
	st := rt.Stats()
	if st.Failovers != 1 {
		t.Errorf("failovers %d, want 1", st.Failovers)
	}
	for _, ps := range st.Peers {
		if ps.Name == owner && ps.ForwardErrs != 1 {
			t.Errorf("stalled owner forward errors %d, want 1", ps.ForwardErrs)
		}
	}
}

func TestDrainingPeerIsSkipped(t *testing.T) {
	a, b, c := newFakePeer(t), newFakePeer(t), newFakePeer(t)
	rt := newTestRouter(t, Config{}, a, b, c)

	owner := normalizePeer(a.url())
	a.ready.Store(false)
	waitState(t, rt, owner, StateDraining)

	body := bodyOwnedBy(t, rt, owner)
	w := post(rt, body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Peer"); got == owner {
		t.Fatalf("request sent to the draining owner %s", got)
	}
	if st := rt.Stats(); st.Failovers != 0 {
		t.Errorf("failovers %d — skipping a draining peer is not a failover", st.Failovers)
	}

	a.ready.Store(true)
	waitState(t, rt, owner, StateHealthy)
	if got := post(rt, body).Header().Get("X-Peer"); got != owner {
		t.Fatalf("after undrain, served by %s, want the owner %s", got, owner)
	}
}

func TestDownPeerRecoversAfterRestart(t *testing.T) {
	a, b := newFakePeer(t), newFakePeer(t)
	rt := newTestRouter(t, Config{}, a, b)
	name := normalizePeer(a.url())
	waitState(t, rt, name, StateHealthy)

	a.stop()
	waitState(t, rt, name, StateDown)

	a.restart()
	waitState(t, rt, name, StateHealthy)

	body := bodyOwnedBy(t, rt, name)
	if got := post(rt, body).Header().Get("X-Peer"); got != name {
		t.Fatalf("after recovery, served by %s, want the restarted owner %s", got, name)
	}
}

func TestReadyzRequiresAHealthyPeer(t *testing.T) {
	a := newFakePeer(t)
	a.ready.Store(false)
	rt := newTestRouter(t, Config{}, a)

	get := func() int {
		req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, req)
		return w.Code
	}
	if code := get(); code != http.StatusServiceUnavailable {
		t.Errorf("readyz %d with no healthy peer, want 503", code)
	}
	a.ready.Store(true)
	waitState(t, rt, normalizePeer(a.url()), StateHealthy)
	if code := get(); code != http.StatusOK {
		t.Errorf("readyz %d with a healthy peer, want 200", code)
	}
}

func TestStatszSnapshot(t *testing.T) {
	a, b := newFakePeer(t), newFakePeer(t)
	rt := newTestRouter(t, Config{}, a, b)
	waitState(t, rt, normalizePeer(a.url()), StateHealthy)
	waitState(t, rt, normalizePeer(b.url()), StateHealthy)
	if w := post(rt, marshalReq(t, simRequest(1))); w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/statsz", nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("statsz not JSON: %v", err)
	}
	if st.Requests != 1 || st.Completed != 1 {
		t.Errorf("requests %d completed %d, want 1 each", st.Requests, st.Completed)
	}
	if len(st.Peers) != 2 {
		t.Fatalf("%d peer blocks, want 2", len(st.Peers))
	}
	for _, ps := range st.Peers {
		if ps.State != "healthy" {
			t.Errorf("peer %s state %q, want healthy", ps.Name, ps.State)
		}
		if ps.Probes < 1 {
			t.Errorf("peer %s: no probes recorded", ps.Name)
		}
	}
}

// The reprobe schedule must be a pure function — same inputs, same
// delays — bounded by [0.75·nominal, max], and non-degenerate across
// peers (the stagger exists so co-dying peers do not reprobe in
// lockstep).
func TestRetryDelaySchedule(t *testing.T) {
	const base, max = 100 * time.Millisecond, 2 * time.Second
	for attempt := 0; attempt < 10; attempt++ {
		d1 := retryDelay("http://peer-a:1", attempt, base, max)
		d2 := retryDelay("http://peer-a:1", attempt, base, max)
		if d1 != d2 {
			t.Fatalf("attempt %d: schedule not deterministic (%v vs %v)", attempt, d1, d2)
		}
		nominal := base << uint(attempt)
		if nominal > max || nominal <= 0 {
			nominal = max
		}
		if d1 < 3*nominal/4 || d1 > max {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d1, 3*nominal/4, max)
		}
	}
	differ := false
	for attempt := 0; attempt < 10 && !differ; attempt++ {
		differ = retryDelay("http://peer-a:1", attempt, base, max) != retryDelay("http://peer-b:1", attempt, base, max)
	}
	if !differ {
		t.Error("two peers share the entire reprobe schedule — stagger is dead")
	}
}

// Responses relayed through the router must be byte-identical to what
// the peer sent — the cluster's correctness bar is byte-identity with
// a single predictd process, and the router must not perturb bodies.
func TestRelayIsByteIdentical(t *testing.T) {
	a := newFakePeer(t)
	const payload = `{"mode":"simulate","prediction":{"total_micros":123.456}}` + "\n"
	a.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		if _, err := io.WriteString(w, payload); err != nil {
			t.Error(err)
		}
	}))
	rt := newTestRouter(t, Config{}, a)

	w := post(rt, marshalReq(t, simRequest(7)))
	if w.Body.String() != payload {
		t.Errorf("body perturbed in relay:\n got %q\nwant %q", w.Body.String(), payload)
	}
	if got := w.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("X-Cache %q not passed through", got)
	}
}

// The router relays the peer's Server-Timing and appends its own
// router;dur= entry, leaving the body byte-equal to the peer's.
func TestRelayAppendsRouterTiming(t *testing.T) {
	a := newFakePeer(t)
	const payload = `{"mode":"simulate","prediction":{"total_us":123.456}}` + "\n"
	a.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Server-Timing", "total;dur=0.125")
		if _, err := io.WriteString(w, payload); err != nil {
			t.Error(err)
		}
	}))
	rt := newTestRouter(t, Config{}, a)

	w := post(rt, marshalReq(t, simRequest(7)))
	if w.Code != http.StatusOK || w.Body.String() != payload {
		t.Fatalf("relay: status %d body %q, want 200 %q", w.Code, w.Body.String(), payload)
	}
	entries := strings.Split(w.Header().Get("Server-Timing"), ", ")
	if len(entries) != 2 || entries[0] != "total;dur=0.125" {
		t.Fatalf("Server-Timing %q, want the peer's total;dur=0.125 then the router's entry", w.Header().Get("Server-Timing"))
	}
	dur, ok := strings.CutPrefix(entries[1], "router;dur=")
	if !ok {
		t.Fatalf("router entry %q, want router;dur=<ms>", entries[1])
	}
	if ms, err := strconv.ParseFloat(dur, 64); err != nil || ms < 0 {
		t.Fatalf("router entry %q: duration not a non-negative number (%v)", entries[1], err)
	}
}

// A peer answer longer than MaxResponseBytes must not be relayed cut
// short as a success: the router answers 502 naming the cap. It does
// not fail over — every peer computes the same bytes for a valid
// request — and does not demote the peer, which did answer. An answer
// of exactly the cap is relayed whole.
func TestOversizedPeerResponseIsABadGateway(t *testing.T) {
	a, b := newFakePeer(t), newFakePeer(t)
	const limit = 64
	rt := newIdleRouter(t, Config{MaxResponseBytes: limit}, a, b)
	owner := normalizePeer(a.url())
	body := bodyOwnedBy(t, rt, owner)
	var payload atomic.Value
	payload.Store(strings.Repeat("x", limit))
	answer := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if _, err := io.WriteString(w, payload.Load().(string)); err != nil {
			t.Error(err)
		}
	})
	a.handler.Store(answer)
	b.handler.Store(answer)

	if w := post(rt, body); w.Code != http.StatusOK || w.Body.Len() != limit {
		t.Fatalf("answer of exactly the cap: status %d body %q", w.Code, w.Body.String())
	}

	payload.Store(strings.Repeat("x", 228))
	w := post(rt, body)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 for an oversized answer: %q", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "64 bytes") {
		t.Errorf("502 body does not name the cap: %s", w.Body.String())
	}
	if b.hits.Load() != 0 {
		t.Errorf("successor reached %d times; an oversized answer must not fail over", b.hits.Load())
	}
	st := rt.Stats()
	if st.Failovers != 0 {
		t.Errorf("failovers %d, want 0", st.Failovers)
	}
	for _, ps := range st.Peers {
		if ps.ForwardErrs != 0 {
			t.Errorf("peer %s charged %d forward errors for answering", ps.Name, ps.ForwardErrs)
		}
	}
	if got := rt.byName[owner].currentState(); got != StateHealthy {
		t.Errorf("owner state %v after an oversized answer, want healthy", got)
	}
}
