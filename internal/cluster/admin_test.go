package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"loggpsim/internal/serve"
)

// newServePeer boots a real serve.Server — cache, handoff endpoints
// and all — behind an httptest listener. The admin flows are
// only honest against the real thing: join prewarm and drain handoff
// talk to /cache/export and /cache/import, which fakes don't have.
func newServePeer(t *testing.T) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(serve.NewServer(serve.Config{Workers: 2}).Handler())
	t.Cleanup(hs.Close)
	return hs
}

// adminPost drives one admin endpoint as a loopback caller.
func adminPost(rt *Router, path, peerURL string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(fmt.Sprintf(`{"peer":%q}`, peerURL)))
	req.RemoteAddr = "127.0.0.1:9999"
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	return w
}

// replay posts seeds [0,n) through the router, asserting every response
// is a 200 and recording its raw body and X-Cache/X-Peer headers by
// seed.
func replay(t *testing.T, rt *Router, n int) (bodies [][]byte, caches, peers []string) {
	t.Helper()
	for seed := 0; seed < n; seed++ {
		w := post(rt, marshalReq(t, simRequest(seed)))
		if w.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, w.Code, w.Body.String())
		}
		bodies = append(bodies, w.Body.Bytes())
		caches = append(caches, w.Header().Get("X-Cache"))
		peers = append(peers, w.Header().Get("X-Peer"))
	}
	return bodies, caches, peers
}

// TestAdminJoinDrainRemove is the in-process version of the resize
// smoke: a 2-peer cluster of REAL serve servers grows to 3 (epoch 2),
// drains and removes an original peer (epoch 3), and every replay in
// between is all-200, byte-identical, and — after each handoff — served
// entirely from cache. The all-hits assertions after join and drain are
// the handoff proof: without the cache moving with the ownership, the
// reassigned keys would come back as misses.
func TestAdminJoinDrainRemove(t *testing.T) {
	p1, p2, p3 := newServePeer(t), newServePeer(t), newServePeer(t)
	cfg := Config{
		Peers:         []string{p1.URL, p2.URL},
		ProbeInterval: 20 * time.Millisecond,
		BackoffBase:   10 * time.Millisecond,
		BackoffMax:    50 * time.Millisecond,
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	waitState(t, rt, normalizePeer(p1.URL), StateHealthy)
	waitState(t, rt, normalizePeer(p2.URL), StateHealthy)
	if got := rt.Epoch(); got != 1 {
		t.Fatalf("boot epoch %d, want 1", got)
	}

	const n = 40
	reference, _, _ := replay(t, rt, n) // prime: all misses, all 200
	check := func(stage string, wantAllHits bool, bannedPeer string) {
		t.Helper()
		bodies, caches, peers := replay(t, rt, n)
		for i := range bodies {
			if !bytes.Equal(reference[i], bodies[i]) {
				t.Fatalf("%s: seed %d drifted:\n%s\n%s", stage, i, reference[i], bodies[i])
			}
			if wantAllHits && caches[i] != "hit" {
				t.Errorf("%s: seed %d X-Cache %q, want hit", stage, i, caches[i])
			}
			if bannedPeer != "" && peers[i] == bannedPeer {
				t.Errorf("%s: seed %d served by %s, which no longer owns keys", stage, i, bannedPeer)
			}
		}
	}
	check("steady state", true, "")

	// Grow 2 → 3. The join must bump the epoch, and the prewarm must
	// have moved the reassigned keys' entries to p3 before it owns them
	// — the next replay is all hits even though ownership changed.
	w := adminPost(rt, "/admin/join", p3.URL)
	if w.Code != http.StatusOK {
		t.Fatalf("join: status %d: %s", w.Code, w.Body.String())
	}
	if got := rt.Epoch(); got != 2 {
		t.Fatalf("epoch after join %d, want 2", got)
	}
	members := rt.ringNow().Members()
	if len(members) != 3 {
		t.Fatalf("ring members after join: %v", members)
	}
	st := rt.Stats()
	if st.Joins != 1 || st.Epoch != 2 {
		t.Fatalf("stats after join: joins=%d epoch=%d", st.Joins, st.Epoch)
	}
	if st.RingFingerprint != rt.ringNow().Fingerprint() {
		t.Fatalf("statsz fingerprint %q disagrees with the ring", st.RingFingerprint)
	}
	check("after join", true, "")

	// Drain the original first peer: epoch bumps again, the ring
	// forgets it immediately, and its whole cache streams to the
	// successors — so the replay is still all hits, never touching p1.
	drained := normalizePeer(p1.URL)
	w = adminPost(rt, "/admin/drain", p1.URL)
	if w.Code != http.StatusOK {
		t.Fatalf("drain: status %d: %s", w.Code, w.Body.String())
	}
	if got := rt.Epoch(); got != 3 {
		t.Fatalf("epoch after drain %d, want 3", got)
	}
	if ms := rt.ringNow().Members(); len(ms) != 2 {
		t.Fatalf("ring members after drain: %v", ms)
	}
	if life := rt.byName[drained].currentLife(); life != lifeDraining {
		t.Fatalf("drained peer lifecycle %v, want draining", life)
	}
	check("after drain", true, drained)

	// Remove: the ring is already correct, so the epoch holds; the
	// peer leaves the tracked set entirely.
	w = adminPost(rt, "/admin/remove", p1.URL)
	if w.Code != http.StatusOK {
		t.Fatalf("remove: status %d: %s", w.Code, w.Body.String())
	}
	if got := rt.Epoch(); got != 3 {
		t.Fatalf("epoch after remove %d, want 3 (unchanged)", got)
	}
	st = rt.Stats()
	if st.Drains != 1 || st.Removes != 1 {
		t.Fatalf("stats after remove: %+v", st)
	}
	if st.HandoffMoved == 0 {
		t.Fatal("handoff moved 0 entries across a join and a drain")
	}
	for _, ps := range st.Peers {
		if ps.Name == drained {
			t.Fatalf("removed peer still tracked: %+v", ps)
		}
	}
	check("after remove", true, drained)
}

// TestAdminGate pins the access rules: non-loopback callers without a
// token are refused; with a configured token, only the exact token
// passes, loopback or not.
func TestAdminGate(t *testing.T) {
	a, b := newFakePeer(t), newFakePeer(t)
	rt := newTestRouter(t, Config{}, a, b)

	// No token configured: loopback only.
	req := httptest.NewRequest(http.MethodPost, "/admin/drain", strings.NewReader(`{"peer":"x"}`))
	req.RemoteAddr = "192.0.2.1:1234"
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusForbidden {
		t.Fatalf("non-loopback caller: status %d, want 403", w.Code)
	}
	if w := adminPost(rt, "/admin/remove", "http://203.0.113.1:1"); w.Code != http.StatusNotFound {
		t.Fatalf("loopback caller past the gate: status %d, want 404 (unknown peer)", w.Code)
	}

	// Token configured: the header decides, not the source address.
	c, d := newFakePeer(t), newFakePeer(t)
	rtTok := newTestRouter(t, Config{AdminToken: "s3cret"}, c, d)
	send := func(token string) int {
		req := httptest.NewRequest(http.MethodPost, "/admin/remove", strings.NewReader(`{"peer":"http://203.0.113.1:1"}`))
		req.RemoteAddr = "127.0.0.1:9999"
		if token != "" {
			req.Header.Set("X-Admin-Token", token)
		}
		w := httptest.NewRecorder()
		rtTok.Handler().ServeHTTP(w, req)
		return w.Code
	}
	if got := send(""); got != http.StatusForbidden {
		t.Fatalf("missing token: status %d, want 403", got)
	}
	if got := send("wrong"); got != http.StatusForbidden {
		t.Fatalf("wrong token: status %d, want 403", got)
	}
	if got := send("s3cret"); got != http.StatusNotFound {
		t.Fatalf("correct token: status %d, want 404 (unknown peer)", got)
	}
}

// TestAdminLifecycleRefusals pins the guard rails: draining twice,
// draining the last member, removing an undrained peer, and removing
// twice are all refused with the cluster intact.
func TestAdminLifecycleRefusals(t *testing.T) {
	a, b := newFakePeer(t), newFakePeer(t)
	rt := newTestRouter(t, Config{}, a, b)
	an, bn := normalizePeer(a.url()), normalizePeer(b.url())

	if w := adminPost(rt, "/admin/remove", a.url()); w.Code != http.StatusConflict {
		t.Fatalf("remove of a serving peer: status %d, want 409", w.Code)
	}
	if w := adminPost(rt, "/admin/drain", a.url()); w.Code != http.StatusOK {
		t.Fatalf("drain: status %d: %s", w.Code, w.Body.String())
	}
	if w := adminPost(rt, "/admin/drain", a.url()); w.Code != http.StatusConflict {
		t.Fatalf("second drain: status %d, want 409", w.Code)
	}
	if w := adminPost(rt, "/admin/drain", b.url()); w.Code != http.StatusConflict {
		t.Fatalf("drain of the last ring member: status %d, want 409", w.Code)
	}
	if got := rt.ringNow().Members(); len(got) != 1 || got[0] != bn {
		t.Fatalf("ring after refusals: %v, want [%s]", got, bn)
	}
	if w := adminPost(rt, "/admin/remove", a.url()); w.Code != http.StatusOK {
		t.Fatalf("remove after drain: status %d: %s", w.Code, w.Body.String())
	}
	if w := adminPost(rt, "/admin/remove", a.url()); w.Code != http.StatusNotFound {
		t.Fatalf("second remove: status %d, want 404", w.Code)
	}
	if _, tracked := rt.byName[an]; tracked {
		t.Fatal("removed peer still in byName")
	}
}

// TestJoinOfUnreachablePeerFailsCleanly: a join candidate that never
// probes ready is untracked again, the epoch does not move, and the
// operator can retry.
func TestJoinOfUnreachablePeerFailsCleanly(t *testing.T) {
	a, b := newFakePeer(t), newFakePeer(t)
	rt := newTestRouter(t, Config{JoinTimeout: 200 * time.Millisecond}, a, b)

	w := adminPost(rt, "/admin/join", "http://127.0.0.1:1") // nothing listens there
	if w.Code != http.StatusBadGateway {
		t.Fatalf("join of unreachable peer: status %d, want 502: %s", w.Code, w.Body.String())
	}
	if got := rt.Epoch(); got != 1 {
		t.Fatalf("epoch after failed join %d, want 1", got)
	}
	if _, tracked := rt.byName["http://127.0.0.1:1"]; tracked {
		t.Fatal("failed join candidate still tracked")
	}
	if len(rt.ringNow().Members()) != 2 {
		t.Fatalf("ring grew despite failed join: %v", rt.ringNow().Members())
	}
}

// TestClientCancelIsNotAPeerFailure is the passive-signal bugfix pin:
// a request whose CLIENT gives up (context canceled while the leg is
// in flight) must not count as a transport failure against the peer —
// with FailThreshold 1, a single misclassification would demote a
// healthy peer all the way to Down.
func TestClientCancelIsNotAPeerFailure(t *testing.T) {
	a := newFakePeer(t)
	a.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // serve nothing until the client hangs up
	}))
	rt := newTestRouter(t, Config{FailThreshold: 1}, a)
	an := normalizePeer(a.url())
	waitState(t, rt, an, StateHealthy)

	body := marshalReq(t, simRequest(1))
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body)).WithContext(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			rt.Handler().ServeHTTP(httptest.NewRecorder(), req)
		}()
		time.Sleep(2 * time.Millisecond)
		cancel()
		<-done
	}

	st := rt.Stats()
	if len(st.Peers) != 1 {
		t.Fatalf("peers: %+v", st.Peers)
	}
	if got := st.Peers[0].ForwardErrs; got != 0 {
		t.Fatalf("client cancellations charged %d forward errors to the peer", got)
	}
	if st.Failovers != 0 {
		t.Fatalf("client cancellations launched %d failovers", st.Failovers)
	}
	// The peer must still be routable right now — not demoted and
	// probed back in the meantime.
	if got := rt.byName[an].currentState(); got != StateHealthy {
		t.Fatalf("peer state %v after client cancellations, want healthy", got)
	}
}

// TestStatszReportsMembership: epoch, fingerprint, members, and
// per-peer lifecycle ride the stats snapshot — what routers and
// operators compare to assert membership agreement.
func TestStatszReportsMembership(t *testing.T) {
	a, b := newFakePeer(t), newFakePeer(t)
	rt := newTestRouter(t, Config{}, a, b)
	st := rt.Stats()
	if st.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", st.Epoch)
	}
	if st.RingFingerprint != rt.ringNow().Fingerprint() || st.RingFingerprint == "" {
		t.Fatalf("fingerprint %q", st.RingFingerprint)
	}
	if len(st.RingMembers) != 2 {
		t.Fatalf("ring members %v", st.RingMembers)
	}
	for _, ps := range st.Peers {
		if ps.Lifecycle != "serving" {
			t.Fatalf("peer %s lifecycle %q, want serving", ps.Name, ps.Lifecycle)
		}
	}
}
