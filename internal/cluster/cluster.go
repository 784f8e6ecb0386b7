// Package cluster is the routing front for a predictd cluster: an HTTP
// handler (mounted by cmd/predictrouter) that owns admission — decode,
// size caps, validation — and forwards each canonicalized request to
// the peer that owns its content key on a consistent-hash ring
// (internal/ring). Because router and peer reduce a request to the
// identical canonical key (serve.CanonicalKey), N peer caches behave
// like one cache: every repetition of a request lands on the one peer
// whose cache can answer it.
//
// The robustness story is layered on top of the ring's ordered owner
// list — Owners(key, n) is the owner followed by its natural
// successors, so failover targets are as stable as owners:
//
//   - Health state machines. Each peer is tracked through
//     Unknown/Healthy/Suspect/Draining/Down by active probes (/healthz
//     liveness, /readyz admission) and passive forwarding signals. A
//     transport failure demotes to Suspect immediately; FailThreshold
//     consecutive failures demote to Down, after which reprobes follow
//     a capped exponential backoff whose stagger is hash-derived
//     (ring.Stagger) — deterministic spacing, no math/rand jitter.
//
//   - Failover. A request tries the key's owners one at a time, healthy
//     peers first; a transport error, a ForwardTimeout expiry, or a
//     retryable status (429, 5xx sheds) moves to the next candidate.
//     Client errors never retry — a 400 from one peer is a 400 from
//     all of them.
//
// There is no second leg in flight: a peer's answer is a pure function
// of the request, and a warmed owner answers from cache in near-constant
// time, so racing a duplicate leg has no latency spread to win.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loggpsim/internal/ring"
	"loggpsim/internal/serve"
)

// Config tunes the router. Zero fields select the documented defaults.
type Config struct {
	// Peers are the predictd base URLs (scheme optional; "host:port"
	// gets "http://"). The set — not its order — defines the ring.
	Peers []string
	// Replicas and Salt are passed to the ring (see ring.Config).
	Replicas int
	Salt     string
	// Limits caps request bodies and fields exactly as the peers do, so
	// the router rejects what a peer would reject without spending a
	// forward on it. Zero fields select serve's defaults.
	Limits serve.Limits

	// ProbeInterval spaces health probes while a peer answers; ≤ 0
	// selects 500ms. ProbeTimeout bounds one probe; ≤ 0 selects 2s.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold is how many consecutive transport failures demote a
	// peer to Down; ≤ 0 selects 2.
	FailThreshold int
	// BackoffBase/BackoffMax bound the reprobe schedule of a Down peer:
	// delay = min(base<<attempt, max), staggered deterministically.
	// ≤ 0 select 250ms and 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// MaxAttempts bounds the candidate list per request (clamped to the
	// peer count); ≤ 0 selects 3.
	MaxAttempts int
	// ForwardTimeout bounds one forwarded leg — the only bound on a
	// stalled peer, whose expiry fails over and counts against it; ≤ 0
	// selects 75s (above serve's 60s deadline clamp, so the peer's own
	// deadline machinery answers first).
	ForwardTimeout time.Duration
	// MaxResponseBytes caps a buffered peer response; a longer answer is
	// a 502, never a truncated relay. ≤ 0 selects 8 MiB.
	MaxResponseBytes int64
	// Transport overrides the forwarding round tripper (tests).
	Transport http.RoundTripper

	// AdminToken gates the /admin/* membership API. When set, requests
	// must present it in X-Admin-Token (compared in constant time); when
	// empty, the API answers loopback callers only.
	AdminToken string
	// JoinTimeout bounds how long /admin/join waits for the new peer to
	// probe ready before the join is abandoned; ≤ 0 selects 10s.
	JoinTimeout time.Duration
	// HandoffTimeout bounds one cache handoff pass (join prewarm or
	// drain); ≤ 0 selects 30s. An expired handoff leaves the cluster
	// correct — entries that did not move are re-evaluated as misses —
	// so the bound trades hit rate, never byte-identity.
	HandoffTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 250 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 75 * time.Second
	}
	if c.MaxResponseBytes <= 0 {
		c.MaxResponseBytes = 8 << 20
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 10 * time.Second
	}
	if c.HandoffTimeout <= 0 {
		c.HandoffTimeout = 30 * time.Second
	}
	c.Limits = c.Limits.WithDefaults()
	return c
}

// membership is one immutable (epoch, ring) pair. The router swaps the
// whole pair atomically on every reconfiguration, and handlePredict
// loads it exactly once per request — so a request is routed under one
// epoch's ring from owner lookup through the last failover leg, never a
// torn read of a ring mid-swap.
type membership struct {
	epoch uint64
	ring  *ring.Ring
}

// Router is the cluster front. Construct with NewRouter, call Start to
// launch the probe loops, mount Handler, Close on shutdown.
// Membership changes run through the /admin API (admin.go).
type Router struct {
	cfg    Config
	member atomic.Pointer[membership]
	client *http.Client
	mux    *http.ServeMux

	// admin serializes membership reconfigurations: one join, drain, or
	// remove runs at a time, so lifecycle transitions and epoch bumps
	// never interleave.
	admin sync.Mutex

	// peersMu guards the tracked peer set — which can now outgrow and
	// outlive the ring: a joining peer is tracked (probed) before it
	// owns keys, a draining one after it stopped owning them.
	peersMu sync.RWMutex
	peers   []*peer          // name-sorted at boot; joins append
	byName  map[string]*peer // lookup only, never iterated
	started bool             // Start ran; late-added peers self-start probes

	stop    chan struct{}
	stopOne sync.Once
	wg      sync.WaitGroup

	requests, rejected, shed, completed atomic.Int64
	forwards, ownerHits, failovers      atomic.Int64
	joins, drains, removes              atomic.Int64
	handoffMoved, handoffFailed         atomic.Int64
}

// ringNow returns the current membership's ring. Callers that make more
// than one routing decision for a request must instead load the
// membership once and use its ring throughout.
func (rt *Router) ringNow() *ring.Ring { return rt.member.Load().ring }

// Epoch returns the current membership epoch. It starts at 1 and
// increments on every ring swap (join or drain); removals of an
// already-drained peer do not touch the ring and keep the epoch.
func (rt *Router) Epoch() uint64 { return rt.member.Load().epoch }

// peerList snapshots the tracked peer set in its stable order.
func (rt *Router) peerList() []*peer {
	rt.peersMu.RLock()
	defer rt.peersMu.RUnlock()
	return append([]*peer(nil), rt.peers...)
}

// NewRouter builds a router over the configured peers. The ring is
// built from the normalized peer URLs, so every router that knows the
// same peer set routes every key identically.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	names := make([]string, len(cfg.Peers))
	for i, u := range cfg.Peers {
		names[i] = normalizePeer(u)
	}
	rg, err := ring.New(names, ring.Config{Replicas: cfg.Replicas, Salt: cfg.Salt})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// MaxAttempts is deliberately NOT clamped to the boot-time peer
	// count: the cluster can grow past it, and ring.Owners clamps per
	// lookup anyway.
	rt := &Router{
		cfg:    cfg,
		byName: make(map[string]*peer, len(names)),
		client: &http.Client{Transport: cfg.Transport},
		stop:   make(chan struct{}),
	}
	rt.member.Store(&membership{epoch: 1, ring: rg})
	for _, name := range rg.Members() {
		p := newPeer(name, lifeServing)
		rt.peers = append(rt.peers, p)
		rt.byName[name] = p
	}
	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/predict", rt.handlePredict)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/readyz", rt.handleReadyz)
	rt.mux.HandleFunc("/statsz", rt.handleStatsz)
	rt.mux.HandleFunc("/admin/join", rt.handleAdminJoin)
	rt.mux.HandleFunc("/admin/drain", rt.handleAdminDrain)
	rt.mux.HandleFunc("/admin/remove", rt.handleAdminRemove)
	return rt, nil
}

// normalizePeer canonicalizes a peer URL so the ring member name — the
// identity every routing decision hangs on — does not depend on
// spelling trivia like a trailing slash.
func normalizePeer(u string) string {
	u = strings.TrimRight(u, "/")
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// Start launches the per-peer probe loops. Routing works before Start —
// every peer begins Unknown and the first forwards feel the cluster out
// — but failover quality depends on the probes running.
func (rt *Router) Start() {
	rt.peersMu.Lock()
	rt.started = true
	ps := append([]*peer(nil), rt.peers...)
	rt.peersMu.Unlock()
	for _, p := range ps {
		rt.wg.Add(1)
		go rt.probeLoop(p)
	}
}

// Close stops the probe loops and waits them out. Idempotent; in-flight
// forwarded requests are not interrupted.
func (rt *Router) Close() {
	rt.stopOne.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// failReject answers a router-side rejection (bad input, wrong method)
// without touching any peer.
func (rt *Router) failReject(w http.ResponseWriter, status int, format string, args ...any) {
	rt.rejected.Add(1)
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// shedResponse answers 503 when no peer could serve: every candidate
// was down, or every leg failed at the transport level.
func (rt *Router) shedResponse(w http.ResponseWriter, detail string) {
	rt.shed.Add(1)
	w.Header().Set("Retry-After", "1")
	msg := "no peer available"
	if detail != "" {
		msg += ": " + detail
	}
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: msg})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness: the router can do useful work once
// at least one peer has probed Healthy. (Suspect and Unknown peers are
// still *routed to* — readiness is a stricter bar than routability, so
// "ready" means verified capacity, not hope.)
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	for _, p := range rt.peerList() {
		if p.currentState() == StateHealthy && p.currentLife() == lifeServing {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ready")
			return
		}
	}
	http.Error(w, "no healthy peer", http.StatusServiceUnavailable)
}

func (rt *Router) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats())
}

// handlePredict owns admission — method, size cap, strict decode,
// validation — then routes the canonical key's candidates through the
// failover loop. Rejections here never cost a forward, and the body is
// buffered once so every leg replays identical bytes.
func (rt *Router) handlePredict(w http.ResponseWriter, hr *http.Request) {
	start := time.Now()
	if hr.Method != http.MethodPost {
		rt.failReject(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	hr.Body = http.MaxBytesReader(w, hr.Body, rt.cfg.Limits.MaxBodyBytes)
	body, err := io.ReadAll(hr.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			rt.failReject(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return
		}
		rt.failReject(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var r serve.Request
	if err := dec.Decode(&r); err != nil {
		rt.failReject(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if err := r.Validate(rt.cfg.Limits); err != nil {
		rt.failReject(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := serve.CanonicalKey(&r)
	if err != nil {
		rt.failReject(w, http.StatusBadRequest, "%v", err)
		return
	}
	rt.requests.Add(1)
	// One membership load per request: owner lookup, candidate
	// ordering, and every failover leg run under this epoch's ring even
	// if an admin swap lands mid-request.
	m := rt.member.Load()
	owners := m.ring.Owners(key[:], rt.cfg.MaxAttempts)
	cands := rt.candidates(owners)
	if len(cands) == 0 {
		rt.shedResponse(w, "")
		return
	}
	rt.failover(w, hr, body, cands, owners[0], start)
}

// candidates orders a key's ring owners by routability: healthy peers
// first (ring order within each class), then suspect and unknown ones;
// draining and down peers are skipped entirely.
func (rt *Router) candidates(owners []string) []*peer {
	var healthy, rest []*peer
	rt.peersMu.RLock()
	for _, name := range owners {
		p := rt.byName[name]
		if p == nil {
			// A remove raced this request's (older-epoch) owner list;
			// the peer is gone, its successor is next in the list.
			continue
		}
		switch p.currentState() {
		case StateHealthy:
			healthy = append(healthy, p)
		case StateSuspect, StateUnknown:
			rest = append(rest, p)
		}
	}
	rt.peersMu.RUnlock()
	return append(healthy, rest...)
}

// peerResponse is a fully buffered peer answer, decoupled from the
// network so the failover loop can relay the last retryable answer
// after later legs have come and gone.
type peerResponse struct {
	status int
	header http.Header
	body   []byte
}

// errResponseTooLarge marks a peer answer longer than MaxResponseBytes.
var errResponseTooLarge = errors.New("peer response too large")

// failover tries the candidates (never empty) in order, one leg at a
// time, on the handler goroutine. A transport error or a retryable
// status moves to the next candidate; the first definitive answer is
// relayed. If the list runs out and some leg answered with a retryable
// status, the last such response is relayed — the client sees the
// peer's own 429/503 with its Retry-After intact; if every leg failed
// at the transport level, the request is shed. start is when the
// handler began, for the relayed answer's Server-Timing.
func (rt *Router) failover(w http.ResponseWriter, hr *http.Request, body []byte, cands []*peer, primary string, start time.Time) {
	ctx := hr.Context()
	var (
		lastPeer *peer
		lastResp *peerResponse
		lastErr  error
	)
	for i, p := range cands {
		if i > 0 {
			rt.failovers.Add(1)
		}
		rt.forwards.Add(1)
		p.addForward()
		resp, err := rt.forward(ctx, p, body)
		switch {
		case errors.Is(err, errResponseTooLarge):
			// The peer answered, so it is not demoted; every peer computes
			// the same bytes for a valid request, so none is tried next.
			p.noteAlive()
			rt.failReject(w, http.StatusBadGateway, "peer response exceeds %d bytes", rt.cfg.MaxResponseBytes)
			return
		case err != nil && ctx.Err() != nil:
			// The client hung up or its deadline expired, and this leg
			// died of that, not of the peer: demoting the peer here would
			// let an impatient client drive a healthy peer to suspect.
			// ForwardTimeout expiries surface while ctx is still live and
			// still count against the peer. Nothing is left to write.
			return
		case err != nil:
			p.noteForwardErr(rt.cfg.FailThreshold)
			lastErr = err
			continue
		}
		p.noteAlive()
		if resp.status == http.StatusServiceUnavailable {
			// serve answers 503 only while draining; remember it so the
			// next request skips this peer before the probes do.
			p.noteDraining()
		}
		if retryable(resp.status) {
			lastPeer, lastResp = p, resp
			continue
		}
		rt.writeLeg(w, p, resp, primary, start)
		return
	}
	if lastResp != nil {
		rt.writeLeg(w, lastPeer, lastResp, primary, start)
		return
	}
	rt.shedResponse(w, lastErr.Error())
}

// retryable reports whether a status is worth trying another peer:
// sheds and server-side failures are; client errors are not — a 400
// from one peer is a 400 from all of them, and the peers' responses to
// valid requests are deterministic.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// forward sends the buffered request to one peer and buffers the whole
// answer, bounded by ForwardTimeout. It reads one byte past
// MaxResponseBytes so that an oversized answer is reported as
// errResponseTooLarge instead of being relayed cut short.
func (rt *Router) forward(ctx context.Context, p *peer, body []byte) (*peerResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.name+"/predict", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxResponseBytes+1))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) > rt.cfg.MaxResponseBytes {
		return nil, errResponseTooLarge
	}
	return &peerResponse{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// writeLeg relays one peer's buffered response verbatim — byte-identical
// payloads are the cluster's correctness bar — plus the routing
// diagnostics: X-Peer names the serving peer; X-Cache and Retry-After
// pass through from the peer untouched; Server-Timing carries the
// peer's entries followed by the router's own, router;dur= the time
// from handler entry (start) to this relay.
func (rt *Router) writeLeg(w http.ResponseWriter, p *peer, resp *peerResponse, primary string, start time.Time) {
	p.addWin()
	if p.name == primary {
		rt.ownerHits.Add(1)
	}
	h := w.Header()
	copyHeader(h, resp.header, "Content-Type")
	copyHeader(h, resp.header, "X-Cache")
	copyHeader(h, resp.header, "Retry-After")
	h.Set("X-Peer", p.name)
	timing := serve.TimingMetric("router", start)
	if v := strings.Join(resp.header.Values("Server-Timing"), ", "); v != "" {
		timing = v + ", " + timing
	}
	h.Set("Server-Timing", timing)
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
	rt.completed.Add(1)
}

func copyHeader(dst, src http.Header, key string) {
	if v := src.Get(key); v != "" {
		dst.Set(key, v)
	}
}
