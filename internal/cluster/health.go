// Per-peer health: the state machine, the active probe loop, and the
// deterministic reprobe backoff. Signals come from two directions —
// active probes (/healthz liveness, then /readyz admission) and
// passive forwarding outcomes — and both feed the same transitions, so
// a peer that dies mid-request is demoted by the very request that
// noticed, without waiting for the next probe tick.
package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	"loggpsim/internal/ring"
)

// State is a peer's position in the health state machine.
type State int

const (
	// StateUnknown is the boot state: never probed, never forwarded to.
	// Unknown peers are routable (behind healthy ones) so the first
	// requests feel the cluster out instead of being shed.
	StateUnknown State = iota
	// StateHealthy peers answered their latest probe ready.
	StateHealthy
	// StateSuspect peers failed recently but not FailThreshold times in
	// a row; they are routed to only when no healthy candidate exists.
	StateSuspect
	// StateDraining peers are alive but refusing new work (readyz 503);
	// they are skipped entirely — predictd answers cache hits while
	// draining, but the successor owns the key's future anyway.
	StateDraining
	// StateDown peers failed FailThreshold consecutive times; they are
	// skipped and reprobed on the capped backoff schedule.
	StateDown
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	default:
		return "unknown"
	}
}

// lifecycle is a peer's position in the membership state machine —
// orthogonal to health. Health says what the peer's process is doing
// right now (probes, transport outcomes); lifecycle says what the
// cluster has decided the peer is *for* (joining → warming → serving →
// draining → gone, driven by the /admin API). A peer can be healthy
// and draining at once: alive, answering, and deliberately owning no
// keys.
type lifecycle int

const (
	// lifeServing peers own ring keys; boot-time peers start here.
	lifeServing lifecycle = iota
	// lifeJoining peers are tracked and probed but own nothing yet.
	lifeJoining
	// lifeWarming peers probed ready and are receiving their prewarm
	// handoff; the next epoch swap makes them serving.
	lifeWarming
	// lifeDraining peers were removed from the ring (the epoch already
	// swapped) and are streaming their cache out; still answering.
	lifeDraining
	// lifeGone peers are removed; the state exists only in the final
	// snapshot a racing reader may take.
	lifeGone
)

func (l lifecycle) String() string {
	switch l {
	case lifeJoining:
		return "joining"
	case lifeWarming:
		return "warming"
	case lifeDraining:
		return "draining"
	case lifeGone:
		return "gone"
	default:
		return "serving"
	}
}

// peer is the router's view of one predictd process. All mutable state
// sits behind one mutex, so every snapshot — and every transition — is
// internally consistent.
type peer struct {
	name string        // normalized base URL; the ring member identity
	done chan struct{} // closed on remove; stops this peer's probe loop

	mu      sync.Mutex
	state   State
	life    lifecycle
	fails   int // consecutive transport failures
	attempt int // backoff step while Down

	probes      int64
	probeFails  int64
	forwards    int64
	forwardErrs int64
	wins        int64
}

func newPeer(name string, life lifecycle) *peer {
	return &peer{name: name, life: life, done: make(chan struct{})}
}

func (p *peer) currentState() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

func (p *peer) currentLife() lifecycle {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.life
}

func (p *peer) setLife(l lifecycle) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.life = l
}

// noteAlive records a transport-level success — a forward that got any
// HTTP answer. It clears the failure streak and promotes every state
// except Draining back to Healthy; draining is cleared only by a ready
// probe, because a draining peer answers requests right up to exit.
func (p *peer) noteAlive() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails, p.attempt = 0, 0
	if p.state != StateDraining {
		p.state = StateHealthy
	}
}

// noteReady records a 200 /readyz probe: the peer is fully back,
// whatever it was before — including a restarted process on the same
// address after a Down spell.
func (p *peer) noteReady() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails, p.attempt = 0, 0
	p.state = StateHealthy
}

// noteDraining records an alive-but-refusing peer (readyz or forward
// answered 503).
func (p *peer) noteDraining() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails, p.attempt = 0, 0
	p.state = StateDraining
}

// noteFailure records a transport-level failure. Below the threshold
// the peer turns Suspect (still routable, behind healthy peers); at
// the threshold it turns Down, and each further failure widens the
// reprobe backoff step.
func (p *peer) noteFailure(threshold int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails++
	switch {
	case p.fails >= threshold:
		if p.state == StateDown {
			p.attempt++
		}
		p.state = StateDown
	case p.state == StateHealthy || p.state == StateUnknown:
		p.state = StateSuspect
	}
}

// noteForwardErr is noteFailure plus the forwarding error counter.
func (p *peer) noteForwardErr(threshold int) {
	p.mu.Lock()
	p.forwardErrs++
	p.mu.Unlock()
	p.noteFailure(threshold)
}

func (p *peer) addForward() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.forwards++
}

func (p *peer) addWin() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wins++
}

// probeLoop probes one peer until the router closes. The loop is
// self-scheduling: the delay to the next probe depends on the state
// the current probe left behind (steady interval while up, capped
// backoff while down).
func (rt *Router) probeLoop(p *peer) {
	defer rt.wg.Done()
	t := time.NewTimer(0) // first probe immediately
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-p.done:
			// The peer was removed from the cluster; its loop ends
			// without waiting for router shutdown.
			return
		case <-t.C:
		}
		rt.probeOnce(p)
		t.Reset(rt.probeDelay(p))
	}
}

// probeOnce runs one liveness-then-readiness probe and feeds the state
// machine: healthz failure is a transport failure, readyz 503 is
// draining, readyz 200 is fully ready.
func (rt *Router) probeOnce(p *peer) {
	p.mu.Lock()
	p.probes++
	p.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	if st := rt.probeGet(ctx, p.name+"/healthz"); st != http.StatusOK {
		rt.probeFailed(p)
		return
	}
	switch rt.probeGet(ctx, p.name+"/readyz") {
	case http.StatusOK:
		p.noteReady()
	case http.StatusServiceUnavailable:
		p.noteDraining()
	default:
		rt.probeFailed(p)
	}
}

func (rt *Router) probeFailed(p *peer) {
	p.mu.Lock()
	p.probeFails++
	p.mu.Unlock()
	p.noteFailure(rt.cfg.FailThreshold)
}

// probeGet returns the response status, or 0 on transport failure. The
// body is drained (bounded) so the keep-alive connection is reusable.
func (rt *Router) probeGet(ctx context.Context, url string) int {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	return resp.StatusCode
}

// probeDelay picks the next probe time: the steady interval while the
// peer answers, the capped exponential backoff while it is down.
func (rt *Router) probeDelay(p *peer) time.Duration {
	p.mu.Lock()
	state, attempt := p.state, p.attempt
	p.mu.Unlock()
	if state != StateDown {
		return rt.cfg.ProbeInterval
	}
	return retryDelay(p.name, attempt, rt.cfg.BackoffBase, rt.cfg.BackoffMax)
}

// retryDelay is the reprobe schedule for a down peer: exponential in
// the attempt, capped at max, and scaled into [0.75, 1.25) of the
// nominal delay by a hash of (peer, attempt). The scale does what
// randomized jitter does — peers that died together do not reprobe in
// lockstep — while staying a pure function of its inputs, so a test
// (or an incident review) can compute the exact schedule.
func retryDelay(name string, attempt int, base, max time.Duration) time.Duration {
	if attempt > 30 {
		attempt = 30 // the shift below must not overflow; max caps anyway
	}
	d := base << uint(attempt)
	if d <= 0 || d > max {
		d = max
	}
	d = time.Duration(float64(d) * (0.75 + 0.5*ring.Stagger(name, attempt)))
	if d > max {
		d = max
	}
	return d
}
