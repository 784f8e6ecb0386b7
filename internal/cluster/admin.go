// Live membership administration: the /admin/join, /admin/drain, and
// /admin/remove endpoints that resize a running cluster without
// dropping a request or corrupting byte-identity.
//
// The protocol is epoch-versioned ring swaps over coordinated cache
// handoff:
//
//   - Join: the new peer is tracked (probed) as *joining*, polled
//     until it reports ready, then *warming*: every current
//     member streams out the cache entries whose ownership the grown
//     ring reassigns, and the new peer imports them — verify-by-key, so
//     a bad line is dropped, never stored. Only then does the router
//     swap in the grown ring (epoch+1) and mark the peer *serving*:
//     the instant the peer owns keys, its cache already holds their
//     hot entries.
//
//   - Drain: the ring swap comes FIRST (epoch+1, peer removed), so new
//     requests route to each key's successor immediately; the peer —
//     now *draining*, still answering anything in flight — then
//     streams its whole cache to the successors the post-removal ring
//     names. ring.Remove's minimal-disruption guarantee bounds the
//     moved set to exactly the drained peer's arcs.
//
//   - Remove: only a drained peer can be removed; its probe loop stops
//     and it disappears from tracking. The ring is already correct, so
//     the epoch does not move.
//
// One admin operation runs at a time (rt.admin), so a remove issued
// mid-drain blocks until the drain's handoff completes — the operator
// cannot accidentally discard a cache that is still streaming out.
//
// Correctness does not depend on any of this succeeding: a lost or
// partial handoff only costs hit rate (the entries re-evaluate as
// misses, deterministically byte-identical), never answers.
package cluster

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"loggpsim/internal/ring"
)

// adminRequest is the body of every admin endpoint: the peer URL being
// joined, drained, or removed.
type adminRequest struct {
	Peer string `json:"peer"`
}

// adminResponse reports the operation's outcome: the membership epoch
// and ring fingerprint after it, and — for join and drain — how many
// cache entries the handoff moved and how many it failed to.
type adminResponse struct {
	Epoch           uint64   `json:"epoch"`
	RingFingerprint string   `json:"ring_fingerprint"`
	RingMembers     []string `json:"ring_members"`
	Moved           int64    `json:"moved,omitempty"`
	Failed          int64    `json:"failed,omitempty"`
}

// adminAllowed gates the membership API: a configured token (constant-
// time compared) or, with no token, loopback callers only. Membership
// changes reroute every client's traffic; they must not be reachable
// from wherever predictions are.
func (rt *Router) adminAllowed(hr *http.Request) bool {
	if rt.cfg.AdminToken != "" {
		tok := hr.Header.Get("X-Admin-Token")
		return subtle.ConstantTimeCompare([]byte(tok), []byte(rt.cfg.AdminToken)) == 1
	}
	host, _, err := net.SplitHostPort(hr.RemoteAddr)
	if err != nil {
		host = hr.RemoteAddr
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// decodeAdmin checks the gate and decodes the peer name, answering the
// error itself when either fails.
func (rt *Router) decodeAdmin(w http.ResponseWriter, hr *http.Request) (string, bool) {
	if !rt.adminAllowed(hr) {
		rt.failReject(w, http.StatusForbidden, "admin API is loopback- or token-gated")
		return "", false
	}
	if hr.Method != http.MethodPost {
		rt.failReject(w, http.StatusMethodNotAllowed, "POST only")
		return "", false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, hr.Body, 1<<16))
	dec.DisallowUnknownFields()
	var req adminRequest
	if err := dec.Decode(&req); err != nil {
		rt.failReject(w, http.StatusBadRequest, "bad admin body: %v", err)
		return "", false
	}
	if req.Peer == "" {
		rt.failReject(w, http.StatusBadRequest, "missing peer")
		return "", false
	}
	return normalizePeer(req.Peer), true
}

func (rt *Router) adminOK(w http.ResponseWriter, m *membership, moved, failed int64) {
	writeJSON(w, http.StatusOK, adminResponse{
		Epoch:           m.epoch,
		RingFingerprint: m.ring.Fingerprint(),
		RingMembers:     append([]string(nil), m.ring.Members()...),
		Moved:           moved,
		Failed:          failed,
	})
}

// handleAdminJoin grows the cluster by one peer: track → await ready →
// prewarm → swap. The swap is last, so the ring never names a peer
// that has not proven it can serve.
func (rt *Router) handleAdminJoin(w http.ResponseWriter, hr *http.Request) {
	name, ok := rt.decodeAdmin(w, hr)
	if !ok {
		return
	}
	rt.admin.Lock()
	defer rt.admin.Unlock()

	rt.peersMu.Lock()
	if _, dup := rt.byName[name]; dup {
		rt.peersMu.Unlock()
		rt.failReject(w, http.StatusConflict, "%s is already a cluster member", name)
		return
	}
	p := newPeer(name, lifeJoining)
	rt.peers = append(rt.peers, p)
	rt.byName[name] = p
	started := rt.started
	rt.peersMu.Unlock()
	if started {
		rt.wg.Add(1)
		go rt.probeLoop(p)
	}

	if err := rt.awaitReady(hr.Context(), name); err != nil {
		// The candidate never became ready; untrack it so the operator
		// can retry the join cleanly.
		rt.discardPeer(p)
		rt.failReject(w, http.StatusBadGateway, "join %s: %v", name, err)
		return
	}
	p.noteReady()
	p.setLife(lifeWarming)

	cur := rt.member.Load()
	grown, err := cur.ring.Add(name)
	if err != nil {
		rt.discardPeer(p)
		rt.failReject(w, http.StatusConflict, "join %s: %v", name, err)
		return
	}

	// Prewarm: every current member streams out the entries whose
	// ownership the grown ring reassigns (minimal disruption bounds
	// this to the arcs the new peer's points split). Failures here are
	// hit-rate losses, not errors — the join proceeds.
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HandoffTimeout)
	defer cancel()
	var moved, failed int64
	for _, src := range cur.ring.Members() {
		m, f := rt.handoff(ctx, src, grown)
		moved, failed = moved+m, failed+f
	}
	rt.handoffMoved.Add(moved)
	rt.handoffFailed.Add(failed)

	next := &membership{epoch: cur.epoch + 1, ring: grown}
	rt.member.Store(next)
	p.setLife(lifeServing)
	rt.joins.Add(1)
	rt.adminOK(w, next, moved, failed)
}

// handleAdminDrain shrinks the ring by one peer and streams its cache
// to the successors. The swap happens BEFORE the handoff: from the
// first instant of the drain, new keys route to peers that will still
// exist, and the draining peer only finishes what it already holds.
func (rt *Router) handleAdminDrain(w http.ResponseWriter, hr *http.Request) {
	name, ok := rt.decodeAdmin(w, hr)
	if !ok {
		return
	}
	rt.admin.Lock()
	defer rt.admin.Unlock()

	rt.peersMu.RLock()
	p := rt.byName[name]
	rt.peersMu.RUnlock()
	if p == nil {
		rt.failReject(w, http.StatusNotFound, "%s is not a cluster member", name)
		return
	}
	if life := p.currentLife(); life != lifeServing {
		rt.failReject(w, http.StatusConflict, "%s is %s, not serving", name, life)
		return
	}
	cur := rt.member.Load()
	if len(cur.ring.Members()) <= 1 {
		rt.failReject(w, http.StatusConflict, "refusing to drain the last ring member")
		return
	}
	shrunk, err := cur.ring.Remove(name)
	if err != nil {
		rt.failReject(w, http.StatusConflict, "drain %s: %v", name, err)
		return
	}

	next := &membership{epoch: cur.epoch + 1, ring: shrunk}
	rt.member.Store(next)
	p.setLife(lifeDraining)

	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HandoffTimeout)
	defer cancel()
	moved, failed := rt.handoff(ctx, name, shrunk)
	rt.handoffMoved.Add(moved)
	rt.handoffFailed.Add(failed)
	rt.drains.Add(1)
	rt.adminOK(w, next, moved, failed)
}

// handleAdminRemove forgets an already-drained peer: its probe loop
// stops and it leaves the tracked set. The ring was corrected by the
// drain, so the epoch is unchanged.
func (rt *Router) handleAdminRemove(w http.ResponseWriter, hr *http.Request) {
	name, ok := rt.decodeAdmin(w, hr)
	if !ok {
		return
	}
	rt.admin.Lock()
	defer rt.admin.Unlock()

	rt.peersMu.RLock()
	p := rt.byName[name]
	rt.peersMu.RUnlock()
	if p == nil {
		rt.failReject(w, http.StatusNotFound, "%s is not a cluster member", name)
		return
	}
	if life := p.currentLife(); life != lifeDraining {
		rt.failReject(w, http.StatusConflict, "%s is %s; drain it before removing", name, life)
		return
	}
	p.setLife(lifeGone)
	rt.discardPeer(p)
	rt.removes.Add(1)
	rt.adminOK(w, rt.member.Load(), 0, 0)
}

// discardPeer stops a peer's probe loop and removes it from tracking.
func (rt *Router) discardPeer(p *peer) {
	close(p.done)
	rt.peersMu.Lock()
	defer rt.peersMu.Unlock()
	delete(rt.byName, p.name)
	rest := make([]*peer, 0, len(rt.peers))
	for _, q := range rt.peers {
		if q != p {
			rest = append(rest, q)
		}
	}
	rt.peers = rest
}

// awaitReady polls the candidate's /readyz until it answers 200, the
// join timeout passes, or the admin request is abandoned.
func (rt *Router) awaitReady(ctx context.Context, name string) error {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.JoinTimeout)
	defer cancel()
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		if rt.probeGet(ctx, name+"/readyz") == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("peer never became ready: %w", ctx.Err())
		case <-t.C:
		}
	}
}

// handoffBatchBytes is the flush threshold for one destination's
// pending import batch. Small enough to bound router memory, large
// enough that a handoff is a handful of POSTs, not thousands.
const handoffBatchBytes = 256 << 10

// handoffLine is the router's view of one cache export line. Request
// and Response stay raw: the router relays them untouched — it has no
// business re-encoding bytes whose identity is the entire point — and
// only decodes the key, to compute the entry's next owner.
type handoffLine struct {
	Key      string          `json:"key"`
	Request  json.RawMessage `json:"request"`
	Response json.RawMessage `json:"response"`
	Cost     float64         `json:"cost"`
}

// handoffImported is the peer's /cache/import accounting.
type handoffImported struct {
	Imported int64 `json:"imported"`
	Rejected int64 `json:"rejected"`
}

// handoff streams src's cache export and re-posts every entry to the
// owner dst (the post-change ring) assigns it, batched per destination.
// Entries dst still assigns to src stay put. Returns how many entries
// the receiving peers verified and stored, and how many were lost to
// transport errors or import rejection. Purely additive: src's cache
// is never touched, so an interrupted handoff leaves both sides
// correct.
func (rt *Router) handoff(ctx context.Context, src string, dst *ring.Ring) (moved, failed int64) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, src+"/cache/export", nil)
	if err != nil {
		return 0, 0
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, 0
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return 0, 0
	}

	// Per-destination batches. The map is keyed for accumulation only;
	// every observable flush iterates dst.Members() in ring order.
	batches := make(map[string]*bytes.Buffer)
	counts := make(map[string]int64)
	flush := func(member string) {
		b := batches[member]
		if b == nil || b.Len() == 0 {
			return
		}
		n := counts[member]
		batches[member], counts[member] = nil, 0
		m, f := rt.postImport(ctx, member, b, n)
		moved, failed = moved+m, failed+f
	}

	dec := json.NewDecoder(resp.Body)
	for ctx.Err() == nil {
		var line handoffLine
		if err := dec.Decode(&line); err != nil {
			if !errors.Is(err, io.EOF) {
				failed++ // a truncated trailing line
			}
			break
		}
		raw, err := hex.DecodeString(line.Key)
		if err != nil || len(raw) != 32 {
			failed++
			continue
		}
		owner := dst.Owner(raw)
		if owner == src {
			continue // unchanged placement; nothing to move
		}
		b := batches[owner]
		if b == nil {
			b = &bytes.Buffer{}
			batches[owner] = b
		}
		enc := json.NewEncoder(b)
		if err := enc.Encode(&line); err != nil {
			failed++
			continue
		}
		counts[owner]++
		if b.Len() >= handoffBatchBytes {
			flush(owner)
		}
	}
	for _, member := range dst.Members() {
		flush(member)
	}
	return moved, failed
}

// postImport delivers one batch of n entries to a peer's /cache/import
// and returns the peer's own verified accounting; a transport failure
// counts the whole batch as failed.
func (rt *Router) postImport(ctx context.Context, member string, body *bytes.Buffer, n int64) (moved, failed int64) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, member+"/cache/import", bytes.NewReader(body.Bytes()))
	if err != nil {
		return 0, n
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, n
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return 0, n
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, n
	}
	var res handoffImported
	if err := json.Unmarshal(b, &res); err != nil {
		return 0, n
	}
	return res.Imported, res.Rejected + (n - res.Imported - res.Rejected)
}
