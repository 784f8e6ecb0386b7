package cluster

// Stats is a snapshot of the router's counters plus each peer's health
// view (see /statsz). Router-level counters are individually atomic;
// each PeerStats block is read under that peer's lock, so a peer's
// state and streak never tear against each other.
type Stats struct {
	// Requests counts bodies that passed admission; Rejected the errors
	// the router answered itself (4xx admission failures, and the 502
	// for a peer answer over MaxResponseBytes); Shed the 503s for want
	// of any peer; Completed every response relayed from a peer (any
	// status).
	Requests  int64 `json:"requests"`
	Rejected  int64 `json:"rejected"`
	Shed      int64 `json:"shed"`
	Completed int64 `json:"completed"`
	// Forwards counts legs sent to peers (≥ Requests under failover);
	// OwnerHits the requests answered by their key's primary ring owner;
	// Failovers the legs launched because a prior leg failed.
	Forwards  int64 `json:"forwards"`
	OwnerHits int64 `json:"owner_hits"`
	Failovers int64 `json:"failovers"`
	// Hedges and LoadReroutes are always 0: the router no longer hedges
	// or reroutes on gossiped load. They stay because the benchmark
	// (perfbench) reads them for its cluster.hedges and
	// cluster.load_reroutes metrics.
	Hedges       int64 `json:"hedges"`
	LoadReroutes int64 `json:"load_reroutes"`

	// Epoch is the current membership epoch (1 at boot, +1 per ring
	// swap); RingFingerprint the ring's deterministic geometry checksum
	// (ring.Fingerprint) — two routers, or a router and an operator's
	// expectation, agree on membership iff these match; RingMembers the
	// members owning keys right now (draining peers are tracked in
	// Peers but absent here).
	Epoch           uint64   `json:"epoch"`
	RingFingerprint string   `json:"ring_fingerprint"`
	RingMembers     []string `json:"ring_members"`
	// Joins/Drains/Removes count completed admin operations;
	// HandoffMoved/HandoffFailed the cache entries moved (imported by
	// their new owner) and refused or lost across all handoff passes.
	Joins         int64 `json:"joins"`
	Drains        int64 `json:"drains"`
	Removes       int64 `json:"removes"`
	HandoffMoved  int64 `json:"handoff_moved"`
	HandoffFailed int64 `json:"handoff_failed"`

	Peers []PeerStats `json:"peers"`
}

// PeerStats is one peer's health and traffic view.
type PeerStats struct {
	Name string `json:"name"`
	// State is the health view (probes and transport outcomes);
	// Lifecycle the membership view (joining/warming/serving/draining).
	State     string `json:"state"`
	Lifecycle string `json:"lifecycle"`
	// Fails is the current consecutive transport-failure streak.
	Fails      int   `json:"consecutive_fails"`
	Probes     int64 `json:"probes"`
	ProbeFails int64 `json:"probe_fails"`
	// Forwards/ForwardErrs/Wins count legs sent to, failed at, and
	// relayed from this peer.
	Forwards    int64 `json:"forwards"`
	ForwardErrs int64 `json:"forward_errors"`
	Wins        int64 `json:"wins"`
}

// Stats returns the snapshot.
func (rt *Router) Stats() Stats {
	st := Stats{
		Requests:      rt.requests.Load(),
		Rejected:      rt.rejected.Load(),
		Shed:          rt.shed.Load(),
		Completed:     rt.completed.Load(),
		Forwards:      rt.forwards.Load(),
		OwnerHits:     rt.ownerHits.Load(),
		Failovers:     rt.failovers.Load(),
		Joins:         rt.joins.Load(),
		Drains:        rt.drains.Load(),
		Removes:       rt.removes.Load(),
		HandoffMoved:  rt.handoffMoved.Load(),
		HandoffFailed: rt.handoffFailed.Load(),
	}
	m := rt.member.Load()
	st.Epoch = m.epoch
	st.RingFingerprint = m.ring.Fingerprint()
	st.RingMembers = append([]string(nil), m.ring.Members()...)
	peers := rt.peerList()
	st.Peers = make([]PeerStats, 0, len(peers))
	for _, p := range peers {
		p.mu.Lock()
		st.Peers = append(st.Peers, PeerStats{
			Name:        p.name,
			State:       p.state.String(),
			Lifecycle:   p.life.String(),
			Fails:       p.fails,
			Probes:      p.probes,
			ProbeFails:  p.probeFails,
			Forwards:    p.forwards,
			ForwardErrs: p.forwardErrs,
			Wins:        p.wins,
		})
		p.mu.Unlock()
	}
	return st
}
