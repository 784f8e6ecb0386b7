// Package sim implements the paper's core contribution: the standard
// communication-simulation algorithm of Figure 2. Given a communication
// pattern, it determines the sequence of send and receive operations each
// processor performs under the LogGP model, subject to three rules:
//
//  1. maintain the gap constraints between consecutive operations,
//  2. send available messages as soon as possible, and
//  3. give receive operations priority over send operations (the Split-C
//     active-message behaviour the paper assumes).
//
// The algorithm keeps one current-simulation-time clock per processor,
// one FIFO queue of messages to send and one arrival-ordered priority
// queue of messages to receive. While any processor still wants to send,
// the processor with the minimum clock among them chooses between its
// next send and its earliest pending receive by comparing the start times
// each would have; the strict comparison gives receives priority on ties.
// Afterwards every processor drains its remaining receives.
//
// The session also runs the overestimation algorithm of Section 4.2
// (Config.WorstCase, configured by package worstcase): the time-ordered
// loop of the GlobalOrder ablation, where a processor sends only after
// receiving every message due to it and a random blocked sender is
// released when a cyclic wait leaves nothing to commit.
//
// Both commit loops select off one incrementally maintained tournament
// tree (eventq.Tournament) instead of a per-operation linear scan: the
// Figure-2 loop keeps the sender clocks in it and draws its random
// tie-break over the tree's tie count, the time-ordered loop keeps each
// processor's best candidate start. Both produce timelines
// bit-identical to the straightforward scans, which are kept as
// reference paths for the differential tests. See DESIGN.md §perf.
//
// Each processor carries two gap floors, the earliest start of its next
// send and of its next receive that its last operation allows (that
// operation's start plus loggp.Params.Interval). They are set once at
// commit from the message size's arrival delay and like/unlike
// intervals, which the session derives again only when the size differs
// from the last one committed, so evaluating a candidate is a
// comparison of the clock with a floor.
//
// A Session chains multiple alternating computation and communication
// steps — the paper's restricted program class — carrying both the
// per-processor clocks and the gap state (a network-interface constraint
// that does not vanish at step boundaries) across steps. Sessions are
// reusable: Reset (or Reconfigure, to re-aim at a different machine)
// returns a session to its freshly constructed state while keeping every
// internal buffer, so sweep drivers evaluate candidates without
// steady-state allocation.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"loggpsim/internal/eventq"
	"loggpsim/internal/loggp"
	"loggpsim/internal/timeline"
	"loggpsim/internal/trace"
)

// Config controls a simulation.
type Config struct {
	// Params is the LogGP machine description.
	Params loggp.Params
	// Ready optionally gives each processor's clock at the start of the
	// communication step (the time its preceding computation finished).
	// Nil means all processors start at time zero. Its length must equal
	// the pattern's P when non-nil, and every entry must be finite and
	// non-negative.
	Ready []float64
	// Seed drives the random tie-break between processors with equal
	// clocks (the paper picks one of them randomly). Runs with the same
	// seed are identical.
	Seed int64
	// SendPriority inverts the paper's receive-over-send priority rule
	// (ablation switch).
	SendPriority bool
	// GlobalOrder replaces the paper's min-clock-sender scheduling with
	// a conservative, globally time-ordered commit loop (ablation
	// switch; see DESIGN.md §5).
	GlobalOrder bool
	// WorstCase runs the overestimation algorithm of Section 4.2 (see
	// the package comment); Seed then drives its deadlock releases. It
	// excludes SendPriority, GlobalOrder, Network and Jitter.
	WorstCase bool
	// Network, when non-nil, replaces the LogGP flat-network delivery
	// time: a message sent at start is handed to the network at
	// start + o, and arrives when the hook says (package network
	// provides contention fabrics over explicit topologies). The hook is
	// called once per network message, in commit order, so stateful
	// fabrics stay deterministic. Note the timeline verifier assumes
	// flat LogGP arrivals; it may reject network-routed timelines whose
	// routes beat L.
	Network interface {
		Arrival(src, dst, bytes int, inject float64) float64
	}

	// Jitter, when non-nil, returns an extra non-negative network delay
	// added to the arrival time of each message (indexed by its position
	// in the pattern). The machine emulator uses it to model the network
	// variance the paper notes real executions exhibit ("the LogGP model
	// gives an average behavior ... not a precise one"). The pure
	// predictor leaves it nil.
	Jitter func(msgIndex int, bytes int) float64

	// Fault, when non-nil, injects deterministic communication faults:
	// it is called once per committed send, after the Network and Jitter
	// hooks, with the session's communication-step count since Reset,
	// the message's pattern index and endpoints, and the send's start
	// time. It returns extra sender port occupancy (retransmissions
	// re-paying o, g and (k-1)G) added to the sender's clock beyond the
	// nominal o, extra delay added to the message's arrival, and an
	// error when the message is lost outright (which aborts the step
	// like a non-finite hook arrival would). Both returns must be
	// finite and non-negative. internal/faults provides seed-
	// deterministic implementations (Injector.SendOutcome); a nil hook
	// is the zero-fault path, bit-identical to pre-hook behaviour. Like
	// Jitter, fault delays break the timeline verifier's flat-LogGP
	// arrival assumption and the static bound certificates' upper
	// bound.
	Fault func(step, msgIndex, src, dst, bytes int, start float64) (busy, delay float64, err error)

	// NoTimeline enables the quiet fast path for callers that only need
	// finish times and clocks (sweeps evaluate hundreds of candidates and
	// throw every timeline away): Communicate skips all timeline
	// recording and the per-step ProcFinish allocation, leaving
	// Result.Timeline and Result.ProcFinish nil. The schedule itself is
	// computed identically, so Finish and the session clocks are exactly
	// the values a recording run produces.
	NoTimeline bool
}

// Result is the outcome of simulating one communication step.
type Result struct {
	// Timeline records every committed operation of the step; nil when
	// the quiet mode (Config.NoTimeline) is on.
	Timeline *timeline.Timeline
	// Finish is the completion time of the step: the maximum processor
	// finish time.
	Finish float64
	// ProcFinish is each processor's clock after the step, counting its
	// ready time even if it performed no operation; nil in quiet mode
	// (use Session.Clocks / ClocksInto instead).
	ProcFinish []float64
	// SelfMessages counts pattern messages with equal endpoints, which
	// the LogGP simulation skips (they are local memory transfers; the
	// paper's §6.3 names this a deliberate source of underestimation).
	SelfMessages int
	// DeadlocksBroken counts the forced sends the worst-case algorithm
	// made to escape cyclic waits; zero unless Config.WorstCase.
	DeadlocksBroken int
}

// procState is the per-processor bookkeeping of Figure 2. States live in
// one flat slice on the session, and the send queues are windows into a
// shared arena sized from the pattern, so a step's setup costs no
// steady-state allocation.
type procState struct {
	ctime float64 // current simulation time
	// The gap floors the last operation leaves: its start plus
	// loggp.Params.Interval to a next send and to a next receive, set
	// at commit; zero before the first operation.
	floorSend, floorRecv float64
	sendQ                []int // message indices in send order (session arena window)
	sendHead             int
	recvQ                eventq.Queue[int] // message indices keyed by arrival time
	// The Section-4.2 gate: the step's messages not yet received, and
	// the sends released early to break a cyclic wait.
	toRecv, forced int
}

func (s *procState) wantsSend() bool { return s.sendHead < len(s.sendQ) }

// earliest returns the earliest legal start for an operation behind
// the given gap floor (floorSend or floorRecv), not considering message
// arrival. Clocks are non-negative, so the zero floor of a processor
// that has not operated yet leaves its clock.
func (s *procState) earliest(floor float64) float64 {
	if floor > s.ctime {
		return floor
	}
	return s.ctime
}

// sizeDeriv holds the machine's LogGP derivatives for one message size:
// the arrival delay, and the interval from an operation on such a
// message to the next operation of the same kind (like) and of the
// other kind (unlike).
type sizeDeriv struct {
	bytes            int // 0 when nothing is cached (sizes are at least 1)
	ad, like, unlike float64
}

// Session simulates a program of alternating computation and
// communication steps on one machine, preserving clocks and gap state
// between steps.
type Session struct {
	cfg      Config
	cfgProcs int // processor count given to Reconfigure; Reset(nil) restores it
	p        int
	st       []procState
	rng      *rand.Rand
	// hookErr records a non-finite arrival produced by the Network or
	// Jitter hook, or a fault-hook failure (lost message, bad charge);
	// the commit loops stop on it and Communicate reports it (a NaN key
	// would otherwise silently corrupt the receive heaps).
	hookErr error
	// step counts the Communicate calls since Reset; the Fault hook
	// receives it so fault decisions can vary across a program's
	// communication steps.
	step int

	// dv caches the derivatives of the last message size committed;
	// Reconfigure clears it, since they depend on the machine.
	dv sizeDeriv

	// Step scratch, reused across Communicate calls.
	sendArena []int
	counts    []int
	tt        eventq.Tournament
	ttKind    []loggp.OpKind
	blocked   []int
}

// NewSession returns a session over procs processors. cfg.Ready, if set,
// seeds the initial clocks.
func NewSession(procs int, cfg Config) (*Session, error) {
	s := &Session{}
	if err := s.Reconfigure(procs, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reconfigure re-aims the session at a new machine description and
// processor count, reusing all internal storage, and resets it (see
// Reset). A reconfigured session is indistinguishable from one freshly
// built by NewSession with the same arguments.
func (s *Session) Reconfigure(procs int, cfg Config) error {
	if err := cfg.Params.Validate(); err != nil {
		return err
	}
	if procs <= 0 {
		return fmt.Errorf("sim: session needs at least one processor, got %d", procs)
	}
	if procs > cfg.Params.P {
		return fmt.Errorf("sim: session uses %d processors but machine has P=%d", procs, cfg.Params.P)
	}
	if cfg.Ready != nil && len(cfg.Ready) != procs {
		return fmt.Errorf("sim: %d ready times for %d processors", len(cfg.Ready), procs)
	}
	if err := validateReady(cfg.Ready); err != nil {
		return err
	}
	if cfg.WorstCase && (cfg.SendPriority || cfg.GlobalOrder || cfg.Network != nil || cfg.Jitter != nil) {
		return fmt.Errorf("sim: the worst-case algorithm takes no SendPriority, GlobalOrder, Network or Jitter")
	}
	s.cfg = cfg
	s.cfgProcs = procs
	s.dv = sizeDeriv{}
	s.resize(procs)
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return s.Reset(nil)
}

// Reset returns the session to its initial state — clocks, gap state,
// queues and the tie-break RNG all as freshly constructed — while
// keeping every internal buffer, so a sweep can reuse one session per
// worker and evaluate candidates allocation-free. ready overrides the
// configured start clocks; nil restores Config.Ready (or zero clocks).
// A non-nil ready of a different length re-dimensions the session to
// len(ready) processors (still bounded by Params.P), so one session can
// serve patterns of different sizes.
func (s *Session) Reset(ready []float64) error {
	if ready == nil {
		ready = s.cfg.Ready
		s.resize(s.cfgProcs) // restore the configured shape
	} else {
		if len(ready) == 0 {
			return fmt.Errorf("sim: session needs at least one processor, got 0 ready times")
		}
		if len(ready) > s.cfg.Params.P {
			return fmt.Errorf("sim: session uses %d processors but machine has P=%d", len(ready), s.cfg.Params.P)
		}
		if err := validateReady(ready); err != nil {
			return err
		}
		s.resize(len(ready))
	}
	s.rng.Seed(s.cfg.Seed)
	s.hookErr = nil
	s.step = 0
	for i := range s.st {
		st := &s.st[i]
		st.ctime = 0
		if ready != nil {
			st.ctime = ready[i]
		}
		st.floorSend, st.floorRecv = 0, 0
		st.sendQ = nil
		st.sendHead = 0
		st.recvQ.Clear()
		st.toRecv, st.forced = 0, 0
	}
	return nil
}

// validateReady rejects the start clocks that would corrupt the
// simulation: NaN and ±Inf poison every comparison (and the receive-heap
// ordering downstream), negative times precede the program's origin.
func validateReady(ready []float64) error {
	for i, t := range ready {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return fmt.Errorf("sim: ready time %g for processor %d: must be finite and non-negative", t, i)
		}
	}
	return nil
}

// resize sets the processor count, reviving previously used state (and
// its queue storage) from the slice capacity where possible.
func (s *Session) resize(procs int) {
	if procs <= cap(s.st) {
		s.st = s.st[:procs]
	} else {
		s.st = append(s.st[:cap(s.st)], make([]procState, procs-cap(s.st))...)
	}
	s.p = procs
}

// Clocks returns a copy of the current per-processor clocks.
func (s *Session) Clocks() []float64 {
	return s.ClocksInto(nil)
}

// ClocksInto writes the current per-processor clocks into dst, growing it
// if needed, and returns the slice. Sweep drivers call it once per step
// with a reused buffer to keep the hot loop allocation-free.
func (s *Session) ClocksInto(dst []float64) []float64 {
	if cap(dst) < s.p {
		dst = make([]float64, s.p)
	}
	dst = dst[:s.p]
	for i := range s.st {
		dst[i] = s.st[i].ctime
	}
	return dst
}

// Finish returns the maximum clock: the program's running time so far.
func (s *Session) Finish() float64 {
	finish := 0.0
	for i := range s.st {
		if s.st[i].ctime > finish {
			finish = s.st[i].ctime
		}
	}
	return finish
}

// Compute advances each processor's clock by its computation duration
// (a computation step of the paper's program class). durs must have one
// entry per processor; negative durations are rejected.
func (s *Session) Compute(durs []float64) error {
	if len(durs) != s.p {
		return fmt.Errorf("sim: %d computation durations for %d processors", len(durs), s.p)
	}
	for i, d := range durs {
		if d < 0 {
			return fmt.Errorf("sim: processor %d has negative computation time %g", i, d)
		}
		s.st[i].ctime += d
	}
	return nil
}

// AdvanceTo raises a processor's clock to at least t (a no-op if the
// clock is already past t). The predictor's overlap mode uses it to
// impose the busy-time bound of computation that ran concurrently with a
// communication phase.
func (s *Session) AdvanceTo(proc int, t float64) error {
	if proc < 0 || proc >= s.p {
		return fmt.Errorf("sim: processor %d outside [0,%d)", proc, s.p)
	}
	if t > s.st[proc].ctime {
		s.st[proc].ctime = t
	}
	return nil
}

// Communicate simulates one communication step, updating the session
// state.
func (s *Session) Communicate(pt *trace.Pattern) (*Result, error) {
	r := &Result{}
	if err := s.CommunicateInto(r, pt); err != nil {
		return nil, err
	}
	return r, nil
}

// CommunicateInto is Communicate writing into a caller-owned Result,
// which is reset first. In quiet mode (Config.NoTimeline) a steady-state
// call allocates nothing, so sweep drivers that reuse one Result per
// worker evaluate candidates allocation-free.
func (s *Session) CommunicateInto(r *Result, pt *trace.Pattern) error {
	if err := s.startStep(r, pt); err != nil {
		return err
	}
	if s.cfg.GlobalOrder || s.cfg.WorstCase {
		s.runGlobalOrder(pt, r)
	} else {
		s.runPaper(pt, r)
	}
	return s.finishStep(r)
}

// startStep checks pt against the session, resets r and builds the
// step's send and receive queues and counters: everything a
// communication step does before its scheduler core runs.
func (s *Session) startStep(r *Result, pt *trace.Pattern) error {
	if err := pt.Validate(); err != nil {
		return err
	}
	if pt.P != s.p {
		return fmt.Errorf("sim: pattern uses %d processors but session has %d", pt.P, s.p)
	}
	*r = Result{}
	if !s.cfg.NoTimeline {
		r.Timeline = timeline.New(pt.P)
	}
	// Build every processor's send queue in one shared arena and pre-size
	// the receive queues from the in-degrees: two O(M) passes, no
	// steady-state allocation.
	if cap(s.counts) < 2*s.p {
		s.counts = make([]int, 2*s.p)
	}
	outCnt, inCnt := s.counts[:s.p], s.counts[s.p:2*s.p]
	clear(outCnt)
	clear(inCnt)
	for _, m := range pt.Msgs {
		if m.Src == m.Dst {
			r.SelfMessages++
			continue
		}
		outCnt[m.Src]++
		inCnt[m.Dst]++
	}
	off := 0
	for i, n := range outCnt {
		outCnt[i] = off
		off += n
	}
	if cap(s.sendArena) < off {
		// Grow geometrically: a session whose steps keep growing (GE's
		// do until the middle wave) reallocates a logarithmic number of
		// times.
		s.sendArena = make([]int, max(off, 2*cap(s.sendArena)))
	}
	arena := s.sendArena[:off]
	for idx, m := range pt.Msgs {
		if m.Src == m.Dst {
			continue
		}
		arena[outCnt[m.Src]] = idx
		outCnt[m.Src]++ // outCnt[i] ends as processor i's arena end offset
	}
	prev := 0
	for i := range s.st {
		s.st[i].sendQ = arena[prev:outCnt[i]]
		prev = outCnt[i]
		s.st[i].recvQ.Reserve(inCnt[i])
		s.st[i].toRecv = inCnt[i]
	}
	return nil
}

// finishStep closes a communication step after its scheduler core ran:
// it advances the step counter, resets the per-step queues, reports a
// hook failure, and fills r's finish times.
func (s *Session) finishStep(r *Result) error {
	// Reset the per-step queues; clocks and gap state persist. The step
	// counter advances even on a hook failure: the fault identity space
	// is per-attempted-step.
	s.step++
	for i := range s.st {
		s.st[i].sendQ = nil
		s.st[i].sendHead = 0
		s.st[i].toRecv, s.st[i].forced = 0, 0
	}
	if s.hookErr != nil {
		return fmt.Errorf("%w (session state is inconsistent; Reset before reuse)", s.hookErr)
	}
	if !s.cfg.NoTimeline {
		r.ProcFinish = make([]float64, s.p)
		for i := range s.st {
			r.ProcFinish[i] = s.st[i].ctime
		}
	}
	for i := range s.st {
		if s.st[i].ctime > r.Finish {
			r.Finish = s.st[i].ctime
		}
	}
	return nil
}

// deriv returns the derivatives of a message size, computing them only
// when the size differs from the last one committed.
func (s *Session) deriv(bytes int) *sizeDeriv {
	if s.dv.bytes != bytes {
		p := &s.cfg.Params
		s.dv = sizeDeriv{
			bytes:  bytes,
			ad:     p.ArrivalDelay(bytes),
			like:   p.Interval(loggp.Send, loggp.Send, bytes),
			unlike: p.Interval(loggp.Send, loggp.Recv, bytes),
		}
	}
	return &s.dv
}

// commitSend performs the head send of processor src at the given start
// time, enqueues the arrival at the destination, and advances the clock;
// a gated send consumes a forced release.
func (s *Session) commitSend(pt *trace.Pattern, tl *timeline.Timeline, src int, start float64) {
	st := &s.st[src]
	if s.cfg.WorstCase && st.toRecv != 0 {
		st.forced--
	}
	idx := st.sendQ[st.sendHead]
	st.sendHead++
	m := pt.Msgs[idx]
	if tl != nil {
		tl.Record(timeline.Op{
			Proc: src, Kind: loggp.Send, Peer: m.Dst, Bytes: m.Bytes,
			Start: start, MsgIndex: idx,
		})
	}
	d := s.deriv(m.Bytes)
	arrival := start + d.ad
	if s.cfg.Network != nil {
		arrival = s.cfg.Network.Arrival(m.Src, m.Dst, m.Bytes, start+s.cfg.Params.O)
	}
	if s.cfg.Jitter != nil {
		// A NaN must propagate into arrival (to be rejected below) rather
		// than be silently dropped by the positivity guard.
		if extra := s.cfg.Jitter(idx, m.Bytes); extra > 0 || math.IsNaN(extra) {
			arrival += extra
		}
	}
	busy := 0.0
	if s.cfg.Fault != nil {
		extraBusy, delay, err := s.cfg.Fault(s.step, idx, m.Src, m.Dst, m.Bytes, start)
		if err != nil {
			s.hookErr = fmt.Errorf("sim: message %d (%d->%d): %w", idx, m.Src, m.Dst, err)
			return
		}
		if math.IsNaN(extraBusy) || math.IsInf(extraBusy, 0) || extraBusy < 0 {
			s.hookErr = fmt.Errorf("sim: message %d (%d->%d): fault hook returned bad busy time %g",
				idx, m.Src, m.Dst, extraBusy)
			return
		}
		busy = extraBusy
		arrival += delay
	}
	if s.cfg.Network != nil || s.cfg.Jitter != nil || s.cfg.Fault != nil {
		// A NaN or ±Inf key from a hook would silently corrupt the
		// receive heap's ordering; refuse it before it enters the queue.
		if math.IsNaN(arrival) || math.IsInf(arrival, 0) {
			s.hookErr = fmt.Errorf("sim: message %d (%d->%d): non-finite arrival time %g from network/jitter/fault hook",
				idx, m.Src, m.Dst, arrival)
			return
		}
	}
	s.st[m.Dst].recvQ.Push(arrival, idx)
	st.ctime = start + s.cfg.Params.O + busy
	st.floorSend, st.floorRecv = start+d.like, start+d.unlike
}

// commitRecv performs the earliest pending receive of processor dst at
// the given start time and advances the clock.
func (s *Session) commitRecv(pt *trace.Pattern, tl *timeline.Timeline, dst int, start float64) {
	st := &s.st[dst]
	arrival, idx := st.recvQ.Pop()
	m := pt.Msgs[idx]
	if tl != nil {
		tl.Record(timeline.Op{
			Proc: dst, Kind: loggp.Recv, Peer: m.Src, Bytes: m.Bytes,
			Start: start, Arrival: arrival, MsgIndex: idx,
		})
	}
	st.toRecv--
	d := s.deriv(m.Bytes)
	st.ctime = start + s.cfg.Params.O
	st.floorSend, st.floorRecv = start+d.unlike, start+d.like
}

// candidateStarts returns the earliest start times of proc's next send
// and next receive (+Inf when it has none pending; a WorstCase send also
// when its gate is shut).
func (s *Session) candidateStarts(st *procState) (startSend, startRecv float64) {
	startSend, startRecv = math.Inf(1), math.Inf(1)
	if st.wantsSend() && (!s.cfg.WorstCase || st.toRecv == 0 || st.forced > 0) {
		startSend = st.earliest(st.floorSend)
	}
	if !st.recvQ.Empty() {
		arrival, _ := st.recvQ.Peek()
		startRecv = max(st.earliest(st.floorRecv), arrival)
	}
	return startSend, startRecv
}

// runPaper is the Figure-2 main loop plus the drain phase, served by the
// tournament tree over the clocks of the processors that still want to
// send (+Inf for the rest): each iteration draws the (randomly
// tie-broken) minimum-clock sender in O(log P) instead of rescanning all
// P processors. The tree lists the equal-minimum set in ascending
// processor order, as the reference scan collects it, and the RNG is
// consulted only when that set has more than one member, so the draw
// sequence is the reference's. Only the committed processor's clock can
// change between iterations, so one leaf update re-seats it.
func (s *Session) runPaper(pt *trace.Pattern, r *Result) {
	tt := &s.tt
	tt.Reset(s.p)
	for i := range s.st {
		if s.st[i].wantsSend() {
			tt.Update(i, s.st[i].ctime)
		}
	}
	for s.hookErr == nil {
		ties := tt.Ties()
		if ties == 0 {
			break
		}
		k := 0
		if ties > 1 {
			k = s.rng.Intn(ties)
		}
		proc := tt.Nth(k)
		st := &s.st[proc]
		startSend, startRecv := s.candidateStarts(st)
		sendWins := startSend < startRecv
		if s.cfg.SendPriority {
			sendWins = startSend <= startRecv
		}
		if sendWins {
			s.commitSend(pt, r.Timeline, proc, startSend)
		} else {
			s.commitRecv(pt, r.Timeline, proc, startRecv)
		}
		key := math.Inf(1)
		if st.wantsSend() {
			key = st.ctime
		}
		tt.Update(proc, key)
	}
	s.drainReceives(pt, r)
}

// drainReceives is the post-main-loop phase: every processor performs
// its remaining receives.
func (s *Session) drainReceives(pt *trace.Pattern, r *Result) {
	if s.hookErr != nil {
		return
	}
	for proc := range s.st {
		st := &s.st[proc]
		for !st.recvQ.Empty() {
			arrival, _ := st.recvQ.Peek()
			start := max(st.earliest(st.floorRecv), arrival)
			s.commitRecv(pt, r.Timeline, proc, start)
		}
	}
}

// runGlobalOrder commits, at every iteration, the operation with the
// globally smallest start time (receives winning ties, then lower
// processor index). Unlike the paper's loop it can never commit a receive
// whose message is logically preceded by an uncommitted earlier send.
// When nothing can commit but messages remain unsent (only the
// WorstCase gate blocks a send), one blocked sender, drawn at random in
// processor order, is released.
//
// After a commit only the committed processor's candidates — and, for a
// send, the destination's receive candidate — can change, so the per-
// processor best candidates are cached in a tournament tree and only
// those one or two leaves are recomputed, replacing the reference loop's
// 2P candidate evaluations per iteration.
func (s *Session) runGlobalOrder(pt *trace.Pattern, r *Result) {
	s.tt.Reset(s.p)
	if cap(s.ttKind) < s.p {
		s.ttKind = make([]loggp.OpKind, s.p)
	}
	s.ttKind = s.ttKind[:s.p]
	for i := range s.st {
		s.refreshCandidate(i)
	}
	for s.hookErr == nil {
		best, bestStart := s.tt.Min()
		if best < 0 {
			s.blocked = s.blocked[:0]
			for i := range s.st {
				if s.st[i].wantsSend() {
					s.blocked = append(s.blocked, i)
				}
			}
			if len(s.blocked) == 0 {
				return
			}
			release := s.blocked[s.rng.Intn(len(s.blocked))]
			s.st[release].forced++
			s.refreshCandidate(release)
			r.DeadlocksBroken++
			continue
		}
		if s.ttKind[best] == loggp.Send {
			st := &s.st[best]
			dst := pt.Msgs[st.sendQ[st.sendHead]].Dst
			s.commitSend(pt, r.Timeline, best, bestStart)
			s.refreshCandidate(best)
			s.refreshCandidate(dst)
		} else {
			s.commitRecv(pt, r.Timeline, best, bestStart)
			s.refreshCandidate(best)
		}
	}
}

// refreshCandidate recomputes processor i's best next operation — the
// smaller of its send and receive candidate starts, the priority kind
// winning ties — and updates its tournament leaf.
func (s *Session) refreshCandidate(i int) {
	startSend, startRecv := s.candidateStarts(&s.st[i])
	first, second := startRecv, startSend
	firstKind, secondKind := loggp.Recv, loggp.Send
	if s.cfg.SendPriority {
		first, second = startSend, startRecv
		firstKind, secondKind = loggp.Send, loggp.Recv
	}
	key, kind := first, firstKind
	if second < key {
		key, kind = second, secondKind
	}
	s.ttKind[i] = kind
	s.tt.Update(i, key)
}

// Run simulates a single communication step with fresh state; see
// Session for multi-step programs.
func Run(pt *trace.Pattern, cfg Config) (*Result, error) {
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	s, err := NewSession(pt.P, cfg)
	if err != nil {
		return nil, err
	}
	return s.Communicate(pt)
}

// Completion is a convenience wrapper returning only the completion time
// of a pattern on a machine, with all processors ready at time zero.
func Completion(pt *trace.Pattern, params loggp.Params) (float64, error) {
	r, err := Run(pt, Config{Params: params})
	if err != nil {
		return 0, err
	}
	return r.Finish, nil
}
