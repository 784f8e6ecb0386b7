// Package worstcase implements the paper's overestimation simulation
// algorithm (Section 4.2): every processor first waits for all the
// messages it has to receive — tracked by a messages-to-receive counter —
// and only afterwards starts transmitting its own. The algorithm cannot
// occur in a real Split-C execution (processors do not know their receive
// counts and programmers send eagerly); it exists purely to give an upper
// bound on the communication time under the LogGP model.
//
// On communication patterns whose processor graph contains cycles the
// strategy deadlocks — every processor in a cycle waits forever — so,
// as the paper prescribes, the algorithm performs some message
// transmissions at random to break the deadlock.
//
// The globally time-ordered commit loop is served by an incrementally
// maintained tournament tree over the per-processor candidate starts
// (after a commit only one or two processors' candidates can change),
// replacing a full 2P-candidate rescan per committed operation; the
// rescan loop lives in reference_test.go as the oracle of the
// differential tests and the fuzzer, which prove the two bit-identical.
// See DESIGN.md §perf.
//
// Like sim, the package offers a Session for chaining the alternating
// computation and communication steps of a program, carrying clocks and
// gap state across steps; Reset and Reconfigure return a session to its
// freshly constructed state without giving up its internal buffers.
package worstcase

import (
	"fmt"
	"math"
	"math/rand"

	"loggpsim/internal/eventq"
	"loggpsim/internal/loggp"
	"loggpsim/internal/timeline"
	"loggpsim/internal/trace"
)

// Config controls a worst-case simulation.
type Config struct {
	// Params is the LogGP machine description.
	Params loggp.Params
	// Ready optionally gives per-processor start clocks (see sim.Config).
	// Every entry must be finite and non-negative.
	Ready []float64
	// Seed drives the random choice of which blocked processor releases
	// a message when a deadlock must be broken.
	Seed int64
	// NoTimeline enables the quiet fast path (see sim.Config.NoTimeline):
	// Communicate skips timeline recording and the ProcFinish allocation,
	// leaving Result.Timeline and Result.ProcFinish nil while computing
	// the identical schedule.
	NoTimeline bool
	// Fault, when non-nil, injects deterministic communication faults
	// (see sim.Config.Fault): called once per committed send — forced
	// deadlock releases included — returning extra sender occupancy,
	// extra arrival delay, and an error for a lost message. The same
	// hook drives both schedulers so a fault plan perturbs the standard
	// and the worst-case prediction coherently. Fault delays break the
	// static bound certificates' upper bound (internal/analyze).
	Fault func(step, msgIndex, src, dst, bytes int, start float64) (busy, delay float64, err error)
}

// Result is the outcome of one worst-case communication step.
type Result struct {
	// Timeline records every committed operation; nil in quiet mode.
	Timeline *timeline.Timeline
	// Finish is the completion time of the step.
	Finish float64
	// ProcFinish is each processor's clock after the step; nil in quiet
	// mode (use Session.Clocks / ClocksInto instead).
	ProcFinish []float64
	// SelfMessages counts skipped local messages.
	SelfMessages int
	// DeadlocksBroken counts forced sends issued to escape cyclic waits.
	DeadlocksBroken int
}

// procState is the per-processor bookkeeping. States live in one flat
// slice on the session, and the send queues are windows into a shared
// arena sized from the pattern (see sim.procState).
type procState struct {
	ctime     float64
	hasLast   bool
	lastKind  loggp.OpKind
	lastStart float64
	lastBytes int
	sendQ     []int // session arena window
	sendHead  int
	recvQ     eventq.Queue[int]
	// toRecv is the messages-to-receive counter of Section 4.2: how many
	// network messages this processor has not yet received. Sends are
	// blocked while it is positive.
	toRecv int
	// forced counts sends released early to break deadlocks; they are
	// exempt from the wait-for-receives rule.
	forced int
}

func (s *procState) wantsSend() bool { return s.sendHead < len(s.sendQ) }

func (s *procState) earliest(p loggp.Params, kind loggp.OpKind) float64 {
	t := s.ctime
	if s.hasLast {
		if c := s.lastStart + p.Interval(s.lastKind, kind, s.lastBytes); c > t {
			t = c
		}
	}
	return t
}

// Session chains alternating computation and communication steps under
// the worst-case strategy.
type Session struct {
	cfg      Config
	cfgProcs int // processor count given to Reconfigure; Reset(nil) restores it
	p        int
	st       []procState
	rng      *rand.Rand
	// hookErr records a Fault-hook failure (lost message, non-finite
	// charge); the commit loops stop on it and Communicate reports it.
	hookErr error
	// step counts the Communicate calls since Reset (the Fault hook's
	// step identity; see sim.Session).
	step int

	// Step scratch, reused across Communicate calls.
	sendArena []int
	counts    []int
	tt        eventq.Tournament
	ttKind    []loggp.OpKind
	blocked   []int
}

// NewSession returns a session over procs processors.
func NewSession(procs int, cfg Config) (*Session, error) {
	s := &Session{}
	if err := s.Reconfigure(procs, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reconfigure re-aims the session at a new machine description and
// processor count, reusing all internal storage, and resets it. A
// reconfigured session is indistinguishable from a fresh NewSession with
// the same arguments.
func (s *Session) Reconfigure(procs int, cfg Config) error {
	if err := cfg.Params.Validate(); err != nil {
		return err
	}
	if procs <= 0 {
		return fmt.Errorf("worstcase: session needs at least one processor, got %d", procs)
	}
	if procs > cfg.Params.P {
		return fmt.Errorf("worstcase: session uses %d processors but machine has P=%d", procs, cfg.Params.P)
	}
	if cfg.Ready != nil && len(cfg.Ready) != procs {
		return fmt.Errorf("worstcase: %d ready times for %d processors", len(cfg.Ready), procs)
	}
	if err := validateReady(cfg.Ready); err != nil {
		return err
	}
	s.cfg = cfg
	s.cfgProcs = procs
	s.resize(procs)
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return s.Reset(nil)
}

// Reset returns the session to its initial state — clocks, gap state,
// queues, counters and the deadlock RNG all as freshly constructed —
// keeping every internal buffer (see sim.Session.Reset). ready overrides
// the configured start clocks; nil restores Config.Ready (or zero
// clocks). A non-nil ready of a different length re-dimensions the
// session to len(ready) processors (still bounded by Params.P).
func (s *Session) Reset(ready []float64) error {
	if ready == nil {
		ready = s.cfg.Ready
		s.resize(s.cfgProcs) // restore the configured shape
	} else {
		if len(ready) == 0 {
			return fmt.Errorf("worstcase: session needs at least one processor, got 0 ready times")
		}
		if len(ready) > s.cfg.Params.P {
			return fmt.Errorf("worstcase: session uses %d processors but machine has P=%d", len(ready), s.cfg.Params.P)
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
		st.hasLast = false
		st.lastKind = 0
		st.lastStart = 0
		st.lastBytes = 0
		st.sendQ = nil
		st.sendHead = 0
		st.recvQ.Clear()
		st.toRecv = 0
		st.forced = 0
	}
	return nil
}

func validateReady(ready []float64) error {
	for i, t := range ready {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return fmt.Errorf("worstcase: ready time %g for processor %d: must be finite and non-negative", t, i)
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
// if needed, and returns the slice (see sim.Session.ClocksInto).
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

// Finish returns the maximum clock.
func (s *Session) Finish() float64 {
	finish := 0.0
	for i := range s.st {
		if s.st[i].ctime > finish {
			finish = s.st[i].ctime
		}
	}
	return finish
}

// Compute advances each processor's clock by its computation duration.
func (s *Session) Compute(durs []float64) error {
	if len(durs) != s.p {
		return fmt.Errorf("worstcase: %d computation durations for %d processors", len(durs), s.p)
	}
	for i, d := range durs {
		if d < 0 {
			return fmt.Errorf("worstcase: processor %d has negative computation time %g", i, d)
		}
		s.st[i].ctime += d
	}
	return nil
}

// AdvanceTo raises a processor's clock to at least t (see
// sim.Session.AdvanceTo).
func (s *Session) AdvanceTo(proc int, t float64) error {
	if proc < 0 || proc >= s.p {
		return fmt.Errorf("worstcase: processor %d outside [0,%d)", proc, s.p)
	}
	if t > s.st[proc].ctime {
		s.st[proc].ctime = t
	}
	return nil
}

// Communicate simulates one communication step under the worst-case
// strategy, updating the session state.
func (s *Session) Communicate(pt *trace.Pattern) (*Result, error) {
	r := &Result{}
	if err := s.CommunicateInto(r, pt); err != nil {
		return nil, err
	}
	return r, nil
}

// CommunicateInto is Communicate writing into a caller-owned Result,
// which is reset first; in quiet mode a steady-state call allocates
// nothing (see sim.Session.CommunicateInto).
func (s *Session) CommunicateInto(r *Result, pt *trace.Pattern) error {
	if err := s.startStep(r, pt); err != nil {
		return err
	}
	s.run(pt, r)
	return s.finishStep(r)
}

// startStep checks pt against the session, resets r, builds the step's
// send and receive queues and sets the messages-to-receive counters:
// everything a communication step does before its commit loop runs.
func (s *Session) startStep(r *Result, pt *trace.Pattern) error {
	if err := pt.Validate(); err != nil {
		return err
	}
	if pt.P != s.p {
		return fmt.Errorf("worstcase: pattern uses %d processors but session has %d", pt.P, s.p)
	}
	*r = Result{}
	if !s.cfg.NoTimeline {
		r.Timeline = timeline.New(pt.P)
	}
	// Build the send queues in the shared arena, pre-size the receive
	// queues, and set the messages-to-receive counters: two O(M) passes,
	// no steady-state allocation (see sim.Session.Communicate).
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
		s.sendArena = make([]int, off)
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
		st := &s.st[i]
		st.sendQ = arena[prev:outCnt[i]]
		prev = outCnt[i]
		st.recvQ.Reserve(inCnt[i])
		st.toRecv = inCnt[i]
	}
	return nil
}

// finishStep closes a communication step after its commit loop ran: it
// advances the step counter, resets the per-step queues and counters,
// reports a hook failure, and fills r's finish times.
func (s *Session) finishStep(r *Result) error {
	// Reset the per-step queues; clocks and gap state persist. The step
	// counter advances even on a hook failure: the fault identity space
	// is per-attempted-step (see sim.Session).
	s.step++
	for i := range s.st {
		st := &s.st[i]
		st.sendQ = nil
		st.sendHead = 0
		st.toRecv = 0
		st.forced = 0
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

// commitSend performs the head send of processor src at the given start
// time: the message arrives at the destination, the clock and gap state
// advance, and a forced release is consumed when the counter has not
// drained.
func (s *Session) commitSend(pt *trace.Pattern, r *Result, src int, start float64) {
	p := s.cfg.Params
	st := &s.st[src]
	if st.toRecv != 0 {
		st.forced--
	}
	idx := st.sendQ[st.sendHead]
	st.sendHead++
	m := pt.Msgs[idx]
	if r.Timeline != nil {
		r.Timeline.Record(timeline.Op{
			Proc: src, Kind: loggp.Send, Peer: m.Dst, Bytes: m.Bytes,
			Start: start, MsgIndex: idx,
		})
	}
	arrival := start + p.ArrivalDelay(m.Bytes)
	busy := 0.0
	if s.cfg.Fault != nil {
		extraBusy, delay, err := s.cfg.Fault(s.step, idx, m.Src, m.Dst, m.Bytes, start)
		if err != nil {
			s.hookErr = fmt.Errorf("worstcase: message %d (%d->%d): %w", idx, m.Src, m.Dst, err)
			return
		}
		arrival += delay
		busy = extraBusy
		// A NaN or ±Inf from the hook would corrupt the receive heap's
		// ordering (and every later clock max); refuse it here.
		if math.IsNaN(arrival) || math.IsInf(arrival, 0) || math.IsNaN(busy) || math.IsInf(busy, 0) || busy < 0 {
			s.hookErr = fmt.Errorf("worstcase: message %d (%d->%d): bad fault charge (busy %g, arrival %g)",
				idx, m.Src, m.Dst, busy, arrival)
			return
		}
	}
	s.st[m.Dst].recvQ.Push(arrival, idx)
	st.ctime = start + p.O + busy
	st.hasLast, st.lastKind, st.lastStart, st.lastBytes = true, loggp.Send, start, m.Bytes
}

// commitRecv performs the earliest pending receive of processor dst at
// the given start time, draining the messages-to-receive counter.
func (s *Session) commitRecv(pt *trace.Pattern, r *Result, dst int, start float64) {
	p := s.cfg.Params
	st := &s.st[dst]
	arrival, idx := st.recvQ.Pop()
	m := pt.Msgs[idx]
	if r.Timeline != nil {
		r.Timeline.Record(timeline.Op{
			Proc: dst, Kind: loggp.Recv, Peer: m.Src, Bytes: m.Bytes,
			Start: start, Arrival: arrival, MsgIndex: idx,
		})
	}
	st.toRecv--
	st.ctime = start + p.O
	st.hasLast, st.lastKind, st.lastStart, st.lastBytes = true, loggp.Recv, start, m.Bytes
}

// candidateStarts returns the earliest start times of proc's next
// eligible send — blocked entirely while the messages-to-receive counter
// is positive and no forced release is banked — and its next receive
// (+Inf when it has none pending).
func (s *Session) candidateStarts(st *procState) (startSend, startRecv float64) {
	p := s.cfg.Params
	startSend, startRecv = math.Inf(1), math.Inf(1)
	if st.wantsSend() && (st.toRecv == 0 || st.forced > 0) {
		startSend = st.earliest(p, loggp.Send)
	}
	if !st.recvQ.Empty() {
		arrival, _ := st.recvQ.Peek()
		startRecv = max(st.earliest(p, loggp.Recv), arrival)
	}
	return startSend, startRecv
}

// refreshCandidate recomputes processor i's best next operation — the
// smaller of its receive and eligible-send starts, receives winning ties
// — and updates its tournament leaf.
func (s *Session) refreshCandidate(i int) {
	startSend, startRecv := s.candidateStarts(&s.st[i])
	key, kind := startRecv, loggp.Recv
	if startSend < key {
		key, kind = startSend, loggp.Send
	}
	s.ttKind[i] = kind
	s.tt.Update(i, key)
}

// run commits, in global time order, the earliest available action: a
// receive whenever one has arrived, a send only once the processor's
// counter has drained (or the send was force-released). When nothing is
// available but messages remain unsent, the pattern is cyclic: one
// random blocked send is released.
//
// The per-processor candidates are cached in a tournament tree; a commit
// invalidates at most the committed processor's and — for a send — the
// destination's candidates, so each operation costs O(log P) updates
// instead of a 2P-candidate rescan.
func (s *Session) run(pt *trace.Pattern, r *Result) {
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
		if best >= 0 {
			if s.ttKind[best] == loggp.Send {
				st := &s.st[best]
				dst := pt.Msgs[st.sendQ[st.sendHead]].Dst
				s.commitSend(pt, r, best, bestStart)
				s.refreshCandidate(best)
				s.refreshCandidate(dst)
			} else {
				s.commitRecv(pt, r, best, bestStart)
				s.refreshCandidate(best)
			}
			continue
		}
		s.blocked = s.blocked[:0]
		for i := range s.st {
			if s.st[i].wantsSend() {
				s.blocked = append(s.blocked, i)
			}
		}
		if len(s.blocked) == 0 {
			break
		}
		release := s.blocked[s.rng.Intn(len(s.blocked))]
		s.st[release].forced++
		s.refreshCandidate(release)
		r.DeadlocksBroken++
	}
}

// Run simulates a single communication step with fresh state.
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
// with all processors ready at time zero.
func Completion(pt *trace.Pattern, params loggp.Params) (float64, error) {
	r, err := Run(pt, Config{Params: params})
	if err != nil {
		return 0, err
	}
	return r.Finish, nil
}
