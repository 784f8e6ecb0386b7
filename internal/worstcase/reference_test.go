package worstcase

// The reference worst-case session: the Section-4.2 strategy as a
// session of its own, with the full candidate rescan per committed
// operation in place of sim's tournament-served loop. It is the
// readable specification of the algorithm, deadlock breaking included,
// and the oracle the differential tests, the fuzzer and the reference
// benchmarks hold the production session (sim.Session in its WorstCase
// mode) to. It keeps its own plumbing — queues, counters, commits, fault
// handling, result filling — and calls nothing in package sim, so a
// slip in sim's session shows up as a difference instead of being
// shared by both sides.

import (
	"fmt"
	"math"
	"math/rand"

	"loggpsim/internal/eventq"
	"loggpsim/internal/loggp"
	"loggpsim/internal/timeline"
	"loggpsim/internal/trace"
)

// refProc is the per-processor bookkeeping of the reference session.
type refProc struct {
	ctime     float64 // current simulation time
	hasLast   bool
	lastKind  loggp.OpKind
	lastStart float64
	lastBytes int
	sendQ     []int // message indices in send order (session arena window)
	sendHead  int
	recvQ     eventq.Queue[int] // message indices keyed by arrival time
	// toRecv is the messages-to-receive counter of Section 4.2: how many
	// network messages this processor has not yet received. Sends are
	// blocked while it is positive.
	toRecv int
	// forced counts sends released early to break deadlocks; they are
	// exempt from the wait-for-receives rule.
	forced int
}

func (s *refProc) wantsSend() bool { return s.sendHead < len(s.sendQ) }

// earliest returns the earliest legal start for an operation of the
// given kind, not considering message arrival.
func (s *refProc) earliest(p loggp.Params, kind loggp.OpKind) float64 {
	t := s.ctime
	if s.hasLast {
		if c := s.lastStart + p.Interval(s.lastKind, kind, s.lastBytes); c > t {
			t = c
		}
	}
	return t
}

// refSession chains computation and communication steps under the
// reference strategy, carrying clocks, gap state, the step count and
// the deadlock RNG across steps.
type refSession struct {
	cfg     Config
	st      []refProc
	rng     *rand.Rand
	hookErr error // a fault-hook failure; the commit loop stops on it
	step    int   // communication steps since reset (the fault hook's step)

	sendArena []int
	counts    []int
}

// newRefSession returns a reference session over procs processors.
func newRefSession(procs int, cfg Config) (*refSession, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if procs <= 0 || procs > cfg.Params.P {
		return nil, fmt.Errorf("reference: %d processors on a machine of P=%d", procs, cfg.Params.P)
	}
	if cfg.Ready != nil && len(cfg.Ready) != procs {
		return nil, fmt.Errorf("reference: %d ready times for %d processors", len(cfg.Ready), procs)
	}
	s := &refSession{cfg: cfg, st: make([]refProc, procs), rng: rand.New(rand.NewSource(cfg.Seed))}
	s.reset()
	return s, nil
}

// reset returns the session to its initial state: clocks from
// Config.Ready (or zero), no gap state, empty queues, step 0 and a
// reseeded RNG.
func (s *refSession) reset() {
	s.rng.Seed(s.cfg.Seed)
	s.hookErr = nil
	s.step = 0
	for i := range s.st {
		s.st[i] = refProc{recvQ: s.st[i].recvQ}
		s.st[i].recvQ.Clear()
		if s.cfg.Ready != nil {
			s.st[i].ctime = s.cfg.Ready[i]
		}
	}
}

// compute advances each processor's clock by its computation duration.
func (s *refSession) compute(durs []float64) error {
	if len(durs) != len(s.st) {
		return fmt.Errorf("reference: %d computation durations for %d processors", len(durs), len(s.st))
	}
	for i, d := range durs {
		if d < 0 {
			return fmt.Errorf("reference: processor %d has negative computation time %g", i, d)
		}
		s.st[i].ctime += d
	}
	return nil
}

// simulateReference is Run through the reference session.
func simulateReference(pt *trace.Pattern, cfg Config) (*Result, error) {
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	s, err := newRefSession(pt.P, cfg)
	if err != nil {
		return nil, err
	}
	r := &Result{}
	if err := s.communicate(r, pt); err != nil {
		return nil, err
	}
	return r, nil
}

// communicate simulates one communication step into r, which is reset
// first.
func (s *refSession) communicate(r *Result, pt *trace.Pattern) error {
	if err := s.startStep(r, pt); err != nil {
		return err
	}
	s.run(pt, r)
	return s.finishStep(r)
}

// startStep checks pt against the session, resets r, builds the step's
// send and receive queues and sets the messages-to-receive counters.
func (s *refSession) startStep(r *Result, pt *trace.Pattern) error {
	if err := pt.Validate(); err != nil {
		return err
	}
	p := len(s.st)
	if pt.P != p {
		return fmt.Errorf("reference: pattern uses %d processors but session has %d", pt.P, p)
	}
	*r = Result{}
	if !s.cfg.NoTimeline {
		r.Timeline = timeline.New(pt.P)
	}
	if cap(s.counts) < 2*p {
		s.counts = make([]int, 2*p)
	}
	outCnt, inCnt := s.counts[:p], s.counts[p:2*p]
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

// finishStep closes a communication step: it advances the step counter
// (also after a hook failure), resets the per-step queues and counters,
// reports a hook failure, and fills r's finish times.
func (s *refSession) finishStep(r *Result) error {
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
		r.ProcFinish = make([]float64, len(s.st))
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
func (s *refSession) commitSend(pt *trace.Pattern, r *Result, src int, start float64) {
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
			s.hookErr = fmt.Errorf("reference: message %d (%d->%d): %w", idx, m.Src, m.Dst, err)
			return
		}
		arrival += delay
		busy = extraBusy
		if math.IsNaN(arrival) || math.IsInf(arrival, 0) || math.IsNaN(busy) || math.IsInf(busy, 0) || busy < 0 {
			s.hookErr = fmt.Errorf("reference: message %d (%d->%d): bad fault charge (busy %g, arrival %g)",
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
func (s *refSession) commitRecv(pt *trace.Pattern, r *Result, dst int, start float64) {
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

// run commits, in global time order, the earliest available action: a
// receive whenever one has arrived, a send only once the processor's
// counter has drained (or the send was force-released); receives win
// ties, then lower processor indices. Both candidate starts of all P
// processors are recomputed every iteration. When nothing is available
// but messages remain unsent, the pattern is cyclic: one blocked sender,
// drawn at random from the blocked set in processor order, is released.
func (s *refSession) run(pt *trace.Pattern, r *Result) {
	p := s.cfg.Params
	for s.hookErr == nil {
		best, bestStart := -1, math.Inf(1)
		bestKind := loggp.Send
		for i := range s.st {
			st := &s.st[i]
			if !st.recvQ.Empty() {
				arrival, _ := st.recvQ.Peek()
				if start := max(st.earliest(p, loggp.Recv), arrival); start < bestStart {
					best, bestStart, bestKind = i, start, loggp.Recv
				}
			}
			if st.wantsSend() && (st.toRecv == 0 || st.forced > 0) {
				if start := st.earliest(p, loggp.Send); start < bestStart {
					best, bestStart, bestKind = i, start, loggp.Send
				}
			}
		}
		if best >= 0 {
			if bestKind == loggp.Send {
				s.commitSend(pt, r, best, bestStart)
			} else {
				s.commitRecv(pt, r, best, bestStart)
			}
			continue
		}
		var blocked []int
		for i := range s.st {
			if s.st[i].wantsSend() {
				blocked = append(blocked, i)
			}
		}
		if len(blocked) == 0 {
			break
		}
		s.st[blocked[s.rng.Intn(len(blocked))]].forced++
		r.DeadlocksBroken++
	}
}
