package sim

// The reference scheduler cores: the straightforward scans the indexed
// cores of sim.go replaced. They are the readable specification of the
// Figure-2 loop and the global-order ablation, and the oracle the
// differential tests, the fuzzer and the reference benchmarks hold the
// production cores to. They run between the same startStep and
// finishStep as CommunicateInto, so only the operation selection
// differs between the two paths.

import (
	"math"

	"loggpsim/internal/loggp"
	"loggpsim/internal/trace"
)

// simulateReference is Run through the reference cores.
func simulateReference(pt *trace.Pattern, cfg Config) (*Result, error) {
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	s, err := NewSession(pt.P, cfg)
	if err != nil {
		return nil, err
	}
	r := &Result{}
	if err := s.communicateReference(r, pt); err != nil {
		return nil, err
	}
	return r, nil
}

// communicateReference is CommunicateInto through the reference cores.
func (s *Session) communicateReference(r *Result, pt *trace.Pattern) error {
	if err := s.startStep(r, pt); err != nil {
		return err
	}
	if s.cfg.GlobalOrder {
		s.runGlobalOrderReference(pt, r)
	} else {
		s.runPaperReference(pt, r)
	}
	return s.finishStep(r)
}

// runPaperReference is the pre-indexed Figure-2 loop: a linear scan over
// all processors per committed operation. Kept verbatim as the oracle
// for the differential tests.
func (s *Session) runPaperReference(pt *trace.Pattern, r *Result) {
	var minSet []int // scratch for the random tie-break
	for s.hookErr == nil {
		// min_proc: minimum ctime among processors that want to send.
		minSet = minSet[:0]
		minTime := math.Inf(1)
		for i := range s.st {
			st := &s.st[i]
			if !st.wantsSend() {
				continue
			}
			switch {
			case st.ctime < minTime:
				minTime = st.ctime
				minSet = append(minSet[:0], i)
			case st.ctime == minTime:
				minSet = append(minSet, i)
			}
		}
		if len(minSet) == 0 {
			break
		}
		proc := minSet[0]
		if len(minSet) > 1 {
			proc = minSet[s.rng.Intn(len(minSet))]
		}
		startSend, startRecv := s.candidateStarts(&s.st[proc])
		sendWins := startSend < startRecv
		if s.cfg.SendPriority {
			sendWins = startSend <= startRecv
		}
		if sendWins {
			s.commitSend(pt, r.Timeline, proc, startSend)
		} else {
			s.commitRecv(pt, r.Timeline, proc, startRecv)
		}
	}
	s.drainReceives(pt, r)
}

// runGlobalOrderReference is the pre-indexed global-order loop — both
// candidate starts of all P processors recomputed every iteration — kept
// as the oracle for the differential tests.
func (s *Session) runGlobalOrderReference(pt *trace.Pattern, r *Result) {
	for s.hookErr == nil {
		best := -1
		bestStart := math.Inf(1)
		bestKind := loggp.Send
		for i := range s.st {
			startSend, startRecv := s.candidateStarts(&s.st[i])
			first, second := startRecv, startSend
			firstKind, secondKind := loggp.Recv, loggp.Send
			if s.cfg.SendPriority {
				first, second = startSend, startRecv
				firstKind, secondKind = loggp.Send, loggp.Recv
			}
			if first < bestStart {
				best, bestStart, bestKind = i, first, firstKind
			}
			if second < bestStart {
				best, bestStart, bestKind = i, second, secondKind
			}
		}
		if best < 0 {
			return
		}
		if bestKind == loggp.Send {
			s.commitSend(pt, r.Timeline, best, bestStart)
		} else {
			s.commitRecv(pt, r.Timeline, best, bestStart)
		}
	}
}
