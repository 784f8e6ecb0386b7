package worstcase

// The reference commit loop: the full candidate rescan the tournament
// core of worstcase.go replaced. It is the readable specification of
// the Section-4.2 strategy, deadlock breaking included, and the oracle
// the differential tests, the fuzzer and the reference benchmarks hold
// the production core to. It runs between the same startStep and
// finishStep as CommunicateInto, so only the operation selection
// differs between the two paths.

import (
	"math"

	"loggpsim/internal/loggp"
	"loggpsim/internal/trace"
)

// simulateReference is Run through the reference commit loop.
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

// communicateReference is CommunicateInto through the reference commit
// loop.
func (s *Session) communicateReference(r *Result, pt *trace.Pattern) error {
	if err := s.startStep(r, pt); err != nil {
		return err
	}
	s.runReference(pt, r)
	return s.finishStep(r)
}

// runReference is the pre-indexed commit loop — both candidate starts of
// all P processors recomputed every iteration — kept verbatim as the
// oracle for the differential tests.
func (s *Session) runReference(pt *trace.Pattern, r *Result) {
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
