// Work pre-estimation: the admission currency of the serve layer.
//
// A prediction request must be priced before a simulator session is
// committed to it — once a worker starts replaying a pathological
// program (huge P, tens of thousands of steps, dense all-to-all
// traffic) the damage is done. The estimate below is purely structural:
// one pass over the program counting what the event-driven schedulers
// will actually touch, reduced to scalar "work units" proportional to
// the dominant terms of the scheduler cores' complexity (commits ×
// log-factor plus per-step per-processor sweeps). It deliberately knows
// nothing about wall-clock time; callers calibrate units-per-second
// once (or just cap units) and compare.
package analyze

import (
	"math"

	"loggpsim/internal/program"
)

// Work is a structural pre-estimate of the cost of simulating a program.
type Work struct {
	// P is the program's processor count.
	P int
	// Steps is the number of program steps.
	Steps int
	// NetMessages counts messages that cross the network, summed over
	// all steps — each is scheduled twice (send commit, receive commit).
	NetMessages int
	// LocalMessages counts declared local transfers (never scheduled).
	LocalMessages int
	// Ops counts basic-operation invocations across all computation
	// phases.
	Ops int
	// MaxStepMessages is the largest single step's network message
	// count — the size of the biggest event-queue episode.
	MaxStepMessages int
}

// EstimateWork prices pr without validating or simulating it: a single
// O(steps + messages + ops) pass. It is safe on any program shape,
// including invalid ones (the counts are still meaningful, and the
// caller typically rejects or degrades before validation would run).
func EstimateWork(pr *program.Program) Work {
	w := Work{P: pr.P, Steps: len(pr.Steps)}
	for _, s := range pr.Steps {
		for _, calls := range s.Comp {
			w.Ops += len(calls)
		}
		if s.Comm == nil {
			continue
		}
		step := 0
		for _, m := range s.Comm.Msgs {
			if m.Src == m.Dst {
				w.LocalMessages++
			} else {
				step++
			}
		}
		w.NetMessages += step
		if step > w.MaxStepMessages {
			w.MaxStepMessages = step
		}
	}
	return w
}

// Units reduces the estimate to scalar scheduler-work units. Each
// network message costs two commits, each touching O(log P) of the
// schedulers' tournament tree; each step pays a per-processor sweep
// (clock collection, computation charging) and each basic operation one
// cost-model call. The constants are unity — units are a relative
// currency, not microseconds.
func (w Work) Units() float64 {
	logP := 1.0
	if w.P > 2 {
		logP = math.Log2(float64(w.P))
	}
	return 2*float64(w.NetMessages)*logP +
		float64(w.Steps)*float64(w.P) +
		float64(w.Ops)
}
