// LogGP bound certificates.
//
// Both bounds are closed-form in the sense of Barchet-Estefanel & Mounié
// (PAPERS.md): they are computed directly from the pattern's structure
// and the machine's (L, o, g, G, P) — no event queue, no commit loop, no
// randomness — yet they provably sandwich whatever the event-driven
// schedulers produce, for every seed and every ablation mode.
//
// # Lower bound (critical path)
//
// Three families of constraints hold in ANY schedule either simulator can
// emit; the lower bound is the max over all of them.
//
// Writing Ser(k) = (k-1)G (+ the LogGPS handshake above S),
// AD(k) = o + Ser(k) + L (loggp.ArrivalDelay), and
// term(k) = max(g', o, Ser(k)) with g' = g (or 0 under NoCrossGap, whose
// unlike-operation intervals drop the gap):
//
//  1. Send chains. Processor q sends its messages in queue order; the
//     interval after an operation that moved k bytes is at least
//     term(k), whatever operation follows. So its j-th send starts no
//     earlier than ready(q) + Σ_{i<j} term(k_i), and message m arrives
//     no earlier than sendLB(m) + AD(bytes(m)).
//
//  2. Receive chains. The i-th receive processor q commits
//     (chronologically) starts at or after the i-th smallest arrival
//     lower bound among its messages (of the first i receives, at most
//     i-1 messages have smaller arrival bounds), and consecutive
//     receives are at least δ = max(g', o) apart. Folding:
//     t_i = max(A_i, t_{i-1} + δ); the receiver's clock ends at or
//     after t_last + o.
//
//  3. Operation-count chains. Processor q performs n = sends + recvs
//     operations; each except the chronologically last is followed by an
//     interval of at least its own term(k). The adversary orders the
//     largest term last, so q's clock ends at or after
//     ready(q) + Σ term(k) − max term(k) + o.
//
// # Upper bound (serialization)
//
// Define the horizon H = max(all processor clocks, all pending arrival
// times). Every commit either scheduler performs — standard, global
// order, worst case, forced deadlock release — starts at
// t ≤ H + ivx(prev), where prev is the previous message moved by that
// processor and ivx(k) = max(g, o, Ser(k)) − o is the widest stretch an
// operation's start can sit past its processor's clock (the clock is
// start+o of the previous operation, and the next interval is at most
// max(g, o, Ser)). The commit then raises H by at most
// ivx(prev) + AD(k) for a send (its arrival lands at t + AD) and
// ivx(prev) + o for a receive. Each message is "prev" at most once per
// endpoint — once before its sender's next operation, once before its
// receiver's next — so summing over the 2·M commits of a step:
//
//	finish ≤ H₀ + Σ_carry + Σ_m [ 2·ivx(m) + AD(m) + o ]
//
// where H₀ is the largest ready clock among participating processors and
// Σ_carry pays the gap state carried across step boundaries by session
// chaining (the ivx of each processor's last earlier message, charged
// again conservatively). Forced deadlock releases advance no clock, so
// cyclic patterns obey the same bound.
//
// Both derivations assume the flat LogGP network (no Network/Jitter
// hooks): a contention fabric can beat L (breaking the lower bound) and
// a jitter hook can delay arrivals arbitrarily (breaking the upper).
package analyze

import (
	"fmt"

	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
	"loggpsim/internal/trace"
)

// Bounds is a LogGP bound certificate: the standard and the worst-case
// simulation both finish within [Lower, Upper], for every seed and
// ablation mode, on the flat LogGP network.
type Bounds struct {
	// Lower is the critical-path lower bound, in microseconds.
	Lower float64 `json:"lower"`
	// Upper is the serialization upper bound, in microseconds.
	Upper float64 `json:"upper"`
	// PerStep carries the chained per-step certificates of a program
	// bound (the step's bounds on the global clock after the step,
	// computation phases included); nil for single-pattern bounds.
	PerStep []StepBounds `json:"per_step,omitempty"`
}

// StepBounds bounds the global clock after one program step.
type StepBounds struct {
	Lower float64 `json:"lower"`
	Upper float64 `json:"upper"`
}

// PatternBounds returns the certificate for one communication step with
// all processors ready at time zero. Every run of the standard algorithm
// — any seed, either priority rule, either commit loop — finishes at or
// after Lower; every run of both the standard and the worst-case
// algorithm, forced deadlock releases included, finishes at or before
// Upper.
func PatternBounds(pt *trace.Pattern, params loggp.Params) (Bounds, error) {
	if err := pt.Validate(); err != nil {
		return Bounds{}, err
	}
	if err := params.Validate(); err != nil {
		return Bounds{}, err
	}
	if pt.P > params.P {
		return Bounds{}, fmt.Errorf("analyze: pattern uses %d processors but machine has P=%d", pt.P, params.P)
	}
	return patternBounds(pt, params), nil
}

// patternBounds prices the one-step shape of a valid pattern on a valid
// machine at least as wide.
func patternBounds(pt *trace.Pattern, params loggp.Params) Bounds {
	pc := patternShape(pt).Pricer()
	pc.price([]loggp.Params{params})
	var b [1]Bounds
	pc.walk(nil, b[:])
	return b[0]
}

// BoundProgram computes the whole-program certificate: computation
// phases charged exactly as the predictor charges them (per-processor
// summed model costs), communication phases bounded with per-processor
// clocks and gap state chained across steps. The result sandwiches
// predictor.Prediction's Total and TotalWorst for the plain
// configuration (flat network, no overlap, no cache model).
func BoundProgram(pr *program.Program, params loggp.Params, model costModel) (*Bounds, error) {
	sh, err := NewProgramShape(pr, model)
	if err != nil {
		return nil, err
	}
	return sh.Pricer().Bound(params)
}
