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
	"math"
	"slices"

	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
	"loggpsim/internal/trace"
)

// Bounds is a LogGP bound certificate: Lower ≤ standard simulation ≤
// worst-case simulation ≤ Upper, for every seed and ablation mode, on
// the flat LogGP network.
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

// LowerBound returns the critical-path lower bound on the completion
// time of one communication step with all processors ready at time zero.
// Every run of the standard algorithm — any seed, either priority rule,
// either commit loop — finishes at or after it.
func LowerBound(pt *trace.Pattern, params loggp.Params) (float64, error) {
	b, err := PatternBounds(pt, params)
	if err != nil {
		return 0, err
	}
	return b.Lower, nil
}

// UpperBound returns the serialization upper bound on the completion
// time of one communication step with all processors ready at time zero.
// Every run of both the standard and the worst-case algorithm — any
// seed, forced deadlock releases included — finishes at or before it.
func UpperBound(pt *trace.Pattern, params loggp.Params) (float64, error) {
	b, err := PatternBounds(pt, params)
	if err != nil {
		return 0, err
	}
	return b.Upper, nil
}

// PatternBounds returns the full certificate for one communication step
// with all processors ready at time zero.
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
	return boundPattern(pt, params), nil
}

// boundPattern computes the certificate of one step with all processors
// ready at time zero. Inputs are assumed validated.
func boundPattern(pt *trace.Pattern, params loggp.Params) Bounds {
	st := newBoundState(pt.P)
	lo, hi := st.communicate(pt, params)
	return Bounds{Lower: lo, Upper: hi}
}

// BoundProgram computes the whole-program certificate: computation
// phases charged exactly as the predictor charges them (per-processor
// summed model costs), communication phases bounded with per-processor
// clocks and gap state chained across steps. The result sandwiches
// predictor.Prediction's Total and TotalWorst for the plain
// configuration (flat network, no overlap, no cache model).
func BoundProgram(pr *program.Program, params loggp.Params, model costModel) (*Bounds, error) {
	if model == nil {
		return nil, fmt.Errorf("analyze: no cost model")
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if pr.P > params.P {
		return nil, fmt.Errorf("analyze: program uses %d processors but machine has P=%d", pr.P, params.P)
	}
	st := newBoundState(pr.P)
	b := &Bounds{PerStep: make([]StepBounds, 0, len(pr.Steps))}
	durs := make([]float64, pr.P)
	for _, s := range pr.Steps {
		for q := range durs {
			d := 0.0
			for _, call := range s.Comp[q] {
				d += model.Cost(call.Op, call.BlockSize)
			}
			durs[q] = d
		}
		st.compute(durs)
		lo, hi := st.communicate(s.Comm, params)
		b.PerStep = append(b.PerStep, StepBounds{Lower: lo, Upper: hi})
	}
	b.Lower, b.Upper = st.finish()
	return b, nil
}

// boundState carries the chained per-processor bounds: lo/hi bound each
// processor's session clock from below/above, carry pays the upper
// bound's cross-step gap state (the ivx of the processor's last message
// moved in an earlier step).
type boundState struct {
	lo, hi, carry []float64
	// Scratch reused across steps.
	sendAt   []float64   // running send-chain start per processor
	sumTerm  []float64   // Σ term(k) over the processor's operations
	maxTerm  []float64   // max term(k) over the processor's operations
	ops      []int       // network operations per processor
	arrivals [][]float64 // arrival lower bounds per receiver
	stepIvx  []float64   // max ivx among the processor's step messages
	// sorter, when non-nil, replaces the default arrivals sort with the
	// pricer's run merge (see runSorter). The result is the same
	// ascending sequence either way.
	sorter *runSorter
}

func newBoundState(p int) *boundState {
	return &boundState{
		lo: make([]float64, p), hi: make([]float64, p), carry: make([]float64, p),
		sendAt: make([]float64, p), sumTerm: make([]float64, p),
		maxTerm: make([]float64, p), ops: make([]int, p),
		arrivals: make([][]float64, p), stepIvx: make([]float64, p),
	}
}

// reset zeroes the chained clocks and gap-state carries, returning the
// state to its freshly constructed condition; the per-step scratch needs
// no clearing (communicate re-initializes it). The shape pricer reuses
// one state across Bound calls through it.
func (st *boundState) reset() {
	for q := range st.lo {
		st.lo[q], st.hi[q], st.carry[q] = 0, 0, 0
	}
}

// compute charges one computation phase: both simulators advance each
// clock by exactly its duration, so both bounds shift by it.
func (st *boundState) compute(durs []float64) {
	for q, d := range durs {
		st.lo[q] += d
		st.hi[q] += d
	}
}

// finish returns the global-clock bounds: the session's running time is
// the maximum processor clock.
func (st *boundState) finish() (lo, hi float64) {
	for q := range st.lo {
		lo = max(lo, st.lo[q])
		hi = max(hi, st.hi[q])
	}
	return lo, hi
}

// communicate applies one communication step to the chained bounds and
// returns the resulting bounds on the global clock.
func (st *boundState) communicate(pt *trace.Pattern, p loggp.Params) (lo, hi float64) {
	// g' drops the inter-operation gap under the NoCrossGap ablation,
	// where unlike neighbours are constrained only by o and the port
	// drain; the upper bound always pays the full gap.
	gLo := p.Gap
	if p.NoCrossGap {
		gLo = 0
	}
	term := func(bytes int) float64 { return max(gLo, p.O, p.Serialization(bytes)) }
	ivx := func(bytes int) float64 { return max(p.Gap, p.O, p.Serialization(bytes)) - p.O }

	for q := range st.sendAt {
		st.sendAt[q] = st.lo[q]
		st.sumTerm[q], st.maxTerm[q] = 0, 0
		st.ops[q] = 0
		st.arrivals[q] = st.arrivals[q][:0]
		st.stepIvx[q] = 0
	}

	// One pass in send order: send-chain starts, arrival lower bounds,
	// per-operation terms, and the upper bound's per-message total.
	ubSum := 0.0
	netMsgs := 0
	for _, m := range pt.Msgs {
		if m.Src == m.Dst {
			continue // local transfer: never scheduled
		}
		netMsgs++
		t := term(m.Bytes)
		// Sender side.
		st.arrivals[m.Dst] = append(st.arrivals[m.Dst], st.sendAt[m.Src]+p.ArrivalDelay(m.Bytes))
		st.sendAt[m.Src] += t
		st.sumTerm[m.Src] += t
		st.maxTerm[m.Src] = max(st.maxTerm[m.Src], t)
		st.ops[m.Src]++
		// Receiver side (the drain after a receive charges the same term).
		st.sumTerm[m.Dst] += t
		st.maxTerm[m.Dst] = max(st.maxTerm[m.Dst], t)
		st.ops[m.Dst]++
		// Upper bound accumulation.
		x := ivx(m.Bytes)
		ubSum += 2*x + p.ArrivalDelay(m.Bytes) + p.O
		st.stepIvx[m.Src] = max(st.stepIvx[m.Src], x)
		st.stepIvx[m.Dst] = max(st.stepIvx[m.Dst], x)
	}

	if netMsgs == 0 {
		return st.finish()
	}
	return st.finishStep(p, gLo, ubSum)
}

// finishStep folds the per-message quantities accumulated by a step's
// message loop into the chained bounds and returns the resulting global
// bounds. Shared by the pattern path (communicate) and the shape
// pricer, so the two produce bit-identical folds.
func (st *boundState) finishStep(p loggp.Params, gLo, ubSum float64) (lo, hi float64) {
	// Upper bound: horizon start among participants, plus the carried
	// gap state, plus the serialized per-message budget.
	h0, sumCarry := math.Inf(-1), 0.0
	for q := range st.hi {
		if st.ops[q] > 0 {
			h0 = max(h0, st.hi[q])
			sumCarry += st.carry[q]
		}
	}
	stepHi := h0 + sumCarry + ubSum
	for q := range st.hi {
		if st.ops[q] > 0 {
			st.hi[q] = stepHi
			st.carry[q] = st.stepIvx[q]
		}
	}

	// Lower bound: fold the three constraint families per processor.
	delta := max(gLo, p.O)
	for q := range st.lo {
		if st.ops[q] == 0 {
			continue
		}
		clock := st.lo[q] + st.sumTerm[q] - st.maxTerm[q] + p.O // op-count chain
		if arr := st.arrivals[q]; len(arr) > 0 {
			// Ascending order; any sort yields the same array, so short
			// runs — the overwhelmingly common case — take an insertion
			// sort instead of paying slices.Sort's dispatch overhead.
			if st.sorter != nil {
				st.sorter.sort(arr)
			} else if len(arr) <= 24 {
				for i := 1; i < len(arr); i++ {
					for j := i; j > 0 && arr[j] < arr[j-1]; j-- {
						arr[j], arr[j-1] = arr[j-1], arr[j]
					}
				}
			} else {
				slices.Sort(arr)
			}
			t := math.Inf(-1)
			for _, a := range arr {
				t = max(a, t+delta)
			}
			clock = max(clock, t+p.O) // receive chain
		}
		st.lo[q] = max(st.lo[q], clock)
	}
	return st.finish()
}
