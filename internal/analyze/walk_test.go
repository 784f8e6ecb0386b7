package analyze

// The per-message walk: the bound derivations of bounds.go applied to a
// trace.Pattern message by message, with a comparison sort for the
// receive chains. Production prices every certificate through a
// ProgramShape (shape.go); this walk is the specification it must
// match bit for bit, on single patterns and chained programs alike.

import (
	"math"
	"slices"

	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
	"loggpsim/internal/trace"
)

// walkPattern is the certificate of one valid step with all processors
// ready at time zero.
func walkPattern(pt *trace.Pattern, params loggp.Params) Bounds {
	st := newWalkState(pt.P)
	lo, hi := st.communicate(pt, params)
	return Bounds{Lower: lo, Upper: hi}
}

// walkProgram is the whole-program certificate of a valid program on a
// valid machine at least as wide.
func walkProgram(pr *program.Program, params loggp.Params, model costModel) *Bounds {
	st := newWalkState(pr.P)
	b := &Bounds{PerStep: make([]StepBounds, 0, len(pr.Steps))}
	for _, s := range pr.Steps {
		for q := range st.lo {
			d := 0.0
			for _, call := range s.Comp[q] {
				d += model.Cost(call.Op, call.BlockSize)
			}
			st.lo[q] += d
			st.hi[q] += d
		}
		lo, hi := st.communicate(s.Comm, params)
		b.PerStep = append(b.PerStep, StepBounds{Lower: lo, Upper: hi})
	}
	b.Lower, b.Upper = st.finish()
	return b
}

// walkState carries the chained per-processor bounds: lo/hi bound each
// processor's session clock from below/above, carry pays the upper
// bound's cross-step gap state (the ivx of the processor's last message
// moved in an earlier step).
type walkState struct {
	lo, hi, carry []float64
	// Scratch reused across steps.
	sendAt   []float64   // running send-chain start per processor
	sumTerm  []float64   // Σ term(k) over the processor's operations
	maxTerm  []float64   // max term(k) over the processor's operations
	ops      []int       // network operations per processor
	arrivals [][]float64 // arrival lower bounds per receiver
	stepIvx  []float64   // max ivx among the processor's step messages
}

func newWalkState(p int) *walkState {
	return &walkState{
		lo: make([]float64, p), hi: make([]float64, p), carry: make([]float64, p),
		sendAt: make([]float64, p), sumTerm: make([]float64, p),
		maxTerm: make([]float64, p), ops: make([]int, p),
		arrivals: make([][]float64, p), stepIvx: make([]float64, p),
	}
}

func (st *walkState) finish() (lo, hi float64) {
	for q := range st.lo {
		lo = max(lo, st.lo[q])
		hi = max(hi, st.hi[q])
	}
	return lo, hi
}

// communicate applies one communication step to the chained bounds and
// returns the resulting bounds on the global clock.
func (st *walkState) communicate(pt *trace.Pattern, p loggp.Params) (lo, hi float64) {
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

	ubSum := 0.0
	netMsgs := 0
	for _, m := range pt.Msgs {
		if m.Src == m.Dst {
			continue // local transfer: never scheduled
		}
		netMsgs++
		t := term(m.Bytes)
		st.arrivals[m.Dst] = append(st.arrivals[m.Dst], st.sendAt[m.Src]+p.ArrivalDelay(m.Bytes))
		st.sendAt[m.Src] += t
		st.sumTerm[m.Src] += t
		st.maxTerm[m.Src] = max(st.maxTerm[m.Src], t)
		st.ops[m.Src]++
		st.sumTerm[m.Dst] += t
		st.maxTerm[m.Dst] = max(st.maxTerm[m.Dst], t)
		st.ops[m.Dst]++
		x := ivx(m.Bytes)
		ubSum += 2*x + p.ArrivalDelay(m.Bytes) + p.O
		st.stepIvx[m.Src] = max(st.stepIvx[m.Src], x)
		st.stepIvx[m.Dst] = max(st.stepIvx[m.Dst], x)
	}
	if netMsgs == 0 {
		return st.finish()
	}

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

	delta := max(gLo, p.O)
	for q := range st.lo {
		if st.ops[q] == 0 {
			continue
		}
		clock := st.lo[q] + st.sumTerm[q] - st.maxTerm[q] + p.O
		if arr := st.arrivals[q]; len(arr) > 0 {
			slices.Sort(arr)
			t := math.Inf(-1)
			for _, a := range arr {
				t = max(a, t+delta)
			}
			clock = max(clock, t+p.O)
		}
		st.lo[q] = max(st.lo[q], clock)
	}
	return st.finish()
}
