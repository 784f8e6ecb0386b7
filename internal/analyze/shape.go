// Program shapes: the structural half of a bound certificate, computed
// once and priced per LogGP parameter vector. Every certificate the
// package issues — PatternBounds, Check, BoundProgram, CheckProgram and
// the Monte-Carlo envelope's per-sample bounds — is a shape priced by a
// Pricer; this file is the one implementation of the derivations in
// bounds.go.
//
// A shape holds the parameter-independent work: validation, the
// per-step computation charges (the cost model is not perturbed), and a
// byte-class decomposition of every communication step. Each distinct
// message size maps to a class; term(k), ivx(k) and ArrivalDelay(k)
// depend on the parameters and the size alone, so pricing evaluates
// them once per class instead of once per message. The specification
// is the per-message walk over a trace.Pattern in walk_test.go: every
// pricer result must match it bit for bit.
package analyze

import (
	"fmt"
	"math"

	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
	"loggpsim/internal/trace"
)

// ProgramShape is the parameter-independent structure of a program's
// bound certificate. Build it once per program with NewProgramShape,
// then price it under any number of LogGP parameter vectors through
// Pricer. A shape is immutable after construction and safe to share;
// each goroutine needs its own Pricer.
type ProgramShape struct {
	p          int
	classBytes []int // class id -> message size in bytes
	steps      []shapeStep
}

type shapeStep struct {
	durs []float64 // per-processor summed model costs; nil without a model
	msgs []shapeMsg

	// Receive-chain sort structure. A receiver's arrivals are a union of
	// runs, one per (sender, class) pair, and within a run the arrivals
	// are nondecreasing under every parameter vector: the sender's send
	// chain only grows and the arrival delay is fixed by the class. The
	// pricer therefore scatters a step's arrivals receiver-major into
	// per-run segments (arrSlot gives each message's slot) and sorts a
	// receiver's arrivals by merging its presorted segments instead of
	// comparison-sorting n arbitrary floats.
	arrSlot []int32 // per message: slot in the step's arrival array
	bndIdx  []int32 // len p+1: receiver q's boundaries are runBnd[bndIdx[q]:bndIdx[q+1]]
	runBnd  []int32 // per receiver: [start, end₁, …, end_k], empty if it receives nothing
}

// shapeMsg is one network message with its size replaced by a byte
// class; self messages are dropped at shape build (they are never
// scheduled, so they take no part in any bound).
type shapeMsg struct {
	src, dst, class int32
}

// NewProgramShape validates the program once and extracts everything a
// bound certificate needs that does not depend on the LogGP
// parameters: the per-step per-processor computation charges and each
// step's network messages keyed by byte class.
func NewProgramShape(pr *program.Program, model costModel) (*ProgramShape, error) {
	if model == nil {
		return nil, fmt.Errorf("analyze: no cost model")
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	return programShape(pr, model), nil
}

// programShape builds the shape of a valid program. With a nil model
// the shape carries no computation charges and serves standalone step
// certificates only.
func programShape(pr *program.Program, model costModel) *ProgramShape {
	sb := newShapeBuilder(pr.P, len(pr.Steps))
	for _, s := range pr.Steps {
		var durs []float64
		if model != nil {
			durs = make([]float64, pr.P)
			for q := range durs {
				d := 0.0
				for _, call := range s.Comp[q] {
					d += model.Cost(call.Op, call.BlockSize)
				}
				durs[q] = d
			}
		}
		sb.add(durs, s.Comm)
	}
	return sb.sh
}

// patternShape is the one-step shape of a valid pattern, with no
// computation phase.
func patternShape(pt *trace.Pattern) *ProgramShape {
	sb := newShapeBuilder(pt.P, 1)
	sb.add(nil, pt)
	return sb.sh
}

// shapeBuilder appends steps to a shape, reusing its maps and scratch
// across them.
type shapeBuilder struct {
	sh      *ProgramShape
	classOf map[int]int32   // message size -> class id
	runID   map[int64]int32 // (dst, src, class) -> run id within a step
	runs    []shapeRun
	recv    []recvRuns // per receiver
}

type shapeRun struct{ dst, n, next int32 }

type recvRuns struct {
	runs, arrivals int32
	next, bnd      int32 // layout cursors: next free slot, next boundary entry
}

func newShapeBuilder(p, steps int) *shapeBuilder {
	return &shapeBuilder{
		sh:      &ProgramShape{p: p, steps: make([]shapeStep, 0, steps)},
		classOf: make(map[int]int32),
		runID:   make(map[int64]int32),
		recv:    make([]recvRuns, p),
	}
}

func (sb *shapeBuilder) add(durs []float64, pt *trace.Pattern) {
	st := shapeStep{durs: durs, msgs: make([]shapeMsg, 0, len(pt.Msgs))}
	for _, m := range pt.Msgs {
		if m.Src == m.Dst {
			continue // local transfer: never scheduled, never priced
		}
		c, ok := sb.classOf[m.Bytes]
		if !ok {
			c = int32(len(sb.sh.classBytes))
			sb.classOf[m.Bytes] = c
			sb.sh.classBytes = append(sb.sh.classBytes, m.Bytes)
		}
		st.msgs = append(st.msgs, shapeMsg{src: int32(m.Src), dst: int32(m.Dst), class: c})
	}
	sb.layoutRuns(&st)
	sb.sh.steps = append(sb.sh.steps, st)
}

// layoutRuns derives a step's receive-chain sort structure: runs per
// (dst, src, class) in first-appearance order, laid out receiver-major
// with each receiver's runs in appearance order.
func (sb *shapeBuilder) layoutRuns(st *shapeStep) {
	clear(sb.runID)
	runs, recv := sb.runs[:0], sb.recv
	clear(recv)
	st.arrSlot = make([]int32, len(st.msgs))
	for i, m := range st.msgs {
		key := int64(m.dst)<<42 | int64(m.src)<<21 | int64(m.class)
		r, ok := sb.runID[key]
		if !ok {
			r = int32(len(runs))
			sb.runID[key] = r
			runs = append(runs, shapeRun{dst: m.dst})
			recv[m.dst].runs++
		}
		runs[r].n++
		recv[m.dst].arrivals++
		st.arrSlot[i] = r // the run for now, the slot once runs are laid out
	}
	// Receiver q's arrivals start where q-1's end; its boundary list
	// [start, end₁, …, end_k] has one entry per run plus the start.
	st.bndIdx = make([]int32, len(recv)+1)
	slot := int32(0)
	for q := range recv {
		rq := &recv[q]
		rq.next, rq.bnd = slot, st.bndIdx[q]+1
		slot += rq.arrivals
		st.bndIdx[q+1] = st.bndIdx[q]
		if rq.runs > 0 {
			st.bndIdx[q+1] += rq.runs + 1
		}
	}
	st.runBnd = make([]int32, st.bndIdx[len(recv)])
	for q := range recv {
		if recv[q].runs > 0 {
			st.runBnd[st.bndIdx[q]] = recv[q].next
		}
	}
	for r := range runs {
		rq := &recv[runs[r].dst]
		runs[r].next = rq.next
		rq.next += runs[r].n
		st.runBnd[rq.bnd] = rq.next
		rq.bnd++
	}
	for i, r := range st.arrSlot {
		st.arrSlot[i] = runs[r].next
		runs[r].next++
	}
	sb.runs = runs
}

// Steps returns the number of program steps the shape summarizes.
func (sh *ProgramShape) Steps() int { return len(sh.steps) }

// Pricer returns a pricer over the shape with its own bound state and
// class tables, so repeated Bound calls allocate only the returned
// Bounds. A Pricer must not be used concurrently; shapes are shared,
// pricers are per-goroutine.
func (sh *ProgramShape) Pricer() *Pricer {
	n := 0
	for i := range sh.steps {
		n = max(n, len(sh.steps[i].msgs))
	}
	return &Pricer{
		sh:       sh,
		procs:    make([]procBound, sh.p),
		classes:  make([]classCost, len(sh.classBytes)),
		arrivals: make([]float64, n),
	}
}

// Pricer prices a ProgramShape under successive LogGP parameter
// vectors.
type Pricer struct {
	sh    *ProgramShape
	procs []procBound
	// Filled per parameter vector by price.
	classes []classCost
	o, gLo  float64
	// Receive-chain scratch: one step's arrivals, receiver-major, and
	// the merge's ping-pong buffer and boundary list.
	arrivals, buf []float64
	bnd           []int32
}

// classCost holds one byte class's LogGP terms under the priced
// parameters: term(k), ArrivalDelay(k), ivx(k) and the upper bound's
// per-message budget 2·ivx + AD + o.
type classCost struct {
	term, ad, ivx, ub float64
}

// procBound is one processor's chained bound state — lo and hi bound
// its session clock from below and above, carry pays the upper bound's
// cross-step gap state (the ivx of its last message moved in an earlier
// step) — and its accumulators for the step being priced.
type procBound struct {
	lo, hi, carry    float64
	sendAt           float64 // running send-chain start
	sumTerm, maxTerm float64 // Σ and max of term(k) over the step's operations
	stepIvx          float64 // max ivx among the step's messages
	busy             bool    // moved a network message this step
}

// Bound prices the shape under params and returns the whole-program
// certificate: computation phases charged exactly as the predictor
// charges them, communication phases bounded with per-processor clocks
// and gap state chained across steps.
func (pc *Pricer) Bound(params loggp.Params) (*Bounds, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if pc.sh.p > params.P {
		return nil, fmt.Errorf("analyze: program uses %d processors but machine has P=%d", pc.sh.p, params.P)
	}
	pc.price(params)
	return pc.program(), nil
}

// price fills the class tables for a valid parameter vector. g' drops
// the inter-operation gap under the NoCrossGap ablation, where unlike
// neighbours are constrained only by o and the port drain; the upper
// bound always pays the full gap.
func (pc *Pricer) price(p loggp.Params) {
	pc.o, pc.gLo = p.O, p.Gap
	if p.NoCrossGap {
		pc.gLo = 0
	}
	for c, bytes := range pc.sh.classBytes {
		ser := p.Serialization(bytes)
		ad := p.ArrivalDelay(bytes)
		x := max(p.Gap, p.O, ser) - p.O
		pc.classes[c] = classCost{term: max(pc.gLo, p.O, ser), ad: ad, ivx: x, ub: 2*x + ad + p.O}
	}
}

// program returns the whole-program certificate under the priced
// parameters. The shape must carry computation charges.
func (pc *Pricer) program() *Bounds {
	clear(pc.procs)
	b := &Bounds{PerStep: make([]StepBounds, len(pc.sh.steps))}
	for i := range pc.sh.steps {
		s := &pc.sh.steps[i]
		// Both simulators advance each clock by exactly its computation
		// charge, so both bounds shift by it.
		for q, d := range s.durs {
			pc.procs[q].lo += d
			pc.procs[q].hi += d
		}
		b.PerStep[i].Lower, b.PerStep[i].Upper = pc.communicate(s)
	}
	b.Lower, b.Upper = pc.finish()
	return b
}

// step returns step i's standalone certificate under the priced
// parameters: every processor ready at time zero, no computation phase.
func (pc *Pricer) step(i int) Bounds {
	clear(pc.procs)
	lo, hi := pc.communicate(&pc.sh.steps[i])
	return Bounds{Lower: lo, Upper: hi}
}

// finish returns the global-clock bounds: the session's running time is
// the maximum processor clock.
func (pc *Pricer) finish() (lo, hi float64) {
	for q := range pc.procs {
		lo = max(lo, pc.procs[q].lo)
		hi = max(hi, pc.procs[q].hi)
	}
	return lo, hi
}

// communicate applies one communication step to the chained bounds and
// returns the resulting bounds on the global clock.
func (pc *Pricer) communicate(s *shapeStep) (lo, hi float64) {
	if len(s.msgs) == 0 {
		return pc.finish()
	}
	procs := pc.procs
	for q := range procs {
		pq := &procs[q]
		pq.sendAt = pq.lo
		pq.sumTerm, pq.maxTerm, pq.stepIvx = 0, 0, 0
		pq.busy = false
	}

	// One pass in send order: send-chain starts, arrival lower bounds,
	// per-operation terms (the drain after a receive charges the same
	// term as the send), and the upper bound's per-message total.
	ubSum := 0.0
	for i, m := range s.msgs {
		c := &pc.classes[m.class]
		src, dst := &procs[m.src], &procs[m.dst]
		pc.arrivals[s.arrSlot[i]] = src.sendAt + c.ad
		src.sendAt += c.term
		src.sumTerm += c.term
		src.maxTerm = max(src.maxTerm, c.term)
		src.stepIvx = max(src.stepIvx, c.ivx)
		src.busy = true
		dst.sumTerm += c.term
		dst.maxTerm = max(dst.maxTerm, c.term)
		dst.stepIvx = max(dst.stepIvx, c.ivx)
		dst.busy = true
		ubSum += c.ub
	}

	// Upper bound: horizon start among participants, plus the carried
	// gap state, plus the serialized per-message budget.
	h0, sumCarry := math.Inf(-1), 0.0
	for q := range procs {
		if procs[q].busy {
			h0 = max(h0, procs[q].hi)
			sumCarry += procs[q].carry
		}
	}
	stepHi := h0 + sumCarry + ubSum

	// Per participant: the upper bound moves to the step's horizon and
	// carries its gap state; the lower bound folds the three constraint
	// families.
	delta := max(pc.gLo, pc.o)
	for q := range procs {
		pq := &procs[q]
		if !pq.busy {
			continue
		}
		pq.hi, pq.carry = stepHi, pq.stepIvx
		clock := pq.lo + pq.sumTerm - pq.maxTerm + pc.o // op-count chain
		if bnd := s.runBnd[s.bndIdx[q]:s.bndIdx[q+1]]; len(bnd) > 0 {
			t := math.Inf(-1)
			for _, a := range pc.sortRuns(bnd) {
				t = max(a, t+delta)
			}
			clock = max(clock, t+pc.o) // receive chain
		}
		pq.lo = max(pq.lo, clock)
	}
	return pc.finish()
}

// sortRuns sorts one receiver's arrivals, the segment its boundary list
// bnd spans, and returns the sorted segment. It merges the presorted
// runs pairwise, O(n log k) for k runs where a comparison sort pays
// O(n log n); ascending output is the unique sorted sequence whatever
// produced it.
func (pc *Pricer) sortRuns(bnd []int32) []float64 {
	first, last := bnd[0], bnd[len(bnd)-1]
	arr := pc.arrivals[first:last]
	if len(bnd) == 2 {
		return arr // one run: already ascending
	}
	if len(arr) <= 24 {
		// Tiny arrays: insertion sort beats merge bookkeeping.
		for i := 1; i < len(arr); i++ {
			for j := i; j > 0 && arr[j] < arr[j-1]; j-- {
				arr[j], arr[j-1] = arr[j-1], arr[j]
			}
		}
		return arr
	}
	if pc.buf == nil {
		pc.buf = make([]float64, len(pc.arrivals))
	}
	// Pairwise cascade: each level halves the run count, ping-ponging
	// between the arrival array and buf. Boundaries compact in place
	// (every write lands at or before the reads it follows).
	pc.bnd = append(pc.bnd[:0], bnd...)
	cur := pc.bnd
	src, dst := pc.arrivals, pc.buf
	for len(cur) > 2 {
		w := 1
		i := 0
		for ; i+2 < len(cur); i += 2 {
			lo, mid, hi := cur[i], cur[i+1], cur[i+2]
			mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi])
			cur[w] = hi
			w++
		}
		if i+1 < len(cur) { // odd run out: carry it to the next level
			copy(dst[cur[i]:cur[i+1]], src[cur[i]:cur[i+1]])
			cur[w] = cur[i+1]
			w++
		}
		cur = cur[:w]
		src, dst = dst, src
	}
	return src[first:last]
}

// mergeRuns merges two ascending runs into out (len(out) = len(a)+len(b)).
func mergeRuns(out, a, b []float64) {
	i, j := 0, 0
	for k := range out {
		if i < len(a) && (j >= len(b) || a[i] <= b[j]) {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
	}
}
