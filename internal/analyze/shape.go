// Program shapes: the parameter-independent half of a bound
// certificate. Every certificate the package issues — PatternBounds,
// Check, BoundProgram, CheckProgram and the Monte-Carlo envelope's
// per-sample bounds — is a shape priced by a Pricer; this file is the
// one implementation of the derivations in bounds.go.
//
// A shape holds the validated program, the per-step computation charges
// (the cost model is not perturbed) and a byte-class table: each
// distinct message size maps to a class, and term(k), ivx(k) and
// ArrivalDelay(k) depend on the parameters and the size alone, so
// pricing evaluates them once per class instead of once per message.
// The shape stores nothing per message. A Pricer walks the program
// step by step: it lays each step out into scratch it reuses across
// steps (the network messages by class, the receive runs, each
// message's arrival slot and each receiver's run boundaries), then
// prices that layout under every parameter vector of the call before it
// moves to the next step. One walk therefore prices many vectors, and
// pricing memory is bounded by the largest step, not the program. The
// specification is the per-message walk over a trace.Pattern in
// walk_test.go: every pricer result must match it bit for bit.
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
// Pricer. A shape reads its program at every pricing walk, so the
// program must not change while a shape of it is in use. A shape is
// immutable after construction and safe to share; each goroutine needs
// its own Pricer.
type ProgramShape struct {
	pr         *program.Program
	classBytes []int           // class id -> message size in bytes
	classOf    map[int32]int32 // message size -> class id
	durs       []float64       // [step*P + proc] summed model costs; nil without a model
	largest    int             // most pattern messages in one step
}

// NewProgramShape validates the program once and extracts everything a
// bound certificate needs that does not depend on the LogGP
// parameters: the per-step per-processor computation charges and the
// byte classes of its network messages.
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
	sh := &ProgramShape{pr: pr, classOf: make(map[int32]int32)}
	if model != nil {
		sh.durs = make([]float64, len(pr.Steps)*pr.P)
	}
	lastBytes := int32(-1)
	for i, s := range pr.Steps {
		if sh.durs != nil {
			durs := sh.durs[i*pr.P : (i+1)*pr.P]
			for q := range durs {
				d := 0.0
				for _, call := range s.Comp[q] {
					d += model.Cost(call.Op, call.BlockSize)
				}
				durs[q] = d
			}
		}
		sh.largest = max(sh.largest, len(s.Comm.Msgs))
		for _, m := range s.Comm.Msgs {
			if m.Src == m.Dst || m.Bytes == lastBytes {
				continue // never priced (a local transfer), or classed already
			}
			lastBytes = m.Bytes
			if _, ok := sh.classOf[m.Bytes]; !ok {
				sh.classOf[m.Bytes] = int32(len(sh.classBytes))
				sh.classBytes = append(sh.classBytes, int(m.Bytes))
			}
		}
	}
	return sh
}

// patternShape is the one-step shape of a valid pattern, with no
// computation phase.
func patternShape(pt *trace.Pattern) *ProgramShape {
	return programShape(&program.Program{P: pt.P, Steps: []*program.Step{{Comm: pt}}}, nil)
}

// Steps returns the number of program steps the shape summarizes.
func (sh *ProgramShape) Steps() int { return len(sh.pr.Steps) }

// Pricer returns a pricer over the shape with its own bound state and
// step scratch, sized once for the shape's largest step, so repeated
// pricing calls allocate only the returned Bounds. A Pricer must not
// be used concurrently; shapes are shared, pricers are per-goroutine.
func (sh *ProgramShape) Pricer() *Pricer {
	n, p := sh.largest, sh.pr.P
	return &Pricer{
		sh:       sh,
		msgs:     make([]shapeMsg, n),
		arrSlot:  make([]int32, n),
		bndIdx:   make([]int32, p+1),
		runBnd:   make([]int32, n+p),
		order:    make([]int32, n),
		runNext:  make([]int32, n),
		inCnt:    make([]int32, p),
		fill:     make([]int32, p),
		stamp:    make([]int32, p),
		srcRun:   make([]int32, p),
		srcCls:   make([]int32, p),
		arrivals: make([]float64, n),
	}
}

// Pricer prices a ProgramShape under LogGP parameter vectors, many per
// walk over the program.
type Pricer struct {
	sh *ProgramShape

	// The current step's layout. Its network messages (self messages
	// dropped) with their byte classes, in pattern order; arrSlot gives
	// each message's slot in the step's arrival array. A receiver's
	// arrivals are a union of runs, each a stretch of one sender's
	// same-class messages to it, and within a run the arrivals are
	// nondecreasing under every parameter vector: the sender's send
	// chain only grows and the arrival delay is fixed by the class. So
	// the arrivals are scattered receiver-major into per-run segments,
	// and a receiver's are sorted by merging its presorted segments
	// instead of comparison-sorting n arbitrary floats. Receiver q's
	// boundaries [start, end₁, …, end_k] are runBnd[bndIdx[q]:bndIdx[q+1]],
	// empty if it receives nothing.
	msgs    []shapeMsg
	n       int // network messages in msgs
	arrSlot []int32
	bndIdx  []int32
	runBnd  []int32

	// Layout scratch: the messages grouped by receiver, each run's next
	// free slot, per-receiver counts and cursors, and per sender the
	// receiver it last sent to (stamp, as receiver+1) with the run it
	// opened there and that run's class.
	order, runNext        []int32
	inCnt, fill           []int32
	stamp, srcRun, srcCls []int32

	// The parameter vectors of the current call, each with its own
	// class table and chained processor state, and the standalone
	// processor state CheckProgram prices single steps with.
	vecs  []vector
	alone []procBound

	// Receive-chain scratch: one step's arrivals, receiver-major, and
	// the merge's ping-pong buffer and boundary list.
	arrivals, buf []float64
	bnd           []int32
}

// shapeMsg is one network message of the step being priced, its size
// replaced by a byte class.
type shapeMsg struct {
	src, dst, class int32
}

// vector is one parameter vector's pricing state: its class table and
// the two gaps the bounds read, filled by price, and its chained
// per-processor bounds.
type vector struct {
	classes []classCost
	o, gLo  float64
	procs   []procBound
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
// and gap state chained across steps. It is BoundAll's one-vector case.
func (pc *Pricer) Bound(params loggp.Params) (*Bounds, error) {
	bs, err := pc.BoundAll([]loggp.Params{params})
	if err != nil {
		return nil, err
	}
	return bs[0], nil
}

// BoundAll prices the shape under every parameter vector of ps in one
// walk over the program and returns the certificates in order: each
// step is laid out once and priced under all the vectors, and
// certificate i equals Bound(ps[i]) bit for bit. A vector Bound would
// reject fails the call with Bound's error for the first such vector,
// before anything is priced.
func (pc *Pricer) BoundAll(ps []loggp.Params) ([]*Bounds, error) {
	for _, params := range ps {
		if err := params.Validate(); err != nil {
			return nil, err
		}
		if p := pc.sh.pr.P; p > params.P {
			return nil, fmt.Errorf("analyze: program uses %d processors but machine has P=%d", p, params.P)
		}
	}
	pc.price(ps)
	steps := len(pc.sh.pr.Steps)
	out := make([]*Bounds, len(ps))
	per := make([]StepBounds, len(ps)*steps)
	for v := range out {
		out[v] = &Bounds{PerStep: per[v*steps : (v+1)*steps : (v+1)*steps]}
	}
	pc.walk(out, nil)
	return out, nil
}

// price sets up one vector per parameter vector of ps, all valid:
// fresh chained state and the class table. g' drops the
// inter-operation gap under the NoCrossGap ablation, where unlike
// neighbours are constrained only by o and the port drain; the upper
// bound always pays the full gap.
func (pc *Pricer) price(ps []loggp.Params) {
	p := pc.sh.pr.P
	pc.vecs = fit(pc.vecs, len(ps))
	for v, params := range ps {
		vec := &pc.vecs[v]
		vec.procs = fit(vec.procs, p)
		clear(vec.procs)
		vec.classes = fit(vec.classes, len(pc.sh.classBytes))
		vec.o, vec.gLo = params.O, params.Gap
		if params.NoCrossGap {
			vec.gLo = 0
		}
		for c, bytes := range pc.sh.classBytes {
			ser := params.Serialization(bytes)
			ad := params.ArrivalDelay(bytes)
			x := max(params.Gap, params.O, ser) - params.O
			vec.classes[c] = classCost{term: max(vec.gLo, params.O, ser), ad: ad, ivx: x, ub: 2*x + ad + params.O}
		}
	}
}

// fit returns buf resized to n entries, reusing its backing when it is
// large enough; the contents are not cleared.
func fit[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// walk lays out each step of the shape once and prices it under the
// priced vectors: vector v's chained certificate fills certs[v] (its
// PerStep, then the global-clock bounds). With alone non-nil it also
// prices each step on its own under the first vector — every processor
// ready at time zero, no computation phase — into alone[i]; certs may
// then be empty.
func (pc *Pricer) walk(certs []*Bounds, alone []Bounds) {
	p := pc.sh.pr.P
	if alone != nil {
		pc.alone = fit(pc.alone, p)
	}
	for i, s := range pc.sh.pr.Steps {
		pc.layout(s.Comm)
		if alone != nil {
			clear(pc.alone)
			lo, hi := pc.communicate(&pc.vecs[0], pc.alone)
			alone[i] = Bounds{Lower: lo, Upper: hi}
		}
		for v, b := range certs {
			vec := &pc.vecs[v]
			// Both simulators advance each clock by exactly its
			// computation charge, so both bounds shift by it.
			if pc.sh.durs != nil {
				for q, d := range pc.sh.durs[i*p : (i+1)*p] {
					vec.procs[q].lo += d
					vec.procs[q].hi += d
				}
			}
			b.PerStep[i].Lower, b.PerStep[i].Upper = pc.communicate(vec, vec.procs)
		}
	}
	for v, b := range certs {
		b.Lower, b.Upper = finish(pc.vecs[v].procs)
	}
}

// layout derives one step's layout into the reused scratch: the network
// messages by class, then the receive runs laid out receiver-major, each
// receiver's runs in first-appearance order, with every message's slot
// and every receiver's boundary list.
func (pc *Pricer) layout(pt *trace.Pattern) {
	sh := pc.sh
	clear(pc.inCnt)
	n := 0
	lastBytes, lastCls := int32(-1), int32(0)
	for _, m := range pt.Msgs {
		if m.Src == m.Dst {
			continue // local transfer: never scheduled, never priced
		}
		if m.Bytes != lastBytes {
			lastBytes, lastCls = m.Bytes, sh.classOf[m.Bytes]
		}
		pc.msgs[n] = shapeMsg{src: m.Src, dst: m.Dst, class: lastCls}
		pc.inCnt[m.Dst]++
		n++
	}
	pc.n = n
	if n == 0 {
		return
	}
	// Group the messages by receiver, in pattern order within each.
	slot := int32(0)
	for q, c := range pc.inCnt {
		pc.fill[q] = slot
		slot += c
	}
	for i, m := range pc.msgs[:n] {
		pc.order[pc.fill[m.dst]] = int32(i)
		pc.fill[m.dst]++
	}
	// Receiver by receiver: open a run whenever a sender's message does
	// not extend the sender's latest run at this receiver (it has none
	// yet, or that run has another class), count each run's messages,
	// give the runs consecutive segments of the receiver's region, and
	// give every message the next slot of its run.
	clear(pc.stamp)
	nRuns, nb, start := int32(0), int32(0), int32(0)
	for q, c := range pc.inCnt {
		pc.bndIdx[q] = nb
		if c == 0 {
			continue
		}
		group := pc.order[start : start+c]
		first := nRuns
		for _, i := range group {
			m := pc.msgs[i]
			if pc.stamp[m.src] != int32(q+1) || pc.srcCls[m.src] != m.class {
				pc.stamp[m.src], pc.srcRun[m.src], pc.srcCls[m.src] = int32(q+1), nRuns, m.class
				pc.runNext[nRuns] = 0
				nRuns++
			}
			r := pc.srcRun[m.src]
			pc.runNext[r]++   // counts the run's messages for now
			pc.arrSlot[i] = r // the run for now, the slot below
		}
		pc.runBnd[nb] = start
		nb++
		slot := start
		for r := first; r < nRuns; r++ {
			slot, pc.runNext[r] = slot+pc.runNext[r], slot
			pc.runBnd[nb] = slot
			nb++
		}
		for _, i := range group {
			r := pc.arrSlot[i]
			pc.arrSlot[i] = pc.runNext[r]
			pc.runNext[r]++
		}
		start += c
	}
	pc.bndIdx[len(pc.inCnt)] = nb
}

// finish returns the global-clock bounds: the session's running time is
// the maximum processor clock.
func finish(procs []procBound) (lo, hi float64) {
	for q := range procs {
		lo = max(lo, procs[q].lo)
		hi = max(hi, procs[q].hi)
	}
	return lo, hi
}

// communicate applies the laid-out step to the chained bounds procs
// under vector vec and returns the resulting bounds on the global
// clock.
func (pc *Pricer) communicate(vec *vector, procs []procBound) (lo, hi float64) {
	if pc.n == 0 {
		return finish(procs)
	}
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
	for i, m := range pc.msgs[:pc.n] {
		c := &vec.classes[m.class]
		src, dst := &procs[m.src], &procs[m.dst]
		pc.arrivals[pc.arrSlot[i]] = src.sendAt + c.ad
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
	delta := max(vec.gLo, vec.o)
	for q := range procs {
		pq := &procs[q]
		if !pq.busy {
			continue
		}
		pq.hi, pq.carry = stepHi, pq.stepIvx
		clock := pq.lo + pq.sumTerm - pq.maxTerm + vec.o // op-count chain
		if bnd := pc.runBnd[pc.bndIdx[q]:pc.bndIdx[q+1]]; len(bnd) > 0 {
			t := math.Inf(-1)
			for _, a := range pc.sortRuns(bnd) {
				t = max(a, t+delta)
			}
			clock = max(clock, t+vec.o) // receive chain
		}
		pq.lo = max(pq.lo, clock)
	}
	return finish(procs)
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
