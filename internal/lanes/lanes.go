// Package lanes advances many Monte-Carlo samples of one program —
// "lanes" — through the quiet-mode schedulers in lockstep: one pass
// over the decoded program structure drives every lane's standard
// (Figure 2) and worst-case (Section 4.2) replay, with the per-lane
// state laid out structure-of-arrays (clocks and gap floors lane-major,
// per-lane hash-derived RNG streams and fault injectors).
//
// A scalar Monte-Carlo envelope replays the program once per sample,
// re-paying per sample everything that does not depend on the sample:
// program and pattern validation, the arena decode of every
// communication step, the per-step computation-cost sums, session
// reconfiguration, and the indexed scheduler structures. The lane
// engine hoists all of it: the program is validated and decoded once
// (flat per-processor send windows, in-degrees, sender masks, byte
// classes), the unperturbed computation charges are summed once per
// step and shared, and each lane's per-class LogGP derivatives (arrival
// delay, like/unlike operation intervals) are tabulated once per lane.
// The scheduler cores themselves are leaner than the sessions': because
// every communication phase starts and ends with empty receive queues,
// only clocks and gap floors persist per lane; receive buffers, send
// heads and candidate caches are step-transient scratch shared by all
// lanes. Receive queues are not heaps: a step's messages are grouped
// into runs, one per (sender, receiver) pair, and a sender's arrivals
// at a fixed receiver are almost always nondecreasing (its start times
// only grow), so a push is an append (with a rare ordered insert) and
// a pop scans the heads of the receiver's few runs — a two-or-three-way
// merge instead of a heap sift. Scans run over bitmasks of live
// processors, and a processor that remains the strict minimum after a
// commit keeps committing without a rescan (the common case in
// broadcast-shaped steps), so the per-lane cost approaches the bare
// per-message float arithmetic. Lane results
// are bit-identical to per-sample predictor.Evaluator replays: the
// cores replicate the schedulers' reference loops
// (sim.runPaperReference, worstcase.runReference — the oracles the
// session cores are differentially tested against) decision for
// decision, including when tie-break randomness is consumed.
//
// Divergence between lanes is handled two ways:
//
//   - Value divergence — perturbed LogGP charges, fault retransmit
//     busy/delay charges, deadlock-break choices — stays inside the
//     lane's own state: every lane owns its clocks, gap floors, two
//     tie-break RNG streams (standard and worst-case, seeded like the
//     scalar sessions) and its compiled fault injector.
//
//   - Branch divergence — a message exhausting its retries aborts the
//     sample — masks the lane out: the lane records its error (the
//     *faults.LossError is preserved in the chain) and is skipped for
//     the rest of the run, exactly as the scalar path abandons the
//     sample. No scalar replay is needed for masked lanes: the abort
//     point is mid-step and the lane's remaining schedule is never
//     observed by anyone.
//
// Fault decisions are pure functions of (plan seed, identities), never
// of evaluation order (see internal/faults), so interleaving lanes
// cannot leak state between them.
package lanes

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"loggpsim/internal/cost"
	"loggpsim/internal/faults"
	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
)

// Lane configures one Monte-Carlo sample: its (possibly perturbed)
// machine, its scheduler tie-break seed, and its fault plan.
type Lane struct {
	// Params is the lane's LogGP machine description.
	Params loggp.Params
	// Seed seeds the lane's two tie-break RNG streams exactly as
	// predictor.Config.Seed seeds the scalar sessions.
	Seed int64
	// Faults is the lane's fault plan (seed included); the zero plan
	// injects nothing.
	Faults faults.Plan
}

// Config carries the lane-shared configuration.
type Config struct {
	// Cost prices the basic operations; it is shared by all lanes (the
	// robust sweep perturbs the machine, not the measured operation
	// costs), and per-lane computation perturbations are applied on top.
	Cost cost.Model
	// Ctx, when non-nil, deadline-bounds the run at lane-step
	// granularity: it is polled once per program step (each step
	// advancing every live lane), and a cancelled or expired context
	// aborts the whole run with an error wrapping ctx.Err().
	Ctx context.Context
}

// Result is one lane's outcome.
type Result struct {
	// Total and TotalWorst are the standard and worst-case predicted
	// running times, bit-identical to predictor.Prediction's fields for
	// an equivalent scalar configuration.
	Total      float64
	TotalWorst float64
	// Err, when non-nil, marks a masked lane: the replay aborted (a
	// *faults.LossError in the chain means the sample lost a message)
	// and the totals are meaningless.
	Err error
}

// stepPlan is the decoded structure of one communication step. The
// messages are laid out in send slots grouped by sender (pattern order
// within each group): processor q sends slots off[q]..off[q+1], and the
// parallel sDst/sCls/sRun/sOrig arrays give each slot's destination,
// byte class, receive run and pattern index, so a sender's commits read
// four sequential streams instead of chasing a message table. A run is
// the slice of arrivals one sender delivers to one receiver; runs are
// grouped per receiver (runIdx[q]..runIdx[q+1]) and each owns a
// fixed-capacity region of the step's arrival buffer at runBase[r].
type stepPlan struct {
	off      []int32 // len p+1: send-slot range per sender
	sDst     []int32 // per slot: destination processor
	sCls     []int32 // per slot: byte class (engine classBytes index)
	sRun     []int32 // per slot: receive run (step-local)
	sOrig    []int32 // per slot: index within the pattern (fault identity)
	inCnt    []int32
	sendMask []uint64
	runIdx   []int32 // len p+1: run-table range per receiver
	runBase  []int32 // per run: base offset into the arrival buffer
	nRuns    int
	nmsgs    int
}

const (
	candRecv = uint8(0)
	candSend = uint8(1)
)

// Engine holds the lockstep state. The zero value is ready; Run may be
// called repeatedly (each call rebuilds the program plan and reuses the
// storage). An Engine must not be used concurrently.
type Engine struct {
	p, lanes, classes, words int

	// Program plan, shared across lanes.
	classBytes []int
	steps      []stepPlan
	baseDurs   [][]float64
	maxNmsgs   int // max messages in any one step (arrival-buffer size)
	maxRuns    int // max receive runs in any one step

	// Per-lane machine derivatives, lane-major [lane*classes + class].
	adTab       []float64 // ArrivalDelay(bytes)
	ivLikeTab   []float64 // Interval(k, k, bytes): like consecutive ops
	ivUnlikeTab []float64 // Interval(k, k', bytes), k != k'
	o           []float64 // Params.O per lane

	// Persistent per-lane-processor scheduler state, lane-major
	// [lane*p + proc]: the clocks and gap-floor carries. The floors hold
	// lastStart + Interval(last, kind, lastBytes), or zero before the
	// lane's first operation; clocks are non-negative, so
	// max(clock, floor) reproduces the sessions' earliest() exactly.
	ctStd, fsStd, frStd []float64
	ctWC, fsWC, frWC    []float64

	// Step-transient scratch, shared by all lanes (every communication
	// phase starts and ends with empty receive buffers, so nothing
	// below outlives one lane-step). qKey/qSeq/qGid form the arrival
	// buffer the step's receive runs live in; rHead/rFill are the
	// per-run consumed and filled counts.
	qKey           []float64
	qSeq, qCls     []int32
	rHead, rFill   []int32
	rKey           []float64 // cached head arrival per run (valid while non-empty)
	rSeq           []int32   // cached head sequence per run
	head           []int32   // next unsent send slot per sender
	toRecv, forced []int32
	candKey        []float64
	candKind       []uint8
	mask, pend     []uint64

	// Standard-algorithm selection tree: a tournament over tw (next
	// power of two >= p) leaves holding each unexhausted sender's clock
	// (+Inf otherwise), with per-node tie counts. Selecting the
	// minimum-clock sender, counting its ties and extracting the k-th
	// tied index — all in leaf (index) order, as the reference's scan
	// produces them — costs log p instead of a full rescan per commit.
	treeVal []float64
	treeCnt []int32
	tw      int

	// Per-receiver head cache: hRun[q] is the run holding q's earliest
	// pending arrival (-1 when none) and hKey[q] that arrival. A push
	// maintains it with one compare (a new entry only matters if it
	// becomes its own run's head and beats the cached key); only a pop
	// pays the scan over q's runs to rebuild it.
	hRun []int32
	hKey []float64

	rngStd, rngWC []*rand.Rand
	inj           []*faults.Injector
	errs          []error
	durs          []float64 // per-lane perturbed computation scratch
}

// Run advances every lane through the whole program and returns one
// Result per lane, in lane order. A non-nil error aborts all lanes
// (invalid shared inputs, or Config.Ctx done); per-lane failures land
// in Result.Err instead.
func Run(pr *program.Program, cfg Config, ls []Lane) ([]Result, error) {
	var e Engine
	return e.Run(pr, cfg, ls)
}

// Run is the method form, reusing the engine's storage across calls.
func (e *Engine) Run(pr *program.Program, cfg Config, ls []Lane) ([]Result, error) {
	if cfg.Cost == nil {
		return nil, fmt.Errorf("lanes: no cost model")
	}
	if len(ls) == 0 {
		return nil, fmt.Errorf("lanes: no lanes")
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if err := e.decode(pr, cfg.Cost); err != nil {
		return nil, err
	}
	e.prepare(pr.P, ls)

	for si := range e.steps {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("lanes: step %d of %d: %w", si, len(e.steps), err)
			}
		}
		sp := &e.steps[si]
		base := e.baseDurs[si]
		for l := range ls {
			if e.errs[l] != nil {
				continue
			}
			// Computation phase: the shared unperturbed charges, inflated
			// by the lane's injector exactly as the scalar predictor
			// inflates them (same step and processor identities).
			durs := base
			if inj := e.inj[l]; inj != nil {
				for q := range e.durs {
					e.durs[q] = inj.PerturbCompute(si, q, base[q])
				}
				durs = e.durs
			}
			lp := l * e.p
			for q := 0; q < e.p; q++ {
				e.ctStd[lp+q] += durs[q]
				e.ctWC[lp+q] += durs[q]
			}
			if sp.nmsgs == 0 {
				continue // nothing to schedule; both loops would no-op
			}
			// Each scheduler run resets the shared receive buffers on
			// entry, so a lane dying mid-step cannot leak undelivered
			// arrivals into the next lane.
			e.runStd(sp, si, l)
			if e.errs[l] == nil {
				e.runWC(sp, si, l)
			}
		}
	}

	out := make([]Result, len(ls))
	for l := range ls {
		if e.errs[l] != nil {
			out[l].Err = e.errs[l]
			continue
		}
		lp := l * e.p
		for q := 0; q < e.p; q++ {
			if c := e.ctStd[lp+q]; c > out[l].Total {
				out[l].Total = c
			}
			if c := e.ctWC[lp+q]; c > out[l].TotalWorst {
				out[l].TotalWorst = c
			}
		}
	}
	return out, nil
}

// decode builds the shared program plan: per-step flat send windows,
// in-degrees, sender masks, receive-run tables and byte classes, plus
// the unperturbed computation-charge sums. The program is already
// validated.
func (e *Engine) decode(pr *program.Program, model cost.Model) error {
	e.p = pr.P
	e.words = (pr.P + 63) / 64
	e.classBytes = e.classBytes[:0]
	e.steps = e.steps[:0]
	e.baseDurs = e.baseDurs[:0]
	e.maxNmsgs, e.maxRuns = 0, 0
	classOf := make(map[int]int32)
	cnt := make([]int32, pr.P)
	fill := make([]int32, pr.P)
	cnt2 := make([]int32, pr.P*pr.P)  // per (src,dst) message count
	runOf := make([]int32, pr.P*pr.P) // per (src,dst) run index
	for si, s := range pr.Steps {
		durs := make([]float64, pr.P)
		for q := range durs {
			d := 0.0
			for _, call := range s.Comp[q] {
				d += model.Cost(call.Op, call.BlockSize)
			}
			if d < 0 {
				return fmt.Errorf("lanes: step %d: processor %d has negative computation time %g", si, q, d)
			}
			durs[q] = d
		}
		e.baseDurs = append(e.baseDurs, durs)
		sp := stepPlan{
			off:      make([]int32, pr.P+1),
			inCnt:    make([]int32, pr.P),
			sendMask: make([]uint64, e.words),
		}
		clear(cnt)
		nmsgs := 0
		for _, m := range s.Comm.Msgs {
			if m.Src == m.Dst {
				continue // local transfer: skipped by both schedulers
			}
			if _, ok := classOf[m.Bytes]; !ok {
				classOf[m.Bytes] = int32(len(e.classBytes))
				e.classBytes = append(e.classBytes, m.Bytes)
			}
			cnt[m.Src]++
			sp.inCnt[m.Dst]++
			cnt2[m.Src*pr.P+m.Dst]++
			nmsgs++
		}
		sp.nmsgs = nmsgs
		if nmsgs > e.maxNmsgs {
			e.maxNmsgs = nmsgs
		}
		off := int32(0)
		for q := 0; q < pr.P; q++ {
			sp.off[q] = off
			off += cnt[q]
			if cnt[q] > 0 {
				sp.sendMask[q>>6] |= 1 << (q & 63)
			}
		}
		sp.off[pr.P] = off
		// Receive runs: one per (sender, receiver) pair with traffic,
		// grouped per receiver, each owning a region of the step's
		// arrival buffer sized to the pair's message count.
		sp.runIdx = make([]int32, pr.P+1)
		nRuns, base := int32(0), int32(0)
		for dst := 0; dst < pr.P; dst++ {
			sp.runIdx[dst] = nRuns
			for src := 0; src < pr.P; src++ {
				if c := cnt2[src*pr.P+dst]; c > 0 {
					runOf[src*pr.P+dst] = nRuns
					sp.runBase = append(sp.runBase, base)
					base += c
					nRuns++
				}
			}
		}
		sp.runIdx[pr.P] = nRuns
		sp.nRuns = int(nRuns)
		if sp.nRuns > e.maxRuns {
			e.maxRuns = sp.nRuns
		}
		// Second pass: fill the send slots, grouped by sender in
		// pattern order.
		sp.sDst = make([]int32, nmsgs)
		sp.sCls = make([]int32, nmsgs)
		sp.sRun = make([]int32, nmsgs)
		sp.sOrig = make([]int32, nmsgs)
		copy(fill, sp.off[:pr.P])
		for idx, m := range s.Comm.Msgs {
			if m.Src == m.Dst {
				continue
			}
			slot := fill[m.Src]
			fill[m.Src] = slot + 1
			sp.sDst[slot] = int32(m.Dst)
			sp.sCls[slot] = classOf[m.Bytes]
			sp.sRun[slot] = runOf[m.Src*pr.P+m.Dst]
			sp.sOrig[slot] = int32(idx)
			cnt2[m.Src*pr.P+m.Dst] = 0
		}
		e.steps = append(e.steps, sp)
	}
	e.classes = len(e.classBytes)
	return nil
}

// growF64 / growI32 resize scratch to n entries, reusing backing.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// prepare sizes and initializes the engine state: fresh per-lane clocks
// and gap floors, per-lane RNG pairs, injectors and per-class LogGP
// tables, and the shared scratch (the arrival buffer sized once to the
// program's largest step).
func (e *Engine) prepare(p int, ls []Lane) {
	e.lanes = len(ls)
	n := e.lanes * p
	e.ctStd, e.fsStd, e.frStd = growF64(e.ctStd, n), growF64(e.fsStd, n), growF64(e.frStd, n)
	e.ctWC, e.fsWC, e.frWC = growF64(e.ctWC, n), growF64(e.fsWC, n), growF64(e.frWC, n)

	e.head = growI32(e.head, p)
	e.toRecv, e.forced = growI32(e.toRecv, p), growI32(e.forced, p)
	e.candKey = growF64(e.candKey, p)
	if cap(e.candKind) < p {
		e.candKind = make([]uint8, p)
	}
	e.candKind = e.candKind[:p]
	e.hRun, e.hKey = growI32(e.hRun, p), growF64(e.hKey, p)
	e.qKey = growF64(e.qKey, e.maxNmsgs)
	e.qSeq, e.qCls = growI32(e.qSeq, e.maxNmsgs), growI32(e.qCls, e.maxNmsgs)
	e.rHead, e.rFill = growI32(e.rHead, e.maxRuns), growI32(e.rFill, e.maxRuns)
	e.rKey, e.rSeq = growF64(e.rKey, e.maxRuns), growI32(e.rSeq, e.maxRuns)
	e.tw = 1
	for e.tw < p {
		e.tw <<= 1
	}
	e.treeVal = growF64(e.treeVal, 2*e.tw)
	e.treeCnt = growI32(e.treeCnt, 2*e.tw)
	if cap(e.mask) < e.words {
		e.mask = make([]uint64, e.words)
		e.pend = make([]uint64, e.words)
	}
	e.mask, e.pend = e.mask[:e.words], e.pend[:e.words]
	e.durs = growF64(e.durs, p)

	nc := e.lanes * e.classes
	e.adTab = growF64(e.adTab, nc)
	e.ivLikeTab, e.ivUnlikeTab = growF64(e.ivLikeTab, nc), growF64(e.ivUnlikeTab, nc)
	e.o = growF64(e.o, e.lanes)

	if cap(e.rngStd) < e.lanes {
		e.rngStd = make([]*rand.Rand, e.lanes)
		e.rngWC = make([]*rand.Rand, e.lanes)
	}
	e.rngStd, e.rngWC = e.rngStd[:e.lanes], e.rngWC[:e.lanes]
	if cap(e.inj) < e.lanes {
		e.inj = make([]*faults.Injector, e.lanes)
	}
	e.inj = e.inj[:e.lanes]
	if cap(e.errs) < e.lanes {
		e.errs = make([]error, e.lanes)
	}
	e.errs = e.errs[:e.lanes]

	for l, ln := range ls {
		e.errs[l] = nil
		e.inj[l] = nil
		// The same acceptance checks the scalar sessions apply in
		// Reconfigure; a rejected lane fails alone, like its sample would.
		if err := ln.Params.Validate(); err != nil {
			e.errs[l] = err
			continue
		}
		if p > ln.Params.P {
			e.errs[l] = fmt.Errorf("lanes: program uses %d processors but machine has P=%d", p, ln.Params.P)
			continue
		}
		inj, err := ln.Faults.Injector(ln.Params)
		if err != nil {
			e.errs[l] = err
			continue
		}
		e.inj[l] = inj
		// Two owned streams per lane, seeded exactly like the scalar
		// standard and worst-case sessions (both from the same seed, with
		// independent state).
		if e.rngStd[l] == nil {
			e.rngStd[l] = rand.New(rand.NewSource(ln.Seed))
			e.rngWC[l] = rand.New(rand.NewSource(ln.Seed))
		} else {
			e.rngStd[l].Seed(ln.Seed)
			e.rngWC[l].Seed(ln.Seed)
		}
		e.o[l] = ln.Params.O
		// Per-class derivatives, evaluated with the exact expressions of
		// loggp.Params.Interval and ArrivalDelay.
		lc := l * e.classes
		for c, bytes := range e.classBytes {
			ser := ln.Params.Serialization(bytes)
			floor := max(ln.Params.O, ser)
			like := max(ln.Params.Gap, floor)
			unlike := like
			if ln.Params.NoCrossGap {
				unlike = floor
			}
			e.adTab[lc+c] = ln.Params.ArrivalDelay(bytes)
			e.ivLikeTab[lc+c] = like
			e.ivUnlikeTab[lc+c] = unlike
		}
	}
}

// runStd replays one communication step of one lane under the standard
// algorithm, replicating sim.runPaperReference: the minimum-clock
// sender (random tie-break, randomness consumed only on genuine ties)
// chooses between its next send and its earliest pending receive,
// receive winning start-time ties; then every processor drains its
// remaining receives in index order. Selection runs on the tournament
// tree — one leaf update and a root read per commit — whose tie counts
// and leaf order reproduce the reference scan's tie list exactly.
func (e *Engine) runStd(sp *stepPlan, si, l int) {
	p := e.p
	lp := l * p
	ct := e.ctStd[lp : lp+p : lp+p]
	fs := e.fsStd[lp : lp+p : lp+p]
	fr := e.frStd[lp : lp+p : lp+p]
	head := e.head
	copy(head, sp.off[:p])
	clear(e.rHead[:sp.nRuns])
	clear(e.rFill[:sp.nRuns])
	hRun, hKey := e.hRun, e.hKey
	for q := 0; q < p; q++ {
		hRun[q] = -1
	}
	seq := int32(0)
	rng := e.rngStd[l]
	o := e.o[l]
	inj := e.inj[l]
	lc := l * e.classes

	// Build the selection tree: leaves hold the clocks of processors
	// with unsent messages, +Inf otherwise.
	tw := e.tw
	tv, tc := e.treeVal, e.treeCnt
	for i := 0; i < tw; i++ {
		leaf := math.Inf(1)
		if i < p && sp.off[i] < sp.off[i+1] {
			leaf = ct[i]
		}
		tv[tw+i], tc[tw+i] = leaf, 1
	}
	for n := tw - 1; n >= 1; n-- {
		lv, rv := tv[2*n], tv[2*n+1]
		switch {
		case lv < rv:
			tv[n], tc[n] = lv, tc[2*n]
		case lv > rv:
			tv[n], tc[n] = rv, tc[2*n+1]
		default:
			tv[n], tc[n] = lv, tc[2*n]+tc[2*n+1]
		}
	}

	for {
		minT := tv[1]
		if math.IsInf(minT, 1) {
			break
		}
		// Descend to the minimum-clock leaf. With ties, the reference
		// collects tied processors in index order and consumes one
		// Intn; descending by per-node tie counts selects the k-th
		// tied leaf — the same draw against the same ordering.
		n := 1
		if tc[1] > 1 {
			k := int32(rng.Intn(int(tc[1])))
			for n < tw {
				left := 2 * n
				if tv[left] == minT {
					if k < tc[left] {
						n = left
						continue
					}
					k -= tc[left]
				}
				n = 2*n + 1
			}
		} else {
			for n < tw {
				if tv[2*n] == minT {
					n = 2 * n
				} else {
					n = 2*n + 1
				}
			}
		}
		proc := n - tw

		startSend := ct[proc]
		if f := fs[proc]; f > startSend {
			startSend = f
		}
		startRecv := math.Inf(1)
		if hRun[proc] >= 0 {
			startRecv = ct[proc]
			if f := fr[proc]; f > startRecv {
				startRecv = f
			}
			if a := hKey[proc]; a > startRecv {
				startRecv = a
			}
		}
		leaf := math.Inf(1) // proc's new tree leaf: clock, or +Inf once exhausted
		if startSend < startRecv {
			slot := head[proc]
			head[proc] = slot + 1
			c := int(sp.sCls[slot])
			dst := int(sp.sDst[slot])
			arrival := startSend + e.adTab[lc+c]
			busy := 0.0
			if inj != nil {
				orig := int(sp.sOrig[slot])
				extraBusy, delay, err := inj.SendOutcome(si, orig, proc, dst, e.classBytes[c], startSend)
				if err != nil {
					e.errs[l] = fmt.Errorf("lanes: message %d (%d->%d): %w", orig, proc, dst, err)
					return
				}
				if math.IsNaN(extraBusy) || math.IsInf(extraBusy, 0) || extraBusy < 0 {
					e.errs[l] = fmt.Errorf("lanes: message %d (%d->%d): fault hook returned bad busy time %g",
						orig, proc, dst, extraBusy)
					return
				}
				busy = extraBusy
				arrival += delay
				if math.IsNaN(arrival) || math.IsInf(arrival, 0) {
					e.errs[l] = fmt.Errorf("lanes: message %d (%d->%d): non-finite arrival time %g from fault hook",
						orig, proc, dst, arrival)
					return
				}
			}
			e.push(sp, sp.sRun[slot], dst, arrival, seq, int32(c))
			seq++
			ct[proc] = startSend + o + busy
			fs[proc] = startSend + e.ivLikeTab[lc+c]
			fr[proc] = startSend + e.ivUnlikeTab[lc+c]
			if int32(slot)+1 < sp.off[proc+1] {
				leaf = ct[proc]
			}
		} else {
			c := int(e.popRun(sp, hRun[proc]))
			e.rebuildHead(sp, proc)
			ct[proc] = startRecv + o
			fs[proc] = startRecv + e.ivUnlikeTab[lc+c]
			fr[proc] = startRecv + e.ivLikeTab[lc+c]
			leaf = ct[proc]
		}
		// Re-seat proc in the tree along its leaf-to-root path.
		tv[n] = leaf
		for n >>= 1; n >= 1; n >>= 1 {
			lv, rv := tv[2*n], tv[2*n+1]
			switch {
			case lv < rv:
				tv[n], tc[n] = lv, tc[2*n]
			case lv > rv:
				tv[n], tc[n] = rv, tc[2*n+1]
			default:
				tv[n], tc[n] = lv, tc[2*n]+tc[2*n+1]
			}
		}
	}
	// Drain phase: remaining receives per processor in index order.
	for q := 0; q < p; q++ {
		for hRun[q] >= 0 {
			start := ct[q]
			if f := fr[q]; f > start {
				start = f
			}
			if a := hKey[q]; a > start {
				start = a
			}
			c := int(e.popRun(sp, hRun[q]))
			e.rebuildHead(sp, q)
			ct[q] = start + o
			fs[q] = start + e.ivUnlikeTab[lc+c]
			fr[q] = start + e.ivLikeTab[lc+c]
		}
	}
}

// push appends an arrival to its receive run. A sender's start times
// only grow, so within a run arrivals are nondecreasing unless fault
// delays or mixed byte classes reorder them — then the entry is
// inserted in (arrival, seq) order, which keeps every run sorted and
// makes the run-head merge pop exactly what a (key, seq) heap would.
// The receiver's head cache needs at most one compare: the new entry
// only matters if it heads its own run and beats the cached key (on a
// key tie the cache keeps the earlier push, as the seq order demands).
func (e *Engine) push(sp *stepPlan, run int32, dst int, arrival float64, seq, cls int32) {
	b := sp.runBase[run]
	f := e.rFill[run]
	h := e.rHead[run]
	atHead := f == h
	if f > h && e.qKey[b+f-1] > arrival {
		pos := h
		for e.qKey[b+pos] <= arrival {
			pos++
		}
		copy(e.qKey[b+pos+1:b+f+1], e.qKey[b+pos:b+f])
		copy(e.qSeq[b+pos+1:b+f+1], e.qSeq[b+pos:b+f])
		copy(e.qCls[b+pos+1:b+f+1], e.qCls[b+pos:b+f])
		e.qKey[b+pos], e.qSeq[b+pos], e.qCls[b+pos] = arrival, seq, cls
		atHead = pos == h
	} else {
		e.qKey[b+f], e.qSeq[b+f], e.qCls[b+f] = arrival, seq, cls
	}
	e.rFill[run] = f + 1
	if atHead {
		e.rKey[run], e.rSeq[run] = arrival, seq
		if e.hRun[dst] < 0 || arrival < e.hKey[dst] {
			e.hRun[dst], e.hKey[dst] = run, arrival
		}
	}
}

// popRun consumes run r's head entry, returning its byte class, and
// refreshes the run's cached head so rebuildHead never has to chase
// pointers into the arrival buffer.
func (e *Engine) popRun(sp *stepPlan, r int32) int32 {
	b := sp.runBase[r]
	h := e.rHead[r]
	c := e.qCls[b+h]
	h++
	e.rHead[r] = h
	if h < e.rFill[r] {
		e.rKey[r], e.rSeq[r] = e.qKey[b+h], e.qSeq[b+h]
	}
	return c
}

// rebuildHead rescans receiver q's runs after a pop to restore the
// head cache: the earliest (arrival, seq) among the run heads. The
// per-run cached keys keep the scan inside a few contiguous cache
// lines instead of striding across the arrival buffer.
func (e *Engine) rebuildHead(sp *stepPlan, q int) {
	prun, headK, headS := int32(-1), 0.0, int32(0)
	rHead, rFill := e.rHead, e.rFill
	rKey, rSeq := e.rKey, e.rSeq
	for r := sp.runIdx[q]; r < sp.runIdx[q+1]; r++ {
		if rHead[r] == rFill[r] {
			continue
		}
		if k := rKey[r]; prun < 0 || k < headK || (k == headK && rSeq[r] < headS) {
			headK, headS, prun = k, rSeq[r], r
		}
	}
	e.hRun[q], e.hKey[q] = prun, headK
}

// runWC replays one communication step of one lane under the
// worst-case strategy, replicating worstcase.runReference through the
// same incremental candidate cache the session's tournament core uses:
// after a commit only the committed processor's candidates — and, for a
// send, the destination's receive candidate — can change, so only those
// are recomputed; the scan takes the leftmost strictly smallest cached
// start (receive winning ties within a processor). A processor stays in
// a commit burst while its refreshed key is strictly below every other
// key (other keys never rise in between: a push can only lower the
// destination's). Deadlocks are broken by releasing a random blocked
// sender — one RNG draw per break, unconditionally, like both session
// loops.
func (e *Engine) runWC(sp *stepPlan, si, l int) {
	p := e.p
	lp := l * p
	ct := e.ctWC[lp : lp+p : lp+p]
	fs := e.fsWC[lp : lp+p : lp+p]
	fr := e.frWC[lp : lp+p : lp+p]
	head := e.head
	toRecv, forced := e.toRecv, e.forced
	key, kind := e.candKey, e.candKind
	cand, pend := e.mask, e.pend
	copy(pend, sp.sendMask)
	copy(head, sp.off[:p])
	clear(e.rHead[:sp.nRuns])
	clear(e.rFill[:sp.nRuns])
	hRun := e.hRun
	for q := 0; q < p; q++ {
		hRun[q] = -1
	}
	seq := int32(0)
	rng := e.rngWC[l]
	o := e.o[l]
	inj := e.inj[l]
	lc := l * e.classes

	// Initial candidates: receive buffers are empty, so only processors
	// with sends and no pending receives are eligible.
	for w := range cand {
		cand[w] = 0
	}
	for q := 0; q < p; q++ {
		toRecv[q] = sp.inCnt[q]
		forced[q] = 0
		key[q] = math.Inf(1)
		if head[q] < sp.off[q+1] && toRecv[q] == 0 {
			key[q] = ct[q]
			if f := fs[q]; f > key[q] {
				key[q] = f
			}
			kind[q] = candSend
			cand[q>>6] |= 1 << (q & 63)
		}
	}

	for {
		// Scan: leftmost strict minimum key over live candidates, with
		// the runner-up bounding the burst.
		best, bestK, min2 := -1, math.Inf(1), math.Inf(1)
		for w, mw := range cand {
			for m := mw; m != 0; m &= m - 1 {
				q := w<<6 | bits.TrailingZeros64(m)
				k := key[q]
				if k < bestK {
					min2 = bestK
					bestK, best = k, q
				} else if k < min2 {
					min2 = k
				}
			}
		}
		if best < 0 {
			// No candidate: every processor with messages left is blocked
			// on unreceived messages — release one at random (index-order
			// list, one draw even for a single blocked sender).
			blocked := 0
			for _, mw := range pend {
				blocked += bits.OnesCount64(mw)
			}
			if blocked == 0 {
				break
			}
			k := rng.Intn(blocked)
			release := -1
		rel:
			for w, mw := range pend {
				for m := mw; m != 0; m &= m - 1 {
					if k == 0 {
						release = w<<6 | bits.TrailingZeros64(m)
						break rel
					}
					k--
				}
			}
			forced[release]++
			e.refreshWC(sp, lp, release)
			continue
		}
		// Burst on best: keys of other processors never rise between
		// best's commits (a push only lowers the destination's), so
		// best remains the leftmost strict minimum while its refreshed
		// key stays strictly below min2.
		for {
			start := key[best]
			if kind[best] == candSend {
				if toRecv[best] != 0 {
					forced[best]--
				}
				slot := head[best]
				head[best] = slot + 1
				c := int(sp.sCls[slot])
				dst := int(sp.sDst[slot])
				arrival := start + e.adTab[lc+c]
				busy := 0.0
				if inj != nil {
					orig := int(sp.sOrig[slot])
					extraBusy, delay, err := inj.SendOutcome(si, orig, best, dst, e.classBytes[c], start)
					if err != nil {
						e.errs[l] = fmt.Errorf("lanes: message %d (%d->%d): %w", orig, best, dst, err)
						return
					}
					arrival += delay
					busy = extraBusy
					if math.IsNaN(arrival) || math.IsInf(arrival, 0) || math.IsNaN(busy) || math.IsInf(busy, 0) || busy < 0 {
						e.errs[l] = fmt.Errorf("lanes: message %d (%d->%d): bad fault charge (busy %g, arrival %g)",
							orig, best, dst, busy, arrival)
						return
					}
				}
				e.push(sp, sp.sRun[slot], dst, arrival, seq, int32(c))
				seq++
				ct[best] = start + o + busy
				fs[best] = start + e.ivLikeTab[lc+c]
				fr[best] = start + e.ivUnlikeTab[lc+c]
				if head[best] == sp.off[best+1] {
					pend[best>>6] &^= 1 << (best & 63)
				}
				e.refreshWC(sp, lp, best)
				e.refreshWC(sp, lp, dst)
				if k := key[dst]; k < min2 {
					min2 = k
				}
			} else {
				c := int(e.popRun(sp, hRun[best]))
				e.rebuildHead(sp, best)
				toRecv[best]--
				ct[best] = start + o
				fs[best] = start + e.ivUnlikeTab[lc+c]
				fr[best] = start + e.ivLikeTab[lc+c]
				e.refreshWC(sp, lp, best)
			}
			if key[best] >= min2 {
				break // rescan applies the exact leftmost tie rule
			}
		}
	}
}

// refreshWC recomputes processor q's worst-case candidate (key, kind,
// live bit) from the clocks, floors and the receiver head cache. lp is
// the lane's base offset into the worst-case state arrays.
func (e *Engine) refreshWC(sp *stepPlan, lp, q int) {
	startSend := math.Inf(1)
	if e.head[q] < sp.off[q+1] && (e.toRecv[q] == 0 || e.forced[q] > 0) {
		startSend = e.ctWC[lp+q]
		if f := e.fsWC[lp+q]; f > startSend {
			startSend = f
		}
	}
	startRecv := math.Inf(1)
	if e.hRun[q] >= 0 {
		startRecv = e.ctWC[lp+q]
		if f := e.frWC[lp+q]; f > startRecv {
			startRecv = f
		}
		if a := e.hKey[q]; a > startRecv {
			startRecv = a
		}
	}
	k, kd := startRecv, candRecv
	if startSend < k {
		k, kd = startSend, candSend
	}
	e.candKey[q], e.candKind[q] = k, kd
	if math.IsInf(k, 1) {
		e.mask[q>>6] &^= 1 << (q & 63)
	} else {
		e.mask[q>>6] |= 1 << (q & 63)
	}
}
