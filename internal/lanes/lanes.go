// Package lanes is the program-level prediction engine: it replays an
// oblivious block program under the paper's standard (Figure 2) and
// worst-case (Section 4.2) communication algorithms for one or many
// "lanes" at once. A lane is one configuration of the replay — a
// machine, a tie-break seed, a fault plan and optionally a contention
// fabric — so a scalar prediction (package predictor) is the one-lane
// case and a Monte-Carlo envelope (package robust) advances all of its
// samples in lockstep: one pass over the program drives every lane's
// standard and worst-case slot, with the per-lane state laid out
// structure-of-arrays (clocks and gap floors lane-major, per-lane
// hash-derived RNG streams and fault injectors).
//
// Everything that does not depend on the lane is paid once per step:
// the program is validated once, each step is decoded once into reused
// scratch (flat per-processor send windows, in-degrees, sender masks,
// receive runs and byte classes) and its unperturbed computation
// charges are summed once and shared. Decoding one step at a time keeps
// memory bounded by the largest step, not the whole program, and a
// steady-state RunInto on a reused engine allocates nothing for lanes
// without a fault plan (a plan compiles one injector per lane and run).
// Each lane's per-class LogGP derivatives (arrival delay, like/unlike
// operation intervals) are tabulated when the class first appears.
//
// The scheduler cores are leaner than the sessions' (packages sim and
// worstcase): because every communication phase starts and ends with
// empty receive queues, only clocks and gap floors persist per lane;
// receive buffers, send heads and candidate caches are step-transient
// scratch shared by all lanes. A step's messages are grouped into
// receive runs, one per (sender, receiver) pair; a sender's arrivals at
// a fixed receiver are almost always nondecreasing (its start times
// only grow), so a push is an append (with a rare ordered insert), and
// each receiver keeps a binary heap of its run heads keyed by (arrival,
// sequence), so a receive costs O(log runs) however many senders
// target the receiver. A run's state (its buffer region, consumed and
// filled counts, head arrival and sequence, heap slot) is one record,
// and so is each queued arrival (time, sequence, byte class), so a push
// or a pop touches one run record and one arrival record instead of a
// row across parallel tables. The standard core draws its minimum-clock
// sender from eventq.Tournament, the tie-counting tree the session
// cores select on. The worst-case core scans bitmasks of live
// processors, and a processor that remains the strict minimum after a
// commit keeps committing without a rescan (the common case in
// broadcast-shaped steps); a deadlock release enters such a burst at
// once, since the released send is then the only candidate. Within a
// burst the committer's candidate is recomputed in place and a send's
// destination only compares its new receive start against its cached
// key, so the per-lane cost approaches the bare per-message float
// arithmetic.
//
// The modes of predictor.Config are lane-engine modes: SendPriority
// flips the standard core's send-versus-receive tie; GlobalOrder runs
// the standard slot on the worst-case core with its messages-to-receive
// gate off (such a run cannot deadlock, so it draws no random numbers),
// with the tie within one processor going to the send under
// SendPriority; Overlap lets each step's computation run concurrently
// with its communication; Charges adds the cache-aware prediction's
// per-step loading charges to the clocks; a lane's Network routes its
// standard slot over a contention fabric. Every lane reads out the
// predictor's decomposition (Comp, Comm, CommWorst, per-processor
// computation and, under CollectSteps, a per-step profile).
//
// Lane results are bit-identical to the session loop the predictor ran
// before it became one lane — sessionReplay in oracle_test.go, which
// drives sim and worstcase sessions with every option: the cores
// replicate the schedulers' reference loops (runPaperReference and
// runGlobalOrderReference in sim's reference_test.go, the reference
// session's run in worstcase's) decision for decision, including when
// tie-break randomness is consumed.
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
//     the rest of the run, exactly as a scalar replay abandons the
//     sample.
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
	"loggpsim/internal/eventq"
	"loggpsim/internal/faults"
	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
)

// Network is a contention fabric (see package network): a message from
// src to dst handed to the network at inject arrives at the returned
// time.
type Network interface {
	Arrival(src, dst, bytes int, inject float64) float64
}

// Lane configures one replay: its (possibly perturbed) machine, its
// scheduler tie-break seed, its fault plan and its network.
type Lane struct {
	// Params is the lane's LogGP machine description.
	Params loggp.Params
	// Seed seeds the lane's two tie-break RNG streams exactly as
	// predictor.Config.Seed seeds a prediction.
	Seed int64
	// Faults is the lane's fault plan (seed included); the zero plan
	// injects nothing.
	Faults faults.Plan
	// Network, when non-nil, replaces the flat LogGP arrival of the
	// lane's standard slot: a message committed at start is handed to
	// the fabric at start + o, before any fault delay, and a non-finite
	// answer fails the lane. It is called once per message in commit
	// order, so a stateful fabric must serve one lane only. The
	// worst-case slot keeps the flat LogGP network.
	Network Network
	// StandardOnly skips the lane's worst-case slot: the lane replays
	// only its standard slot, so its Result leaves TotalWorst and
	// CommWorst at zero. Its other readouts, and every other lane, are
	// unchanged.
	StandardOnly bool
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

	// SendPriority inverts the standard slot's receive-over-send
	// priority rule (the sim.Config ablation); the worst-case slot keeps
	// receive priority.
	SendPriority bool
	// GlobalOrder replaces the standard slot's Figure-2 loop with the
	// globally time-ordered commit loop of sim.Config.GlobalOrder.
	GlobalOrder bool
	// Overlap runs each step's computation concurrently with its
	// communication (predictor.Config.Overlap): the clocks are not
	// charged before the communication phase, and after it each clock
	// rises to at least its step-start value plus the computation plus
	// o per communication operation of the processor.
	Overlap bool
	// Charges, when non-nil, holds per-step, per-processor charges
	// (cache.Warming.Charges of the cache-aware prediction) added to the
	// clocks in each step's computation phase; they count in the clocks
	// but not in Result.Comp.
	Charges [][]float64
	// CollectSteps records each lane's per-step profile of the standard
	// slot, read back with Engine.Profile.
	CollectSteps bool
}

// Result is one lane's outcome.
type Result struct {
	// Total and TotalWorst are the standard and worst-case predicted
	// running times (predictor.Prediction's fields for an equivalent
	// scalar configuration).
	Total      float64
	TotalWorst float64
	// Comp is the maximum over processors of the summed computation
	// time, charges excluded. Comm and CommWorst are the maximum over
	// processors of the clock advance across the communication phases
	// of the standard and the worst-case slot, waiting included.
	Comp, Comm, CommWorst float64
	// Err, when non-nil, marks a masked lane: the replay aborted (a
	// *faults.LossError in the chain means the lane lost a message)
	// and the other fields are meaningless.
	Err error
}

// StepProfile is one step of a lane's standard-slot profile.
type StepProfile struct {
	// Comp is the step's maximum per-processor computation charge
	// (charges included).
	Comp float64
	// CommAdvance is the step's maximum per-processor clock advance
	// across the communication phase, waiting included.
	CommAdvance float64
	// Finish is the maximum clock after the step.
	Finish float64
}

// stepPlan is the decoded structure of one communication step. The
// messages are laid out in send slots grouped by sender (pattern order
// within each group): processor q sends slots off[q]..off[q+1], and the
// parallel sDst/sCls/sRun/sOrig arrays give each slot's destination,
// byte class, receive run and pattern index, so a sender's commits read
// four sequential streams instead of chasing a message table. A run is
// the slice of arrivals one sender delivers to one receiver; runs are
// grouped per receiver (runIdx[q]..runIdx[q+1]) and each owns a
// fixed-capacity region of the step's arrival buffer (run.base).
type stepPlan struct {
	off      []int32 // len p+1: send-slot range per sender
	sDst     []int32 // per slot: destination processor
	sCls     []int32 // per slot: byte class (engine classBytes index)
	sRun     []int32 // per slot: receive run
	sOrig    []int32 // per slot: index within the pattern (fault identity)
	inCnt    []int32
	sendMask []uint64
	runIdx   []int32 // len p+1: run-table range per receiver
	nRuns    int
	nmsgs    int
}

// run is one receive run: its region of the step's arrival buffer
// (base, with head entries consumed and fill entries filled), the (key,
// seq) of its head arrival, and its slot in the receiver's heap: every
// field a push or a pop touches, in one 32-byte record.
type run struct {
	key              float64
	base, head, fill int32
	seq, pos         int32
}

// arrival is one queued message of a receive run: its arrival time,
// commit sequence number and byte class.
type arrival struct {
	key      float64
	seq, cls int32
}

// deriv holds one lane's LogGP derivatives for one byte class: the
// arrival delay, and the interval to the next operation of the same
// kind (like) and of the other kind (unlike). A commit at start sets
// the gap floors to start + like and start + unlike.
type deriv struct {
	ad, like, unlike float64
}

const (
	candRecv = uint8(0)
	candSend = uint8(1)
)

// Engine holds the lockstep state. The zero value is ready; Run may be
// called repeatedly, reusing the storage. An Engine must not be used
// concurrently.
type Engine struct {
	p, lanes, words, nsteps int

	// Byte classes, discovered step by step: classOf maps a message size
	// to its index in classBytes, and each lane's derivatives are
	// tabulated class-major [class*lanes + lane] when a class first
	// appears.
	classBytes []int
	classOf    map[int]int32
	dv         []deriv

	// The run's configuration, per lane and shared.
	o           []float64 // Params.O per lane
	net         []Network // per lane; nil is the flat network
	stdOnly     []bool    // Lane.StandardOnly per lane
	rngStd      []*rand.Rand
	rngWC       []*rand.Rand
	inj         []*faults.Injector
	errs        []error
	sendFirst   bool // Config.SendPriority
	globalOrder bool // Config.GlobalOrder
	overlap     bool // Config.Overlap
	collect     bool // Config.CollectSteps
	charges     [][]float64

	// Lane-major readouts [lane*p + proc] (prof: [lane*nsteps + step]):
	// summed computation, and the clock advance across communication in
	// each slot.
	comp, commStd, commWC []float64
	prof                  []StepProfile

	// The current step, decoded into reused scratch, and its decode
	// scratch: per-processor send counts and cursors, the step's
	// network messages grouped by receiver, and each pattern message's
	// run. stamp marks a sender as seen by the receiver being grouped
	// (receiver+1), with its run in srcRun.
	sp            stepPlan
	cnt, fill     []int32
	stamp, srcRun []int32
	order, msgRun []int32

	// Computation-phase scratch: the step's unperturbed charge per
	// processor, a lane's perturbed and cache-charged copies, and the
	// lane's clocks entering the communication phase.
	base, durs, charged []float64
	beforeStd, beforeWC []float64

	// Per-receiver run heads: receiver q's non-empty runs form a binary
	// heap in hp[runIdx[q] : runIdx[q]+hn[q]] ordered by head (arrival,
	// seq), and hRun[q]/hKey[q] cache the root run and its arrival (hRun
	// -1 when q has nothing pending).
	hn, hp []int32
	hRun   []int32
	hKey   []float64

	// Scheduler-core scratch: each sender's next send slot, and the
	// worst-case core's messages-to-receive counters, forced releases,
	// candidate keys and kinds, and live-candidate and pending-sender
	// masks.
	head, toRecv, forced []int32
	candKey              []float64
	candKind             []uint8
	mask, pend           []uint64

	// Persistent per-lane-processor scheduler state, lane-major
	// [lane*p + proc]: the clocks and gap-floor carries of the standard
	// and worst-case slot. The floors hold lastStart + Interval(last,
	// kind, lastBytes), or zero before the lane's first operation;
	// clocks are non-negative, so max(clock, floor) reproduces the
	// sessions' earliest() exactly.
	ctStd, fsStd, frStd []float64
	ctWC, fsWC, frWC    []float64

	// Step-transient receive runs and their arrival buffer, shared by
	// all lanes (every communication phase starts and ends with empty
	// receive buffers, so neither outlives one lane-step).
	runs  []run
	queue []arrival

	// Standard-algorithm selection tree: the tie-counting tournament
	// over each unexhausted sender's clock (+Inf otherwise), the one the
	// session cores use. Counting the minimum-clock senders and
	// extracting the k-th of them in index order — the reference scan's
	// tie list — costs log p per commit instead of a full rescan.
	tt eventq.Tournament
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
// The returned slice is freshly allocated.
func (e *Engine) Run(pr *program.Program, cfg Config, ls []Lane) ([]Result, error) {
	return e.RunInto(nil, pr, cfg, ls)
}

// RunInto is Run writing the results over out's backing array when it
// has room for len(ls) entries, so a caller that keeps out and the
// engine across calls (the predictor) runs without allocating.
func (e *Engine) RunInto(out []Result, pr *program.Program, cfg Config, ls []Lane) ([]Result, error) {
	if cfg.Cost == nil {
		return nil, fmt.Errorf("lanes: no cost model")
	}
	if len(ls) == 0 {
		return nil, fmt.Errorf("lanes: no lanes")
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if cfg.Charges != nil {
		if len(cfg.Charges) != len(pr.Steps) {
			return nil, fmt.Errorf("lanes: %d steps of charges for %d program steps", len(cfg.Charges), len(pr.Steps))
		}
		for si, c := range cfg.Charges {
			if len(c) != pr.P {
				return nil, fmt.Errorf("lanes: step %d: %d charges for %d processors", si, len(c), pr.P)
			}
		}
	}
	e.prepare(pr, cfg, ls)

	for si, s := range pr.Steps {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("lanes: step %d of %d: %w", si, len(pr.Steps), err)
			}
		}
		if err := e.decode(s, si, cfg.Cost, ls); err != nil {
			return nil, err
		}
		for l := range ls {
			if e.errs[l] == nil {
				e.step(si, l)
			}
		}
	}

	if cap(out) < len(ls) {
		out = make([]Result, len(ls))
	}
	out = out[:len(ls)]
	for l := range ls {
		r := &out[l]
		*r = Result{Err: e.errs[l]}
		if r.Err != nil {
			continue
		}
		lp := l * e.p
		for q := lp; q < lp+e.p; q++ {
			raise(&r.Total, e.ctStd[q])
			raise(&r.Comp, e.comp[q])
			raise(&r.Comm, e.commStd[q])
		}
		if !e.stdOnly[l] {
			for q := lp; q < lp+e.p; q++ {
				raise(&r.TotalWorst, e.ctWC[q])
				raise(&r.CommWorst, e.commWC[q])
			}
		}
	}
	return out, nil
}

// CompPerProc returns lane l's per-processor computation time from the
// last run. The slice is engine storage, valid until the next run.
func (e *Engine) CompPerProc(l int) []float64 {
	return e.comp[l*e.p : (l+1)*e.p : (l+1)*e.p]
}

// Profile returns lane l's per-step standard-slot profile from the last
// run, nil unless it ran with Config.CollectSteps. The slice is engine
// storage, valid until the next run.
func (e *Engine) Profile(l int) []StepProfile {
	if !e.collect {
		return nil
	}
	return e.prof[l*e.nsteps : (l+1)*e.nsteps : (l+1)*e.nsteps]
}

// step advances lane l through program step si: the computation phase,
// then (unless the step sends nothing) the standard and the worst-case
// communication phase, then the overlap bound and the readouts.
func (e *Engine) step(si, l int) {
	p := e.p
	lp := l * p
	sp := &e.sp
	// Computation phase: the shared unperturbed charges, inflated by the
	// lane's injector (same step and processor identities as a scalar
	// replay), plus the cache charges.
	durs := e.base
	if inj := e.inj[l]; inj != nil {
		for q := range e.durs {
			e.durs[q] = inj.PerturbCompute(si, q, e.base[q])
		}
		durs = e.durs
	}
	comp := e.comp[lp : lp+p : lp+p]
	for q, d := range durs {
		comp[q] += d
	}
	if e.charges != nil {
		for q, d := range durs {
			e.charged[q] = d + e.charges[si][q]
		}
		durs = e.charged
	}
	ctStd := e.ctStd[lp : lp+p : lp+p]
	ctWC := e.ctWC[lp : lp+p : lp+p]
	if !e.overlap {
		for q, d := range durs {
			ctStd[q] += d
			ctWC[q] += d
		}
		if sp.nmsgs == 0 && !e.collect {
			return // no clock moves in the phase: both advances are zero
		}
	}
	copy(e.beforeStd, ctStd)
	copy(e.beforeWC, ctWC)
	if sp.nmsgs > 0 {
		// Each scheduler run resets the shared receive buffers on entry,
		// so a lane dying mid-step cannot leak undelivered arrivals into
		// the next lane.
		if e.globalOrder {
			e.runWC(sp, si, l, slot{ct: ctStd, fs: e.fsStd[lp : lp+p : lp+p], fr: e.frStd[lp : lp+p : lp+p],
				net: e.net[l], sendFirst: e.sendFirst})
		} else {
			e.runStd(sp, si, l)
		}
		if e.errs[l] != nil {
			return
		}
		if !e.stdOnly[l] {
			e.runWC(sp, si, l, slot{ct: ctWC, fs: e.fsWC[lp : lp+p : lp+p], fr: e.frWC[lp : lp+p : lp+p], gated: true})
			if e.errs[l] != nil {
				return
			}
		}
	}
	if e.overlap {
		// Busy-time bound: the processor still executes its computation
		// and the o of each of its communication operations serially.
		o := e.o[l]
		for q := 0; q < p; q++ {
			ops := float64(sp.inCnt[q]+sp.off[q+1]-sp.off[q]) * o
			raise(&ctStd[q], e.beforeStd[q]+durs[q]+ops)
			raise(&ctWC[q], e.beforeWC[q]+durs[q]+ops)
		}
	}
	commStd := e.commStd[lp : lp+p : lp+p]
	commWC := e.commWC[lp : lp+p : lp+p]
	for q := 0; q < p; q++ {
		commStd[q] += ctStd[q] - e.beforeStd[q]
		commWC[q] += ctWC[q] - e.beforeWC[q]
	}
	if e.collect {
		var prof StepProfile
		for q := 0; q < p; q++ {
			raise(&prof.Finish, ctStd[q])
			raise(&prof.Comp, durs[q])
			raise(&prof.CommAdvance, ctStd[q]-e.beforeStd[q])
		}
		e.prof[l*e.nsteps+si] = prof
	}
}

// decode builds the plan of program step si into the reused step
// scratch — per-sender send windows, in-degrees, sender masks,
// receive-run tables and byte classes — and sums its unperturbed
// computation charges. The program is already validated.
func (e *Engine) decode(s *program.Step, si int, model cost.Model, ls []Lane) error {
	p := e.p
	for q := 0; q < p; q++ {
		d := 0.0
		for _, call := range s.Comp[q] {
			d += model.Cost(call.Op, call.BlockSize)
		}
		if d < 0 {
			return fmt.Errorf("lanes: step %d: processor %d has negative computation time %g", si, q, d)
		}
		e.base[q] = d
	}
	sp := &e.sp
	msgs := s.Comm.Msgs
	clear(e.cnt)
	clear(sp.inCnt)
	nmsgs := 0
	for _, m := range msgs {
		if m.Src == m.Dst {
			continue // local transfer: skipped by both schedulers
		}
		e.cnt[m.Src]++
		sp.inCnt[m.Dst]++
		nmsgs++
	}
	sp.nmsgs = nmsgs
	off := int32(0)
	for q := 0; q < p; q++ {
		sp.off[q] = off
		off += e.cnt[q]
	}
	sp.off[p] = off
	if nmsgs == 0 {
		return nil
	}
	clear(sp.sendMask)
	for q := 0; q < p; q++ {
		if e.cnt[q] > 0 {
			sp.sendMask[q>>6] |= 1 << (q & 63)
		}
	}

	// Receive runs: group the messages by receiver (a counting sort in
	// pattern order), then give each receiver one run per distinct
	// sender, numbered receiver by receiver, and each run a region of
	// the arrival buffer sized to its message count.
	pos := int32(0)
	for q := 0; q < p; q++ {
		e.fill[q] = pos
		pos += sp.inCnt[q]
	}
	for idx, m := range msgs {
		if m.Src != m.Dst {
			e.order[e.fill[m.Dst]] = int32(idx)
			e.fill[m.Dst]++
		}
	}
	clear(e.stamp)
	nRuns, i := int32(0), 0
	for q := 0; q < p; q++ {
		sp.runIdx[q] = nRuns
		for end := i + int(sp.inCnt[q]); i < end; i++ {
			idx := e.order[i]
			src := msgs[idx].Src
			if e.stamp[src] != int32(q+1) {
				e.stamp[src] = int32(q + 1)
				e.srcRun[src] = nRuns
				e.runs[nRuns].fill = 0
				nRuns++
			}
			r := e.srcRun[src]
			e.msgRun[idx] = r
			e.runs[r].fill++ // counts the run's messages until resetRecv
		}
	}
	sp.runIdx[p] = nRuns
	sp.nRuns = int(nRuns)
	base := int32(0)
	for r := range e.runs[:nRuns] {
		e.runs[r].base = base
		base += e.runs[r].fill
	}

	// Send slots, grouped by sender in pattern order.
	copy(e.fill, sp.off[:p])
	lastBytes, lastCls := -1, int32(0)
	for idx, m := range msgs {
		if m.Src == m.Dst {
			continue
		}
		if m.Bytes != lastBytes {
			lastBytes, lastCls = m.Bytes, e.class(m.Bytes, ls)
		}
		slot := e.fill[m.Src]
		e.fill[m.Src] = slot + 1
		sp.sDst[slot] = int32(m.Dst)
		sp.sCls[slot] = lastCls
		sp.sRun[slot] = e.msgRun[idx]
		sp.sOrig[slot] = int32(idx)
	}
	return nil
}

// class returns the byte class of a message size, tabulating every
// lane's derivatives (loggp.Params.ArrivalDelay and Interval) when the
// size is new to the run.
func (e *Engine) class(bytes int, ls []Lane) int32 {
	if c, ok := e.classOf[bytes]; ok {
		return c
	}
	c := int32(len(e.classBytes))
	e.classOf[bytes] = c
	e.classBytes = append(e.classBytes, bytes)
	for i := range ls {
		m := &ls[i].Params
		e.dv = append(e.dv, deriv{
			ad:     m.ArrivalDelay(bytes),
			like:   m.Interval(loggp.Send, loggp.Send, bytes),
			unlike: m.Interval(loggp.Send, loggp.Recv, bytes),
		})
	}
	return c
}

// raise lifts *x to y when y is larger: the sessions' comparison, which
// (unlike the max builtin) keeps *x on a NaN y.
func raise(x *float64, y float64) {
	if y > *x {
		*x = y
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

// zeroed is fit with the contents cleared.
func zeroed[T any](buf []T, n int) []T {
	buf = fit(buf, n)
	clear(buf)
	return buf
}

// fitSteps sizes the step-transient scratch once for the largest step:
// n bounds every step's pattern messages, hence its network messages
// and its receive runs (at most one per message).
func (e *Engine) fitSteps(n int) {
	sp := &e.sp
	e.order, e.msgRun = fit(e.order, n), fit(e.msgRun, n)
	sp.sDst, sp.sCls = fit(sp.sDst, n), fit(sp.sCls, n)
	sp.sRun, sp.sOrig = fit(sp.sRun, n), fit(sp.sOrig, n)
	e.runs, e.queue, e.hp = fit(e.runs, n), fit(e.queue, n), fit(e.hp, n)
}

// prepare sizes and initializes the engine state for a run: fresh
// per-lane clocks, gap floors and readouts, per-lane RNG pairs,
// injectors and networks, and the per-processor scratch.
func (e *Engine) prepare(pr *program.Program, cfg Config, ls []Lane) {
	p := pr.P
	e.p, e.words, e.nsteps, e.lanes = p, (p+63)/64, len(pr.Steps), len(ls)
	e.sendFirst, e.globalOrder, e.overlap = cfg.SendPriority, cfg.GlobalOrder, cfg.Overlap
	e.collect, e.charges = cfg.CollectSteps, cfg.Charges
	n := e.lanes * p
	e.ctStd, e.fsStd, e.frStd = zeroed(e.ctStd, n), zeroed(e.fsStd, n), zeroed(e.frStd, n)
	e.ctWC, e.fsWC, e.frWC = zeroed(e.ctWC, n), zeroed(e.fsWC, n), zeroed(e.frWC, n)
	e.comp, e.commStd, e.commWC = zeroed(e.comp, n), zeroed(e.commStd, n), zeroed(e.commWC, n)
	if e.collect {
		e.prof = fit(e.prof, e.lanes*e.nsteps)
	}

	e.base, e.durs, e.charged = fit(e.base, p), fit(e.durs, p), fit(e.charged, p)
	e.beforeStd, e.beforeWC = fit(e.beforeStd, p), fit(e.beforeWC, p)
	e.cnt, e.fill = fit(e.cnt, p), fit(e.fill, p)
	e.stamp, e.srcRun = fit(e.stamp, p), fit(e.srcRun, p)
	e.sp.off, e.sp.runIdx = fit(e.sp.off, p+1), fit(e.sp.runIdx, p+1)
	e.sp.inCnt, e.sp.sendMask = fit(e.sp.inCnt, p), fit(e.sp.sendMask, e.words)
	e.head, e.toRecv, e.forced = fit(e.head, p), fit(e.toRecv, p), fit(e.forced, p)
	e.candKey, e.candKind = fit(e.candKey, p), fit(e.candKind, p)
	e.hn, e.hRun, e.hKey = fit(e.hn, p), fit(e.hRun, p), fit(e.hKey, p)
	e.mask, e.pend = fit(e.mask, e.words), fit(e.pend, e.words)
	largest := 0
	for _, s := range pr.Steps {
		largest = max(largest, len(s.Comm.Msgs))
	}
	e.fitSteps(largest)

	if e.classOf == nil {
		e.classOf = make(map[int]int32)
	}
	clear(e.classOf)
	e.classBytes = e.classBytes[:0]
	e.dv = e.dv[:0]

	e.o = fit(e.o, e.lanes)
	e.net = fit(e.net, e.lanes)
	e.stdOnly = fit(e.stdOnly, e.lanes)
	e.inj = fit(e.inj, e.lanes)
	e.errs = fit(e.errs, e.lanes)
	for len(e.rngStd) < e.lanes {
		e.rngStd = append(e.rngStd, nil)
		e.rngWC = append(e.rngWC, nil)
	}
	for l, ln := range ls {
		e.errs[l], e.inj[l], e.net[l], e.stdOnly[l] = nil, nil, ln.Network, ln.StandardOnly
		// The acceptance checks a scalar replay applies before its first
		// step; a rejected lane fails alone, like its sample would.
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
	}
}

// resetRecv empties the step's receive runs and run-head heaps before a
// scheduler core replays the step.
func (e *Engine) resetRecv(sp *stepPlan) {
	for r := range e.runs[:sp.nRuns] {
		e.runs[r].head, e.runs[r].fill = 0, 0
	}
	clear(e.hn)
	for q := range e.hRun {
		e.hRun[q] = -1
	}
}

// sendHooks applies lane l's fault hook to a send committed at start
// from src out of the given slot, and rejects a non-finite arrival
// (from the fault hook or the network): it returns the final arrival
// and the sender's extra busy time, or ok false after recording the
// lane's error.
func (e *Engine) sendHooks(sp *stepPlan, si, l int, slot int32, src int, start, arrival float64) (float64, float64, bool) {
	orig, dst := int(sp.sOrig[slot]), int(sp.sDst[slot])
	busy := 0.0
	if inj := e.inj[l]; inj != nil {
		extraBusy, delay, err := inj.SendOutcome(si, orig, src, dst, e.classBytes[sp.sCls[slot]], start)
		if err != nil {
			e.errs[l] = fmt.Errorf("lanes: message %d (%d->%d): %w", orig, src, dst, err)
			return 0, 0, false
		}
		if math.IsNaN(extraBusy) || math.IsInf(extraBusy, 0) || extraBusy < 0 {
			e.errs[l] = fmt.Errorf("lanes: message %d (%d->%d): fault hook returned bad busy time %g",
				orig, src, dst, extraBusy)
			return 0, 0, false
		}
		busy = extraBusy
		arrival += delay
	}
	if math.IsNaN(arrival) || math.IsInf(arrival, 0) {
		e.errs[l] = fmt.Errorf("lanes: message %d (%d->%d): non-finite arrival time %g from network or fault hook",
			orig, src, dst, arrival)
		return 0, 0, false
	}
	return arrival, busy, true
}

// runStd replays one communication step of lane l's standard slot,
// replicating runPaperReference (sim/reference_test.go): the
// minimum-clock sender (random tie-break, randomness consumed only on
// genuine ties) chooses between its next send and its earliest pending
// receive, receive winning start-time ties unless SendPriority is set;
// then every processor drains its remaining receives in index order.
// Selection runs on the tournament tree — a root-to-leaf descent and
// one leaf update per commit — whose tie counts and index order
// reproduce the reference scan's tie list exactly.
func (e *Engine) runStd(sp *stepPlan, si, l int) {
	p := e.p
	lp := l * p
	ct := e.ctStd[lp : lp+p : lp+p]
	fs := e.fsStd[lp : lp+p : lp+p]
	fr := e.frStd[lp : lp+p : lp+p]
	head, end := e.head[:p], sp.off[1:p+1]
	copy(head, sp.off[:p])
	e.resetRecv(sp)
	hRun, hKey := e.hRun[:p], e.hKey[:p]
	sDst, sCls, sRun := sp.sDst, sp.sCls, sp.sRun
	dv := e.dv
	seq := int32(0)
	rng := e.rngStd[l]
	o := e.o[l]
	net := e.net[l]
	hooked := net != nil || e.inj[l] != nil
	sendFirst := e.sendFirst
	nl := e.lanes

	// Seed the selection tree with the clocks of processors with
	// unsent messages; the rest stay +Inf.
	tt := &e.tt
	tt.Reset(p)
	for q := 0; q < p; q++ {
		if head[q] < end[q] {
			tt.Update(q, ct[q])
		}
	}

	for {
		// With ties, the reference collects the tied processors in index
		// order and consumes one Intn; the tree's k-th tied index is the
		// same draw against the same ordering.
		ties := tt.Ties()
		if ties == 0 {
			break
		}
		k := 0
		if ties > 1 {
			k = rng.Intn(ties)
		}
		proc := tt.Nth(k)

		startSend := ct[proc]
		raise(&startSend, fs[proc])
		startRecv := math.Inf(1)
		if hRun[proc] >= 0 {
			startRecv = ct[proc]
			raise(&startRecv, fr[proc])
			raise(&startRecv, hKey[proc])
		}
		leaf := math.Inf(1) // proc's new tree leaf: clock, or +Inf once exhausted
		if startSend < startRecv || sendFirst && startSend == startRecv {
			slot := head[proc]
			head[proc] = slot + 1
			c := sCls[slot]
			d := &dv[int(c)*nl+l]
			dst := int(sDst[slot])
			arrival := startSend + d.ad
			if net != nil {
				arrival = net.Arrival(proc, dst, e.classBytes[c], startSend+o)
			}
			busy := 0.0
			if hooked {
				var ok bool
				if arrival, busy, ok = e.sendHooks(sp, si, l, slot, proc, startSend, arrival); !ok {
					return
				}
			}
			e.push(sp, sRun[slot], dst, arrival, seq, c)
			seq++
			ct[proc] = startSend + o + busy
			fs[proc] = startSend + d.like
			fr[proc] = startSend + d.unlike
			if slot+1 < end[proc] {
				leaf = ct[proc]
			}
		} else {
			d := &dv[int(e.pop(sp, proc))*nl+l]
			ct[proc] = startRecv + o
			fs[proc] = startRecv + d.unlike
			fr[proc] = startRecv + d.like
			leaf = ct[proc]
		}
		tt.Update(proc, leaf)
	}
	// Drain phase: remaining receives per processor in index order.
	for q := 0; q < p; q++ {
		for hRun[q] >= 0 {
			start := ct[q]
			raise(&start, fr[q])
			raise(&start, hKey[q])
			d := &dv[int(e.pop(sp, q))*nl+l]
			ct[q] = start + o
			fs[q] = start + d.unlike
			fr[q] = start + d.like
		}
	}
}

// push appends an arrival to its receive run. A sender's start times
// only grow, so within a run arrivals are nondecreasing unless fault
// delays, network routes or mixed byte classes reorder them — then the
// entry is inserted in (arrival, seq) order, which keeps every run
// sorted. A run whose head changed (it was empty, or the new entry
// went to its front) is sifted up its receiver's heap, so the heap
// root is always the receiver's earliest (arrival, seq) pending
// message — exactly what a (key, seq) receive heap would pop.
func (e *Engine) push(sp *stepPlan, r int32, dst int, key float64, seq, cls int32) {
	rn := &e.runs[r]
	b, h, f := rn.base, rn.head, rn.fill
	q := e.queue
	empty := f == h
	atHead := empty
	if !empty && q[b+f-1].key > key {
		pos := b + h
		for q[pos].key <= key {
			pos++
		}
		copy(q[pos+1:b+f+1], q[pos:b+f])
		q[pos] = arrival{key: key, seq: seq, cls: cls}
		atHead = pos == b+h
	} else {
		q[b+f] = arrival{key: key, seq: seq, cls: cls}
	}
	rn.fill = f + 1
	if !atHead {
		return
	}
	rn.key, rn.seq = key, seq
	hb := sp.runIdx[dst]
	i := rn.pos
	if empty {
		i = e.hn[dst]
		e.hn[dst] = i + 1
	}
	e.siftUp(hb, i, r)
	root := e.hp[hb]
	e.hRun[dst], e.hKey[dst] = root, e.runs[root].key
}

// pop consumes receiver q's earliest pending arrival — the head of its
// heap's root run — and returns its byte class, restoring the heap and
// the receiver's head cache.
func (e *Engine) pop(sp *stepPlan, q int) int32 {
	hb := sp.runIdx[q]
	r := e.hp[hb]
	rn := &e.runs[r]
	h := rn.head
	c := e.queue[rn.base+h].cls
	h++
	rn.head = h
	n := e.hn[q]
	if h < rn.fill {
		next := &e.queue[rn.base+h]
		rn.key, rn.seq = next.key, next.seq
		e.siftDown(hb, n, r)
	} else {
		n--
		e.hn[q] = n
		if n > 0 {
			e.siftDown(hb, n, e.hp[hb+n])
		}
	}
	if n == 0 {
		e.hRun[q] = -1
	} else {
		root := e.hp[hb]
		e.hRun[q], e.hKey[q] = root, e.runs[root].key
	}
	return c
}

// before orders two runs by their heads' (arrival, seq); seqs are
// unique within a step, so the order is strict and total.
func before(a, b *run) bool {
	return a.key < b.key || a.key == b.key && a.seq < b.seq
}

// siftUp places run r, whose head key just fell (or which just joined
// the heap at slot i), in the heap at hp[hb:].
func (e *Engine) siftUp(hb, i, r int32) {
	hp, runs := e.hp, e.runs
	rn := &runs[r]
	for i > 0 {
		parent := (i - 1) / 2
		pr := hp[hb+parent]
		if !before(rn, &runs[pr]) {
			break
		}
		hp[hb+i] = pr
		runs[pr].pos = i
		i = parent
	}
	hp[hb+i] = r
	rn.pos = i
}

// siftDown places run r at the root of the n-entry heap at hp[hb:] and
// sinks it to its place.
func (e *Engine) siftDown(hb, n, r int32) {
	hp, runs := e.hp, e.runs
	rn := &runs[r]
	i := int32(0)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && before(&runs[hp[hb+c+1]], &runs[hp[hb+c]]) {
			c++
		}
		child := hp[hb+c]
		if !before(&runs[child], rn) {
			break
		}
		hp[hb+i] = child
		runs[child].pos = i
		i = c
	}
	hp[hb+i] = r
	rn.pos = i
}

// slot is the per-lane state one worst-case-core replay works on: the
// worst-case slot (gated, flat network) or, under GlobalOrder, the
// standard slot (ungated, the lane's network, SendPriority's tie).
type slot struct {
	ct, fs, fr []float64
	net        Network
	gated      bool // the messages-to-receive gate of Section 4.2
	sendFirst  bool // a send wins a start-time tie within one processor
}

// runWC replays one communication step of lane l on the worst-case
// core, replicating runReference (worstcase/reference_test.go) — or,
// with the gate off, runGlobalOrderReference (sim/reference_test.go) —
// through the same incremental candidate cache the session's
// tournament core uses: after a commit only the committed processor's
// candidates — and, for a send, the destination's receive candidate —
// can change, so only those are recomputed; the scan takes the
// leftmost strictly smallest cached start. A processor stays in a
// commit burst while its refreshed key is strictly below every other
// key (other keys never rise in between: a push can only lower the
// destination's). Gated deadlocks are broken by releasing a random
// blocked sender — one RNG draw per break, unconditionally, like both
// session loops; ungated, every processor with unsent messages has a
// candidate, so the run never deadlocks and draws nothing.
func (e *Engine) runWC(sp *stepPlan, si, l int, v slot) {
	p := e.p
	ct, fs, fr := v.ct[:p], v.fs[:p], v.fr[:p]
	head, end := e.head[:p], sp.off[1:p+1]
	toRecv, forced := e.toRecv[:p], e.forced[:p]
	key, kind := e.candKey[:p], e.candKind[:p]
	hRun, hKey := e.hRun[:p], e.hKey[:p]
	sDst, sCls, sRun := sp.sDst, sp.sCls, sp.sRun
	dv := e.dv
	cand, pend := e.mask, e.pend
	copy(pend, sp.sendMask)
	copy(head, sp.off[:p])
	e.resetRecv(sp)
	seq := int32(0)
	rng := e.rngWC[l]
	o := e.o[l]
	net := v.net
	hooked := net != nil || e.inj[l] != nil
	gated, sendFirst := v.gated, v.sendFirst
	nl := e.lanes
	inf := math.Inf(1)

	// Initial candidates: receive buffers are empty, so only processors
	// with sends (and, gated, no pending receives) are eligible.
	clear(cand)
	for q := 0; q < p; q++ {
		toRecv[q] = sp.inCnt[q]
		forced[q] = 0
		key[q] = inf
		if head[q] < end[q] && (!gated || toRecv[q] == 0) {
			key[q] = ct[q]
			raise(&key[q], fs[q])
			kind[q] = candSend
			cand[q>>6] |= 1 << (q & 63)
		}
	}

	for {
		// Scan: leftmost strict minimum key over live candidates, with
		// the runner-up bounding the burst.
		best, bestK, min2 := -1, inf, inf
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
			// No candidate, so no processor has a receive pending: every
			// processor with messages left is blocked on unreceived
			// messages. Release one at random (index-order list, one draw
			// even for a single blocked sender); its send is then the only
			// candidate, so it enters its burst without a rescan, min2
			// staying +Inf.
			blocked := 0
			for _, mw := range pend {
				blocked += bits.OnesCount64(mw)
			}
			if blocked == 0 {
				break
			}
			k := rng.Intn(blocked)
		rel:
			for w, mw := range pend {
				for m := mw; m != 0; m &= m - 1 {
					if k == 0 {
						best = w<<6 | bits.TrailingZeros64(m)
						break rel
					}
					k--
				}
			}
			forced[best]++
			key[best] = ct[best]
			raise(&key[best], fs[best])
			kind[best] = candSend
			cand[best>>6] |= 1 << (best & 63)
		}
		// Burst on best: keys of other processors never rise between
		// best's commits (a push only lowers the destination's), so
		// best remains the leftmost strict minimum while its refreshed
		// key stays strictly below min2, which bounds every other key.
		for {
			start := key[best]
			if kind[best] == candSend {
				if gated && toRecv[best] != 0 {
					forced[best]--
				}
				slot := head[best]
				head[best] = slot + 1
				c := sCls[slot]
				d := &dv[int(c)*nl+l]
				dst := int(sDst[slot])
				arrival := start + d.ad
				if net != nil {
					arrival = net.Arrival(best, dst, e.classBytes[c], start+o)
				}
				busy := 0.0
				if hooked {
					var ok bool
					if arrival, busy, ok = e.sendHooks(sp, si, l, slot, best, start, arrival); !ok {
						return
					}
				}
				e.push(sp, sRun[slot], dst, arrival, seq, c)
				seq++
				ct[best] = start + o + busy
				fs[best] = start + d.like
				fr[best] = start + d.unlike
				if slot+1 == end[best] {
					pend[best>>6] &^= 1 << (best & 63)
				}
				// The push can only lower dst's receive start and leaves
				// its send start alone, so dst's candidate becomes that
				// receive exactly when it beats the cached key under the
				// within-processor tie rule.
				rs := ct[dst]
				raise(&rs, fr[dst])
				raise(&rs, hKey[dst])
				if k := key[dst]; rs < k || rs == k && !sendFirst {
					key[dst], kind[dst] = rs, candRecv
					cand[dst>>6] |= 1 << (dst & 63)
					if rs < min2 {
						min2 = rs
					}
				}
			} else {
				d := &dv[int(e.pop(sp, best))*nl+l]
				toRecv[best]--
				ct[best] = start + o
				fs[best] = start + d.unlike
				fr[best] = start + d.like
			}
			// Refresh best's candidate: its earliest receive, unless its
			// next send (gate open) starts sooner or ties under
			// SendPriority.
			k, kd := inf, candRecv
			if hRun[best] >= 0 {
				k = ct[best]
				raise(&k, fr[best])
				raise(&k, hKey[best])
			}
			if head[best] < end[best] && (!gated || toRecv[best] == 0 || forced[best] > 0) {
				ks := ct[best]
				raise(&ks, fs[best])
				if ks < k || sendFirst && ks == k {
					k, kd = ks, candSend
				}
			}
			key[best], kind[best] = k, kd
			if k >= min2 {
				if k == inf {
					cand[best>>6] &^= 1 << (best & 63)
				}
				break // rescan applies the exact leftmost tie rule
			}
		}
	}
}
