// Package predictor ties the pieces of the paper's method together: it
// walks the control flow of an oblivious block program (package
// program), charges each computation phase from a basic-operation cost
// model (package cost), and replays each communication phase under the
// LogGP model with the standard simulation algorithm (package sim) and
// the overestimation algorithm (package worstcase). Per-processor clocks
// and gap state carry across the alternating steps, so pipelining across
// waves is predicted, not barrier-synchronized.
//
// Besides the two total running times it reports the paper's Figure 8
// and Figure 9 decompositions: the communication time (per processor,
// the clock advance across the communication phases of the full run —
// the same quantity a timer around each communication phase of a real
// execution measures, waiting included) and the computation time (the
// summed operation costs).
package predictor

import (
	"context"
	"fmt"
	"sync"

	"loggpsim/internal/cache"
	"loggpsim/internal/cost"
	"loggpsim/internal/faults"
	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
	"loggpsim/internal/sim"
	"loggpsim/internal/worstcase"
)

// Config controls a prediction.
type Config struct {
	// Params is the LogGP machine description.
	Params loggp.Params
	// Cost prices the basic operations.
	Cost cost.Model
	// Seed drives the simulators' random tie-breaks.
	Seed int64
	// SendPriority and GlobalOrder are ablation switches passed to the
	// standard simulator (see sim.Config).
	SendPriority bool
	GlobalOrder  bool

	// CollectSteps records a per-step profile in Prediction.PerStep —
	// a predicted-execution profiler for finding which phases dominate.
	CollectSteps bool

	// Ctx, when non-nil, bounds the prediction in wall-clock time: it is
	// polled once per program step, so a cancelled or deadline-expired
	// context aborts the replay within one step and PredictInto returns
	// an error wrapping ctx.Err(). The serve layer uses this to keep
	// slow requests from overstaying their deadline by more than one
	// scheduler step; a nil context reproduces the unbounded behaviour.
	Ctx context.Context

	// Network, when non-nil, routes the standard run's messages over an
	// explicit contention fabric (see sim.Config.Network). The
	// worst-case run keeps the flat LogGP network, so TotalWorst and
	// CommWorst are not directly comparable in this mode.
	Network interface {
		Arrival(src, dst, bytes int, inject float64) float64
	}

	// Overlap enables the overlapping-steps analysis the paper lists as
	// future work: instead of alternating strictly, each step's
	// computation runs concurrently with its communication. The model is
	// the optimistic (lower-bound) one — sends are not delayed by the
	// computation (data dependencies inside a step are ignored), and a
	// processor's clock after the step is the maximum of the
	// communication schedule's finish and its busy-time bound
	// (start + computation + o per communication operation, the
	// processor being a single resource).
	Overlap bool

	// Faults, when enabled (see faults.Plan.Enabled), injects
	// deterministic failures into the replay: message drops re-pay their
	// LogGP charges per retransmission, computation charges inflate on
	// jittery and straggling processors, and degradation windows scale G
	// and L for a span of simulated time. The same injector drives the
	// standard and worst-case runs, so both predictions shift coherently;
	// a message that exhausts its retries aborts the prediction with a
	// *faults.LossError. The zero plan costs one nil check per message.
	Faults faults.Plan

	// CacheBytes, when positive, enables the cache-aware prediction the
	// paper proposes as future work ("a model to simulate caching
	// behavior must be incorporated in the simulation algorithm"): the
	// predictor then calls the same cache.Warm the machine emulator
	// uses, a per-processor LRU block cache charging MissFixed +
	// MissPerByte·size for every operand block or received buffer that
	// must be loaded. The charges appear in Prediction.CacheWarm and in
	// the totals.
	CacheBytes  int
	MissFixed   float64
	MissPerByte float64
}

// Prediction is the full output of the method for one program.
type Prediction struct {
	// Total is the predicted running time under the standard algorithm.
	Total float64
	// TotalWorst is the prediction with the worst-case communication
	// algorithm; the paper expects measured times between Total and
	// TotalWorst when computation estimates are exact. On a single
	// communication step the overestimation algorithm upper-bounds the
	// standard one; across chained steps separated by computation the
	// two schedules diverge and TotalWorst can occasionally dip
	// marginally below Total.
	TotalWorst float64
	// Comp is the computation time alone: the maximum over processors
	// of summed operation costs (Figure 9's simulated curve).
	Comp float64
	// CompPerProc is the per-processor computation time.
	CompPerProc []float64
	// Comm is the communication time under the standard algorithm: the
	// maximum over processors of the clock advance accumulated across
	// communication phases, waiting included (Figure 8's "simulated -
	// standard" curve).
	Comm float64
	// CommWorst is the same quantity under the worst-case algorithm
	// (Figure 8's "simulated - worst case" curve).
	CommWorst float64
	// Steps is the number of program steps replayed.
	Steps int
	// CacheWarm is the maximum per-processor cache-loading charge; zero
	// unless the cache-aware mode is enabled (Config.CacheBytes > 0).
	CacheWarm float64
	// PerStep profiles each step of the standard run; nil unless
	// Config.CollectSteps is set.
	PerStep []StepProfile
}

// StepProfile is one step of a collected prediction profile.
type StepProfile struct {
	// Comp is the step's maximum per-processor computation charge.
	Comp float64
	// CommAdvance is the step's maximum per-processor clock advance
	// across the communication phase (waiting included).
	CommAdvance float64
	// Finish is the global clock after the step.
	Finish float64
}

// Evaluator owns the reusable state of one prediction pipeline: the two
// simulator sessions (standard and worst-case) and every scratch buffer
// the replay loop needs. Sweeps that evaluate hundreds of candidate
// programs keep one evaluator per worker and call PredictInto, making
// steady-state candidate evaluation allocation-free; the package-level
// Predict draws evaluators from a shared pool, so every existing caller
// gets the reuse without a signature change. An Evaluator must not be
// used concurrently from multiple goroutines.
type Evaluator struct {
	sim *sim.Session
	wc  *worstcase.Session

	durs, commStd, commWC []float64
	beforeStd, beforeWC   []float64
	afterStd, afterWC     []float64
	stepStd               sim.Result
	stepWC                worstcase.Result
}

// NewEvaluator returns an empty evaluator; the first prediction sizes
// its buffers.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// evalPool backs the package-level Predict. A pointer so the poisoning
// regression tests can swap in a private pool and observe what is (and
// is not) returned to it.
var evalPool = &sync.Pool{New: func() any { return NewEvaluator() }}

// Predict runs the method on a program. It is equivalent to
// NewEvaluator().Predict but reuses pooled evaluators, so concurrent
// sweep workers pay no per-candidate session construction.
//
// An evaluator whose prediction fails is poisoned, not repooled: an
// error (a fault-hook abort, a mid-replay cancellation, a hook
// returning a non-finite arrival) or a panic can leave its simulator
// sessions mid-step, and handing that state to an unrelated later
// prediction would trade an isolated failure for a wrong answer. The
// next Predict simply constructs a fresh evaluator through the pool.
func Predict(pr *program.Program, cfg Config) (*Prediction, error) {
	e := evalPool.Get().(*Evaluator)
	p, err := e.Predict(pr, cfg)
	if err != nil {
		// Dropped on the floor — and a panic unwinds past this point
		// without repooling either.
		return nil, err
	}
	evalPool.Put(e)
	return p, nil
}

// Predict runs the method on a program, reusing the evaluator's sessions
// and buffers, and returns a freshly allocated Prediction.
func (e *Evaluator) Predict(pr *program.Program, cfg Config) (*Prediction, error) {
	p := &Prediction{}
	if err := e.PredictInto(p, pr, cfg); err != nil {
		return nil, err
	}
	return p, nil
}

// grow resizes buf to n entries, reusing its backing when possible, and
// zeroes it.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// PredictInto runs the method on a program, writing the result over
// *out (whose slices are reused when large enough). With cache-aware
// mode off and CollectSteps off, a steady-state call performs no heap
// allocation: the sessions are re-aimed with Reconfigure, and every
// scratch buffer lives on the evaluator.
func (e *Evaluator) PredictInto(out *Prediction, pr *program.Program, cfg Config) error {
	if cfg.Cost == nil {
		return fmt.Errorf("predictor: no cost model")
	}
	if err := pr.Validate(); err != nil {
		return err
	}

	// A disabled plan yields a nil injector and nil hooks, keeping the
	// zero-fault path identical to a build without fault support.
	injector, err := cfg.Faults.Injector(cfg.Params)
	if err != nil {
		return fmt.Errorf("predictor: %w", err)
	}
	var fault func(step, msgIndex, src, dst, bytes int, start float64) (float64, float64, error)
	if injector != nil {
		fault = injector.SendOutcome
	}

	// The predictor only reads finish times and clocks, never the
	// timelines, so both replays run in quiet mode: no timeline records,
	// no per-step result slices (a large constant factor on sweeps that
	// evaluate hundreds of candidate programs).
	simCfg := sim.Config{
		Params:       cfg.Params,
		Seed:         cfg.Seed,
		SendPriority: cfg.SendPriority,
		GlobalOrder:  cfg.GlobalOrder,
		Network:      cfg.Network,
		Fault:        fault,
		NoTimeline:   true,
	}
	wcCfg := worstcase.Config{
		Params: cfg.Params, Seed: cfg.Seed, Fault: fault, NoTimeline: true,
	}
	if e.sim == nil {
		e.sim, err = sim.NewSession(pr.P, simCfg)
	} else {
		err = e.sim.Reconfigure(pr.P, simCfg)
	}
	if err != nil {
		return err
	}
	full := e.sim
	if e.wc == nil {
		e.wc, err = worstcase.NewSession(pr.P, wcCfg)
	} else {
		err = e.wc.Reconfigure(pr.P, wcCfg)
	}
	if err != nil {
		return err
	}
	wcFull := e.wc

	p := out
	*p = Prediction{
		CompPerProc: grow(p.CompPerProc, pr.P),
		Steps:       len(pr.Steps),
		PerStep:     p.PerStep[:0],
	}
	if !cfg.CollectSteps {
		p.PerStep = nil
	}
	// Cache-aware mode: the emulator's cache model. Cache behaviour
	// depends only on the program's touch order, not on simulated
	// timing, so one replay serves both the standard and the worst-case
	// run.
	var warming *cache.Warming
	if cfg.CacheBytes > 0 {
		warming = cache.Warm(pr, cfg.CacheBytes, cfg.MissFixed, cfg.MissPerByte)
		p.CacheWarm = warming.Max
	}
	e.durs = grow(e.durs, pr.P)
	e.commStd = grow(e.commStd, pr.P)
	e.commWC = grow(e.commWC, pr.P)
	// Clock scratch buffers, reused across steps: pre-grown to P entries
	// here so the ClocksInto calls below never reallocate.
	e.beforeStd = grow(e.beforeStd, pr.P)
	e.beforeWC = grow(e.beforeWC, pr.P)
	e.afterStd = grow(e.afterStd, pr.P)
	e.afterWC = grow(e.afterWC, pr.P)
	durs, commStd, commWC := e.durs, e.commStd, e.commWC
	beforeStd, beforeWC, afterStd, afterWC := e.beforeStd, e.beforeWC, e.afterStd, e.afterWC
	for i, step := range pr.Steps {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return fmt.Errorf("predictor: step %d of %d: %w", i, len(pr.Steps), err)
			}
		}
		for proc := range durs {
			d := 0.0
			for _, call := range step.Comp[proc] {
				d += cfg.Cost.Cost(call.Op, call.BlockSize)
			}
			if injector != nil {
				// Slowdown, jitter and straggler factors inflate the charge
				// (never below the fault-free cost) and flow into the
				// computation decomposition: a straggler's extra time is
				// computation time, not waiting.
				d = injector.PerturbCompute(i, proc, d)
			}
			durs[proc] = d
			p.CompPerProc[proc] += d
			if warming != nil {
				durs[proc] += warming.Charges[i][proc]
			}
		}
		if !cfg.Overlap {
			if err := full.Compute(durs); err != nil {
				return fmt.Errorf("predictor: step %d: %w", i, err)
			}
			if err := wcFull.Compute(durs); err != nil {
				return fmt.Errorf("predictor: step %d: %w", i, err)
			}
		}
		beforeStd, beforeWC = full.ClocksInto(beforeStd), wcFull.ClocksInto(beforeWC)
		if err := full.CommunicateInto(&e.stepStd, step.Comm); err != nil {
			return fmt.Errorf("predictor: step %d: %w", i, err)
		}
		if err := wcFull.CommunicateInto(&e.stepWC, step.Comm); err != nil {
			return fmt.Errorf("predictor: step %d: %w", i, err)
		}
		if cfg.Overlap {
			// Busy-time bound: the processor still executes its
			// computation and the o of each of its communication
			// operations serially.
			in, out := step.Comm.InDegrees(), step.Comm.OutDegrees()
			for proc := 0; proc < pr.P; proc++ {
				busy := beforeStd[proc] + durs[proc] + float64(in[proc]+out[proc])*cfg.Params.O
				if err := full.AdvanceTo(proc, busy); err != nil {
					return err
				}
				busyWC := beforeWC[proc] + durs[proc] + float64(in[proc]+out[proc])*cfg.Params.O
				if err := wcFull.AdvanceTo(proc, busyWC); err != nil {
					return err
				}
			}
		}
		afterStd, afterWC = full.ClocksInto(afterStd), wcFull.ClocksInto(afterWC)
		for proc := 0; proc < pr.P; proc++ {
			commStd[proc] += afterStd[proc] - beforeStd[proc]
			commWC[proc] += afterWC[proc] - beforeWC[proc]
		}
		if cfg.CollectSteps {
			prof := StepProfile{Finish: full.Finish()}
			for proc := 0; proc < pr.P; proc++ {
				if durs[proc] > prof.Comp {
					prof.Comp = durs[proc]
				}
				if adv := afterStd[proc] - beforeStd[proc]; adv > prof.CommAdvance {
					prof.CommAdvance = adv
				}
			}
			p.PerStep = append(p.PerStep, prof)
		}
	}
	p.Total = full.Finish()
	p.TotalWorst = wcFull.Finish()
	for proc := 0; proc < pr.P; proc++ {
		if p.CompPerProc[proc] > p.Comp {
			p.Comp = p.CompPerProc[proc]
		}
		if commStd[proc] > p.Comm {
			p.Comm = commStd[proc]
		}
		if commWC[proc] > p.CommWorst {
			p.CommWorst = commWC[proc]
		}
	}
	return nil
}
