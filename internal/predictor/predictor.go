// Package predictor ties the pieces of the paper's method together: it
// walks the control flow of an oblivious block program (package
// program), charges each computation phase from a basic-operation cost
// model (package cost), and replays each communication phase under the
// LogGP model with the standard simulation algorithm (Figure 2) and the
// overestimation algorithm (Section 4.2). Per-processor clocks and gap
// state carry across the alternating steps, so pipelining across waves
// is predicted, not barrier-synchronized.
//
// A prediction is one lane of the program-level engine (package lanes),
// the same engine that advances a Monte-Carlo envelope's samples in
// lockstep: the predictor maps its Config onto one lane and reads the
// lane back into a Prediction, and holds no scheduler of its own. The
// session loop it ran before (sim and worstcase sessions, one step at
// a time) is the engine's test oracle.
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
	"loggpsim/internal/lanes"
	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
)

// Config controls a prediction.
type Config struct {
	// Params is the LogGP machine description.
	Params loggp.Params
	// Cost prices the basic operations.
	Cost cost.Model
	// Seed drives the simulators' random tie-breaks.
	Seed int64
	// SendPriority and GlobalOrder are ablation switches of the standard
	// algorithm, with the semantics of sim.Config's fields of the same
	// names.
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
	// explicit contention fabric (see lanes.Lane.Network). The
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

// Evaluator owns the reusable state of one prediction pipeline: a lane
// engine, on which every prediction is the one-lane run, and the lane
// and result buffers that feed it. Sweeps that evaluate hundreds of
// candidate programs keep one evaluator per worker and call
// PredictInto, making steady-state candidate evaluation
// allocation-free; the package-level Predict draws evaluators from a
// shared pool, so every existing caller gets the reuse without a
// signature change. An Evaluator must not be used concurrently from
// multiple goroutines.
type Evaluator struct {
	eng  *lanes.Engine // nil until the first prediction
	lane [1]lanes.Lane
	res  [1]lanes.Result
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
// sweep workers pay no per-candidate engine construction.
//
// An evaluator whose prediction fails is poisoned, not repooled: an
// error (a fault-hook abort, a mid-replay cancellation, a hook
// returning a non-finite arrival) or a panic can leave its engine
// mid-step, and handing that state to an unrelated later prediction
// would trade an isolated failure for a wrong answer. The next Predict
// simply constructs a fresh evaluator through the pool.
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

// Predict runs the method on a program, reusing the evaluator's engine
// and buffers, and returns a freshly allocated Prediction.
func (e *Evaluator) Predict(pr *program.Program, cfg Config) (*Prediction, error) {
	p := &Prediction{}
	if err := e.PredictInto(p, pr, cfg); err != nil {
		return nil, err
	}
	return p, nil
}

// PredictInto runs the method on a program as one lane of the
// evaluator's lane engine, writing the result over *out (whose slices
// are reused when large enough). With cache-aware mode off and
// CollectSteps off, a steady-state call performs no heap allocation.
func (e *Evaluator) PredictInto(out *Prediction, pr *program.Program, cfg Config) error {
	if cfg.Cost == nil {
		return fmt.Errorf("predictor: no cost model")
	}
	if e.eng == nil {
		e.eng = new(lanes.Engine)
	}
	lcfg := lanes.Config{
		Cost:         cfg.Cost,
		Ctx:          cfg.Ctx,
		SendPriority: cfg.SendPriority,
		GlobalOrder:  cfg.GlobalOrder,
		Overlap:      cfg.Overlap,
		CollectSteps: cfg.CollectSteps,
	}
	// Cache-aware mode: the emulator's cache model. Cache behaviour
	// depends only on the program's touch order, not on simulated
	// timing, so one replay serves both the standard and the worst-case
	// slot.
	cacheWarm := 0.0
	if cfg.CacheBytes > 0 {
		if err := pr.Validate(); err != nil {
			return err
		}
		warming := cache.Warm(pr, cfg.CacheBytes, cfg.MissFixed, cfg.MissPerByte)
		lcfg.Charges = warming.Charges
		cacheWarm = warming.Max
	}
	e.lane[0] = lanes.Lane{Params: cfg.Params, Seed: cfg.Seed, Faults: cfg.Faults, Network: cfg.Network}
	res, err := e.eng.RunInto(e.res[:], pr, lcfg, e.lane[:])
	if err != nil {
		return fmt.Errorf("predictor: %w", err)
	}
	r := res[0]
	if r.Err != nil {
		return fmt.Errorf("predictor: %w", r.Err)
	}
	perStep := out.PerStep[:0]
	*out = Prediction{
		Total:       r.Total,
		TotalWorst:  r.TotalWorst,
		Comp:        r.Comp,
		CompPerProc: append(out.CompPerProc[:0], e.eng.CompPerProc(0)...),
		Comm:        r.Comm,
		CommWorst:   r.CommWorst,
		Steps:       len(pr.Steps),
		CacheWarm:   cacheWarm,
	}
	if cfg.CollectSteps {
		for _, s := range e.eng.Profile(0) {
			perStep = append(perStep, StepProfile(s))
		}
		out.PerStep = perStep
	}
	return nil
}
