// Package loggpsim predicts the running times of parallel programs by
// simulation, reproducing Rugina & Schauser, "Predicting the Running
// Times of Parallel Programs by Simulation" (IPPS 1998).
//
// Instead of deriving closed-form formulas, the method follows the
// control flow of a restricted class of parallel programs — oblivious
// block algorithms whose computation and communication steps alternate —
// charging computation from a per-block-size basic-operation cost table
// and replaying each communication step's message graph under the LogGP
// model. Two replay algorithms are provided: the standard algorithm
// (receive-priority, send-as-early-as-possible; the paper's Figure 2)
// and the worst-case overestimation algorithm (receive everything before
// sending; the paper's Section 4.2). Both run on one simulation session
// (the worst case is its time-ordered loop with a receive gate), and
// both return the same result type, whose DeadlocksBroken field counts
// the worst case's forced sends. Real executions are expected to fall
// between the two.
//
// This package is a thin facade over the implementation packages:
//
//	internal/loggp      LogGP parameters and gap rules
//	internal/trace      communication patterns (message multigraphs)
//	internal/sim        both simulation algorithms (one session)
//	internal/worstcase  the overestimation algorithm's entry point
//	internal/timeline   operation records, verification, ASCII Gantt
//	internal/program    the oblivious program representation
//	internal/cost       basic-operation cost models and calibration
//	internal/layout     block-to-processor mappings
//	internal/ge         blocked wavefront Gaussian elimination
//	internal/cannon     Cannon's matrix multiplication
//	internal/trisolve   blocked triangular solve (forward substitution)
//	internal/stencil    blocked 5-point Jacobi relaxation
//	internal/predictor  the end-to-end prediction pipeline
//	internal/machine    the emulated "real machine" (measured curves)
//	internal/collectives closed-form LogGP baselines
//	internal/search     optimal-block-size search heuristics
//
// # Quick start
//
//	params := loggpsim.MeikoCS2(10)
//	finish, _ := loggpsim.Completion(loggpsim.Figure3(), params)
//	fmt.Printf("the paper's sample pattern completes in %.2fµs\n", finish)
//
// See the examples directory for end-to-end uses: predicting the best
// block size and layout for a 960×960 Gaussian elimination, validating
// broadcast simulations against closed forms, and rendering the paper's
// Figure 4 and 5 timelines.
package loggpsim

import (
	"context"
	"fmt"

	"loggpsim/internal/cannon"
	"loggpsim/internal/capture"
	"loggpsim/internal/collectives"
	"loggpsim/internal/cost"
	"loggpsim/internal/fit"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/machine"
	"loggpsim/internal/predictor"
	"loggpsim/internal/program"
	"loggpsim/internal/scaling"
	"loggpsim/internal/search"
	"loggpsim/internal/sensitivity"
	"loggpsim/internal/sim"
	"loggpsim/internal/stencil"
	"loggpsim/internal/sweep"
	"loggpsim/internal/timeline"
	"loggpsim/internal/trace"
	"loggpsim/internal/trisolve"
	"loggpsim/internal/vruntime"
	"loggpsim/internal/worstcase"
)

// Params is the LogGP machine description (L, o, g, G, P).
type Params = loggp.Params

// Machine presets (reconstructions of the paper's Meiko CS-2 plus
// sensitivity-study machines).
var (
	MeikoCS2    = loggp.MeikoCS2
	Cluster     = loggp.Cluster
	LowOverhead = loggp.LowOverhead
	Uniform     = loggp.Uniform
)

// Pattern is a communication step: processors and the messages they
// exchange.
type Pattern = trace.Pattern

// NewPattern returns an empty pattern over p processors; add messages
// with its Add method.
func NewPattern(p int) *Pattern { return trace.New(p) }

// Pattern generators.
var (
	Figure3  = trace.Figure3
	Ring     = trace.Ring
	AllToAll = trace.AllToAll
	Gather   = trace.Gather
	Scatter  = trace.Scatter
)

// SimConfig configures the standard simulation algorithm.
type SimConfig = sim.Config

// SimResult is the outcome of a simulated communication step, under
// either algorithm (WorstCaseResult is the same type).
type SimResult = sim.Result

// Simulate replays one communication step with the paper's standard
// algorithm.
func Simulate(pt *Pattern, cfg SimConfig) (*SimResult, error) { return sim.Run(pt, cfg) }

// Completion returns just the completion time of a pattern under the
// standard algorithm.
func Completion(pt *Pattern, params Params) (float64, error) { return sim.Completion(pt, params) }

// WorstCaseConfig configures the overestimation algorithm.
type WorstCaseConfig = worstcase.Config

// WorstCaseResult is the outcome of a worst-case simulated step; its
// DeadlocksBroken counts the forced sends that broke cyclic waits.
type WorstCaseResult = worstcase.Result

// SimulateWorstCase replays one communication step with the paper's
// overestimation algorithm (receive everything before sending).
func SimulateWorstCase(pt *Pattern, cfg WorstCaseConfig) (*WorstCaseResult, error) {
	return worstcase.Run(pt, cfg)
}

// WorstCaseCompletion returns just the worst-case completion time.
func WorstCaseCompletion(pt *Pattern, params Params) (float64, error) {
	return worstcase.Completion(pt, params)
}

// Timeline records the send/receive operations of a simulated step.
type Timeline = timeline.Timeline

// Gantt renders a timeline as an ASCII chart like the paper's Figures 4
// and 5.
func Gantt(t *Timeline, params Params, width int) string { return timeline.Gantt(t, params, width) }

// Program is an oblivious block program: alternating computation and
// communication steps.
type Program = program.Program

// CostModel prices the four basic block operations per block size.
type CostModel = cost.Model

// DefaultCostModel returns the analytic cost model calibrated to the
// paper's Figure-6 curve family.
func DefaultCostModel() CostModel { return cost.DefaultAnalytic() }

// MeasureCostModel times the real Go kernels on this host and returns
// the resulting cost table — the paper's calibration procedure.
func MeasureCostModel(sizes []int) CostModel {
	return cost.Measure(sizes, cost.MeasureOpts{})
}

// Layout maps matrix blocks to processors.
type Layout = layout.Layout

// Layout constructors.
var (
	RowCyclic      = layout.RowCyclic
	ColCyclic      = layout.ColCyclic
	DiagonalLayout = layout.Diagonal
	BlockCyclic2D  = layout.BlockCyclic2D
)

// GEProgram builds the blocked wavefront Gaussian-elimination program
// for an n×n matrix with b×b blocks on the given layout.
func GEProgram(n, b int, lay Layout) (*Program, error) {
	g, err := ge.NewGrid(n, b)
	if err != nil {
		return nil, err
	}
	return ge.BuildProgram(g, lay)
}

// PredictorConfig configures a prediction.
type PredictorConfig = predictor.Config

// Prediction is the output of the method: totals under both algorithms
// plus the computation/communication decomposition.
type Prediction = predictor.Prediction

// Predict runs the paper's method on a program.
func Predict(pr *Program, cfg PredictorConfig) (*Prediction, error) {
	return predictor.Predict(pr, cfg)
}

// MachineConfig configures the emulated "real machine" whose runs stand
// in for the paper's measured values.
type MachineConfig = machine.Config

// MachineResult reports one emulated execution.
type MachineResult = machine.Result

// DefaultMachine returns the emulator configuration used by the
// experiments.
func DefaultMachine(params Params, model CostModel) MachineConfig {
	return machine.Default(params, model)
}

// Emulate executes a program on the emulated machine.
func Emulate(pr *Program, cfg MachineConfig) (*MachineResult, error) {
	return machine.Run(pr, cfg)
}

// CannonProgram builds Cannon's matrix-multiplication program for an
// n×n product on a q×q processor grid.
func CannonProgram(n, q int) (*Program, error) {
	c, err := cannon.NewConfig(n, q)
	if err != nil {
		return nil, err
	}
	return c.BuildProgram(), nil
}

// TriSolveProgram builds the blocked parallel triangular-solve program
// (forward substitution of an n-element system in b-element block rows)
// on the given layout.
func TriSolveProgram(n, b int, lay Layout) (*Program, error) {
	g, err := trisolve.NewGrid(n, b)
	if err != nil {
		return nil, err
	}
	return trisolve.BuildProgram(g, lay)
}

// StencilProgram builds the blocked Jacobi relaxation program: iters
// sweeps of an n×n domain in b×b blocks with halo exchanges, on the
// given layout.
func StencilProgram(n, b, iters int, lay Layout) (*Program, error) {
	g, err := stencil.NewGrid(n, b)
	if err != nil {
		return nil, err
	}
	return stencil.BuildProgram(g, iters, lay)
}

// Closed-form LogGP collective baselines (prior work's approach, used to
// cross-validate the simulator on regular patterns).
var (
	PointToPointTime       = collectives.PointToPointTime
	LinearBroadcastTime    = collectives.LinearBroadcastTime
	LinearBroadcastPattern = collectives.LinearBroadcastPattern
	GatherTime             = collectives.GatherTime
	BinomialBroadcastTime  = collectives.BinomialBroadcastTime
	BinomialBroadcastSteps = collectives.BinomialBroadcastSteps
	BinomialReduceTime     = collectives.BinomialReduceTime
	BinomialReduceSteps    = collectives.BinomialReduceSteps
	AllReduceSteps         = collectives.AllReduceSteps
	OptimalBroadcast       = collectives.OptimalBroadcast
	RingAllGatherTime      = collectives.RingAllGatherTime
	RingAllGatherSteps     = collectives.RingAllGatherSteps
)

// SimulateSteps chains a sequence of communication steps (a multi-round
// collective, for instance) through one simulation session, returning
// the overall finish time and final per-processor clocks.
func SimulateSteps(steps []*Pattern, cfg SimConfig) (float64, []float64, error) {
	return sim.RunSteps(steps, cfg)
}

// WriteChromeTrace exports a timeline in the Chrome trace-event JSON
// format (loadable in chrome://tracing or Perfetto).
var WriteChromeTrace = timeline.WriteChromeTrace

// WriteSVG renders a timeline as a standalone SVG document.
var WriteSVG = timeline.WriteSVG

// Utilization summarizes how one processor spent a simulated step.
type Utilization = timeline.Utilization

// Utilizations derives per-processor busy/wait summaries from a
// timeline.
var Utilizations = timeline.Utilizations

// SensitivityReport holds the LogGP-parameter elasticities of one
// prediction.
type SensitivityReport = sensitivity.Report

// AnalyzeSensitivity perturbs each machine parameter and reports how
// strongly the prediction depends on it — which network property is the
// bottleneck for this program.
func AnalyzeSensitivity(base Params, delta float64,
	predict func(p Params) (float64, error)) (*SensitivityReport, error) {
	return sensitivity.Analyze(base, delta, predict)
}

// FitSample is one measured one-way message time for FitParams.
type FitSample = fit.Sample

// FitParams recovers LogGP parameters from one-way latency measurements
// plus the directly measured overhead o and gap g (the LogGP paper's
// calibration methodology).
func FitParams(samples []FitSample, overhead, gap float64, procs int) (Params, error) {
	return fit.Fit(samples, overhead, gap, procs)
}

// VirtualProc is a virtual processor of the direct-execution runtime.
type VirtualProc = vruntime.Proc

// VirtualResult reports a direct-execution run.
type VirtualResult = vruntime.Result

// RunVirtual executes real Go code for procs virtual processors under
// the LogGP machine model (direct-execution simulation): inside fn, use
// Compute to charge computation, and Send/Recv to exchange real data
// with modelled network timing. Execution is deterministic; the result
// carries the predicted running time and the full operation timeline.
func RunVirtual(procs int, params Params, fn func(p *VirtualProc)) (*VirtualResult, error) {
	return vruntime.Run(procs, params, fn)
}

// CaptureProc is the per-processor recording context of CaptureProgram.
type CaptureProc = capture.Proc

// CaptureProgram records an oblivious program by replaying SPMD-style
// code per processor: inside fn, call Compute, Send and Sync on the
// CaptureProc to trace the alternating computation and communication
// steps (the paper's "following the control flow of the original
// program").
func CaptureProgram(procs int, fn func(p *CaptureProc)) (*Program, error) {
	return capture.Capture(procs, fn)
}

// ScalingPoint is one processor count of a scaling sweep.
type ScalingPoint = scaling.Point

// ScalingSweep predicts running times over processor counts and derives
// speedup and efficiency curves.
func ScalingSweep(procs []int, predict func(p int) (float64, error)) ([]ScalingPoint, error) {
	return scaling.Sweep(procs, predict)
}

// FindIsoefficientSize searches for the smallest problem size keeping p
// processors at the target parallel efficiency.
var FindIsoefficientSize = scaling.FindIsoefficientSize

// SearchResult reports an optimal-block-size search.
type SearchResult = search.Result

// OptimalBlockSize searches the candidate block sizes for the one with
// the smallest predicted running time, using the named strategy: "sweep"
// (exhaustive), "ternary" (O(log n) probes, assumes unimodality) or
// "climb" (local descent from the middle of the range).
func OptimalBlockSize(sizes []int, strategy string, predict func(b int) (float64, error)) (SearchResult, error) {
	return OptimalBlockSizeParallel(sizes, strategy, predict, 1)
}

// OptimalBlockSizeParallel is OptimalBlockSize with the exhaustive sweep
// fanned out over a worker pool (workers < 1 selects all CPUs; the
// sequential "ternary" and "climb" heuristics ignore the worker count).
// predict must be safe for concurrent use when more than one worker is
// configured; the chosen optimum is identical to the serial search.
func OptimalBlockSizeParallel(sizes []int, strategy string, predict func(b int) (float64, error), workers int) (SearchResult, error) {
	switch strategy {
	case "sweep":
		return search.SweepParallel(sizes, predict, workers)
	case "ternary":
		return search.Ternary(sizes, predict)
	case "climb":
		return search.HillClimb(sizes, predict, len(sizes)/2)
	default:
		return search.Result{}, fmt.Errorf("loggpsim: unknown search strategy %q", strategy)
	}
}

// ParallelMap fans an arbitrary per-item evaluation — one prediction per
// candidate configuration, typically — out over a worker pool (workers
// < 1 selects all CPUs), returning results in input order. fn must be
// safe for concurrent use; a failure cancels the sweep and the
// lowest-indexed error is returned. See internal/sweep for the engine's
// determinism guarantees.
func ParallelMap[T, R any](items []T, fn func(i int, item T) (R, error), workers int) ([]R, error) {
	return sweep.Map(context.TODO(), workers, items, fn)
}

// SweepSeed derives a deterministic per-item seed from a base seed and
// an item index, for sweeps whose candidates each want an independent
// random stream. Item i always receives the same seed regardless of
// worker count or completion order.
func SweepSeed(base int64, index int) int64 { return sweep.Seed(base, index) }

// AnalyzeSensitivityParallel is AnalyzeSensitivity with the five
// predictions fanned out over a worker pool; predict must be safe for
// concurrent use. The report is identical to the serial analysis.
func AnalyzeSensitivityParallel(base Params, delta float64,
	predict func(p Params) (float64, error), workers int) (*SensitivityReport, error) {
	return sensitivity.AnalyzeParallel(base, delta, predict, workers)
}

// ScalingSweepParallel is ScalingSweep with the per-processor-count
// predictions fanned out over a worker pool; predict must be safe for
// concurrent use. The curve is identical to the serial sweep.
func ScalingSweepParallel(procs []int, predict func(p int) (float64, error), workers int) ([]ScalingPoint, error) {
	return scaling.SweepParallel(procs, predict, workers)
}
