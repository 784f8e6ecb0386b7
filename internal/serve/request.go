// Request/response wire format, hard input caps, and workload
// construction for the prediction service. Everything here runs before
// a worker is committed to a request, so it must be cheap and bounded:
// validation rejects anything whose mere construction could hurt
// (processor counts, step counts, message counts, sample counts all have
// hard caps), and the work pre-estimate prices what survives.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"loggpsim/internal/analyze"
	"loggpsim/internal/faults"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
	"loggpsim/internal/robust"
	"loggpsim/internal/trace"
)

// Request modes.
const (
	// ModeSimulate runs the full prediction (standard + worst-case
	// replays) and returns the prediction.
	ModeSimulate = "simulate"
	// ModeWorstCase is ModeSimulate with the worst-case figure as the
	// headline; the same replay produces both.
	ModeWorstCase = "worstcase"
	// ModeAnalyze runs the static analyzer only: structural issues,
	// deadlock verdicts, and the closed-form bound certificate. Cheap by
	// construction — never queued behind simulations.
	ModeAnalyze = "analyze"
	// ModeEnvelope runs the Monte-Carlo prediction envelope (perturbed
	// LogGP vectors × fault realizations, quantile summary).
	ModeEnvelope = "envelope"
)

// Workload kinds.
const (
	// KindGE is the paper's blocked Gaussian elimination: n, block and
	// layout describe the program.
	KindGE = "ge"
	// KindPattern is a single named communication pattern (one program
	// step, no computation phase).
	KindPattern = "pattern"
)

// Request is one prediction request.
type Request struct {
	// Mode selects what to compute: simulate, worstcase, analyze or
	// envelope. Empty selects simulate.
	Mode string `json:"mode"`
	// Workload describes the program to predict.
	Workload Workload `json:"workload"`
	// Machine selects the LogGP machine; the zero value is the paper's
	// Meiko CS-2 preset at the workload's processor count.
	Machine Machine `json:"machine"`
	// Seed drives the simulators' tie-breaks and, in envelope mode, the
	// per-sample derivations.
	Seed int64 `json:"seed"`
	// DeadlineMS caps the request's wall-clock budget in milliseconds.
	// Zero selects the server default; values above the server maximum
	// are clamped to it. When the deadline cannot fit the full
	// simulation or envelope the response degrades to the bound
	// certificate instead of erroring (Response.Degraded).
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// Budget caps the request's price, in analyze.Work units: the
	// program's one-replay estimate times the lanes the mode replays
	// (one for simulate and worstcase, samples + 1 for an envelope).
	// Zero selects the server default. A request priced above its
	// budget is downgraded to the bound certificate before any worker
	// touches it.
	Budget float64 `json:"budget,omitempty"`

	// Samples is the Monte-Carlo sample count (envelope mode); zero
	// selects defaultSamples, the cap is Limits.MaxSamples.
	Samples int `json:"samples,omitempty"`
	// Perturb spreads the LogGP parameters in envelope mode (relative
	// half-widths, robust.Perturb semantics).
	Perturb robust.Perturb `json:"perturb,omitempty"`
	// Faults is a fault-plan spec in the faults.Parse syntax (e.g.
	// "drop=0.01,jitter=0.1"); applied to simulate/worstcase directly
	// and as the per-sample template in envelope mode.
	Faults string `json:"faults,omitempty"`
}

// Workload describes the program to predict.
type Workload struct {
	// Kind is "ge" or "pattern".
	Kind string `json:"kind"`
	// Procs is the processor count (both kinds).
	Procs int `json:"procs"`
	// N and Block give the GE matrix and block size (kind "ge").
	N      int    `json:"n,omitempty"`
	Block  int    `json:"block,omitempty"`
	Layout string `json:"layout,omitempty"` // diagonal (default), row, col, 2d
	// Pattern names a built-in pattern (kind "pattern"): figure3, ring,
	// alltoall, gather, scatter, random, hypercube. Bytes is the
	// per-message payload.
	Pattern string `json:"pattern,omitempty"`
	Bytes   int    `json:"bytes,omitempty"`
}

// Machine selects the LogGP parameters. With Preset set (or everything
// zero, which selects "meiko-cs2"), the named preset is instantiated at
// the workload's processor count. Otherwise the explicit parameters are
// used as given.
type Machine struct {
	Preset string  `json:"preset,omitempty"` // meiko-cs2, cluster, low-overhead, uniform
	L      float64 `json:"l,omitempty"`
	O      float64 `json:"o,omitempty"`
	Gap    float64 `json:"gap,omitempty"`
	G      float64 `json:"g,omitempty"`
}

// Response is the service's answer to one request. It is a pure
// function of the request's canonical form, so it carries no wall
// clock: the handler's time travels in the Server-Timing header.
type Response struct {
	// Mode echoes the request mode.
	Mode string `json:"mode"`
	// Degraded reports that the service could not afford the requested
	// computation and answered with the bound certificate instead of
	// an error; DegradeReason says why: "deadline" (the per-request
	// deadline expired), "budget" (the request's price exceeded the
	// budget), or "drain" (the server was shutting down and
	// bound-downgraded in-flight work).
	Degraded      bool   `json:"degraded"`
	DegradeReason string `json:"degrade_reason,omitempty"`

	// Prediction carries the simulation result (simulate/worstcase).
	Prediction *PredictionResult `json:"prediction,omitempty"`
	// Bounds carries the closed-form certificate: always in analyze
	// mode, and as the degraded answer when a deadline or budget ruled
	// the simulation out.
	Bounds *BoundsResult `json:"bounds,omitempty"`
	// Envelope carries the Monte-Carlo envelope (envelope mode; times
	// in seconds, robust.Envelope semantics).
	Envelope *robust.Envelope `json:"envelope,omitempty"`
	// Report carries the full static-analysis report (analyze mode).
	Report *analyze.ProgramReport `json:"report,omitempty"`

	// WorkUnits is the program's structural work pre-estimate for one
	// replay (analyze.Work units). Admission control prices the request
	// at WorkUnits times the lanes its mode replays (Request.Budget).
	WorkUnits float64 `json:"work_units"`
}

// PredictionResult is the simulation outcome, in the simulators' native
// microseconds.
type PredictionResult struct {
	TotalMicros     float64 `json:"total_us"`
	WorstMicros     float64 `json:"worst_us"`
	CompMicros      float64 `json:"comp_us"`
	CommMicros      float64 `json:"comm_us"`
	CommWorstMicros float64 `json:"comm_worst_us"`
	Steps           int     `json:"steps"`
}

// BoundsResult is the closed-form certificate, in microseconds.
type BoundsResult struct {
	LowerMicros float64 `json:"lower_us"`
	UpperMicros float64 `json:"upper_us"`
}

// errorResponse is the body of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Limits are the hard per-request input caps. Every field has a
// defensive default (see DefaultLimits); zero values in a custom Limits
// select those defaults field by field.
type Limits struct {
	// MaxBodyBytes caps the request body; larger bodies get 413 before
	// any decoding happens.
	MaxBodyBytes int64
	// MaxP caps the processor count.
	MaxP int
	// MaxSteps caps the program's step count.
	MaxSteps int
	// MaxMessages caps the program's total network message count.
	MaxMessages int
	// MaxSamples caps envelope-mode Monte-Carlo samples.
	MaxSamples int
	// MaxN caps the GE matrix size (bounds program-construction cost
	// before the program exists to count).
	MaxN int
}

// DefaultLimits returns the defaults: generous for interactive use,
// tight enough that no request can build a program whose mere
// construction hurts.
func DefaultLimits() Limits {
	return Limits{
		MaxBodyBytes: 1 << 20,
		MaxP:         1024,
		MaxSteps:     20000,
		MaxMessages:  2_000_000,
		MaxSamples:   256,
		MaxN:         16384,
	}
}

// WithDefaults fills zero fields from DefaultLimits. Exported so the
// cluster router (internal/cluster) applies exactly the caps its peers
// will, and rejects at the front what a peer would reject anyway.
func (l Limits) WithDefaults() Limits {
	d := DefaultLimits()
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = d.MaxBodyBytes
	}
	if l.MaxP <= 0 {
		l.MaxP = d.MaxP
	}
	if l.MaxSteps <= 0 {
		l.MaxSteps = d.MaxSteps
	}
	if l.MaxMessages <= 0 {
		l.MaxMessages = d.MaxMessages
	}
	if l.MaxSamples <= 0 {
		l.MaxSamples = d.MaxSamples
	}
	if l.MaxN <= 0 {
		l.MaxN = d.MaxN
	}
	return l
}

// params resolves the request's machine description for procs
// processors.
func (m Machine) params(procs int) (loggp.Params, error) {
	explicit := m.L != 0 || m.O != 0 || m.Gap != 0 || m.G != 0
	if explicit && m.Preset != "" {
		return loggp.Params{}, fmt.Errorf("machine: give a preset or explicit parameters, not both")
	}
	if explicit {
		p := loggp.Params{L: m.L, O: m.O, Gap: m.Gap, G: m.G, P: procs}
		return p, p.Validate()
	}
	switch m.Preset {
	case "", "meiko-cs2":
		return loggp.MeikoCS2(procs), nil
	case "cluster":
		return loggp.Cluster(procs), nil
	case "low-overhead":
		return loggp.LowOverhead(procs), nil
	case "uniform":
		return loggp.Uniform(procs), nil
	default:
		return loggp.Params{}, fmt.Errorf("machine: unknown preset %q", m.Preset)
	}
}

// makeLayout resolves a layout name for procs processors.
func makeLayout(name string, procs int) (func(nb int) layout.Layout, error) {
	switch name {
	case "", "diagonal":
		return func(nb int) layout.Layout { return layout.Diagonal(procs, nb) }, nil
	case "row":
		return func(nb int) layout.Layout { return layout.RowCyclic(procs) }, nil
	case "col":
		return func(nb int) layout.Layout { return layout.ColCyclic(procs) }, nil
	case "2d":
		if procs%2 != 0 {
			return nil, fmt.Errorf("layout 2d needs an even processor count, got %d", procs)
		}
		return func(nb int) layout.Layout { return layout.BlockCyclic2D(2, procs/2) }, nil
	default:
		return nil, fmt.Errorf("unknown layout %q", name)
	}
}

// DecodeRequest is the strict front door every request passes:
// predictd's /predict, the cluster router's /predict (so a malformed
// request is bounced once instead of being forwarded to a peer that
// would bounce it anyway) and the cache-import verifier. The body must
// hold exactly one JSON object with no unknown fields and nothing but
// whitespace after it, and the request must pass Validate under lim.
// Decode failures read "bad request body: …" and wrap the reader's
// error, so a handler behind http.MaxBytesReader can answer an
// oversized body 413.
func DecodeRequest(rd io.Reader, lim Limits) (Request, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var r Request
	if err := dec.Decode(&r); err != nil {
		return Request{}, fmt.Errorf("bad request body: %w", err)
	}
	// Decode stops after the first value; a second value or stray bytes
	// behind it would pass unread, and the router forwards the whole
	// body to a peer.
	if _, err := dec.Token(); err != io.EOF {
		if errors.As(err, new(*http.MaxBytesError)) {
			return Request{}, fmt.Errorf("bad request body: %w", err)
		}
		return Request{}, errors.New("bad request body: data after the request object")
	}
	if err := r.Validate(lim); err != nil {
		return Request{}, err
	}
	return r, nil
}

// Validate applies the pre-construction caps — everything that can be
// checked before a program exists. Violations are client errors (400),
// never degradations: a request outside the hard caps is malformed, not
// merely expensive. DecodeRequest runs it on every decoded request.
func (r *Request) Validate(lim Limits) error {
	switch r.Mode {
	case "", ModeSimulate, ModeWorstCase, ModeAnalyze, ModeEnvelope:
	default:
		return fmt.Errorf("unknown mode %q", r.Mode)
	}
	w := &r.Workload
	if w.Procs < 1 {
		return fmt.Errorf("workload: procs must be positive, got %d", w.Procs)
	}
	if w.Procs > lim.MaxP {
		return fmt.Errorf("workload: procs %d exceeds the cap %d", w.Procs, lim.MaxP)
	}
	switch w.Kind {
	case KindGE:
		if w.N < 1 || w.Block < 1 {
			return fmt.Errorf("workload: ge needs positive n and block, got n=%d block=%d", w.N, w.Block)
		}
		if w.N > lim.MaxN {
			return fmt.Errorf("workload: n=%d exceeds the cap %d", w.N, lim.MaxN)
		}
		if w.N%w.Block != 0 {
			return fmt.Errorf("workload: block %d does not divide n=%d", w.Block, w.N)
		}
		// A GE program has 3(nb-1)+1 steps: bound nb before building.
		if nb := w.N / w.Block; 3*(nb-1)+1 > lim.MaxSteps {
			return fmt.Errorf("workload: n/block=%d implies %d steps, exceeding the cap %d",
				nb, 3*(nb-1)+1, lim.MaxSteps)
		}
		if _, err := makeLayout(w.Layout, w.Procs); err != nil {
			return fmt.Errorf("workload: %w", err)
		}
	case KindPattern:
		if w.Pattern == "" {
			return fmt.Errorf("workload: pattern kind needs a pattern name")
		}
		if w.Bytes < 1 {
			return fmt.Errorf("workload: pattern needs a positive message size, got %d", w.Bytes)
		}
		if r.Mode == ModeEnvelope {
			return fmt.Errorf("envelope mode needs a ge workload (the Monte-Carlo sweep is defined over block programs)")
		}
	default:
		return fmt.Errorf("workload: unknown kind %q", w.Kind)
	}
	if r.Samples < 0 || r.Samples > lim.MaxSamples {
		return fmt.Errorf("samples %d outside [0, %d]", r.Samples, lim.MaxSamples)
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms must be non-negative, got %d", r.DeadlineMS)
	}
	if r.Budget < 0 {
		return fmt.Errorf("budget must be non-negative, got %g", r.Budget)
	}
	for _, p := range [...]struct {
		name string
		v    float64
	}{{"l", r.Perturb.L}, {"o", r.Perturb.O}, {"gap", r.Perturb.Gap}, {"g", r.Perturb.G}} {
		if !(p.v >= 0 && p.v < 1) { // NaN fails both comparisons
			return fmt.Errorf("perturb.%s=%g outside [0,1)", p.name, p.v)
		}
	}
	if _, err := faults.Parse(r.Faults); err != nil {
		return err
	}
	return nil
}

// defaultSamples is an envelope's Monte-Carlo sample count when the
// request names none. The cache key, the admission price and the run
// all read it through samples.
const defaultSamples = 32

// samples is the envelope's Monte-Carlo sample count.
func (r *Request) samples() int {
	if r.Samples < 1 {
		return defaultSamples
	}
	return r.Samples
}

// lanes is the number of program replays the request's mode runs: one
// for simulate and worstcase, and for an envelope one lane per sample
// plus robust's nominal lane. The request's price is the one-replay
// work estimate times lanes.
func (r *Request) lanes() int {
	if r.Mode == ModeEnvelope {
		return r.samples() + 1
	}
	return 1
}

// buildProgram constructs the request's program and applies the
// post-construction caps (exact step and message counts). The returned
// work estimate prices the program for admission control.
func (r *Request) buildProgram(lim Limits) (*program.Program, analyze.Work, error) {
	w := &r.Workload
	var pr *program.Program
	switch w.Kind {
	case KindGE:
		g, err := ge.NewGrid(w.N, w.Block)
		if err != nil {
			return nil, analyze.Work{}, err
		}
		lay, err := makeLayout(w.Layout, w.Procs)
		if err != nil {
			return nil, analyze.Work{}, err
		}
		pr, err = ge.BuildProgram(g, lay(g.NB))
		if err != nil {
			return nil, analyze.Work{}, err
		}
	case KindPattern:
		pt, err := trace.Builtin(w.Pattern, w.Procs, w.Bytes, r.Seed)
		if err != nil {
			return nil, analyze.Work{}, err
		}
		if pt.P > w.Procs {
			// Builtin generators may round the processor count up (the
			// hypercube does); keep the program consistent with it.
			w.Procs = pt.P
			if w.Procs > lim.MaxP {
				return nil, analyze.Work{}, fmt.Errorf("pattern %q rounds procs to %d, exceeding the cap %d",
					w.Pattern, w.Procs, lim.MaxP)
			}
		}
		pr = program.New(w.Procs)
		step := pr.AddStep()
		step.Comm = pt
	}
	work := analyze.EstimateWork(pr)
	if work.Steps > lim.MaxSteps {
		return nil, work, fmt.Errorf("program has %d steps, exceeding the cap %d", work.Steps, lim.MaxSteps)
	}
	if work.NetMessages+work.LocalMessages > lim.MaxMessages {
		return nil, work, fmt.Errorf("program has %d messages, exceeding the cap %d",
			work.NetMessages+work.LocalMessages, lim.MaxMessages)
	}
	return pr, work, nil
}
