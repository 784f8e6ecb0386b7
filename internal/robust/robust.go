// Package robust quantifies how sensitive the paper's predictions are
// to what the paper holds fixed: the measured LogGP parameters and the
// assumption of a fault-free machine. It reruns the Figure-7 sweep as a
// Monte-Carlo experiment — N samples per block size, each under a
// perturbed LogGP parameter vector and an independently seeded fault
// plan — and reports quantile envelopes (p5/p50/p95) instead of point
// predictions.
//
// Every sample is double-checked against the static analyzer: its
// prediction must lie at or above the critical-path lower bound
// computed from its own perturbed parameters, and (when faults are
// disabled, so the certificate's premises hold) at or below the
// serialization upper bound. A sample escaping its certificate is an
// internal inconsistency and fails the run, making the Monte-Carlo
// sweep a continuous cross-validation of simulator against analyzer.
//
// Sampling is deterministic: sample s of block size index i derives its
// seed from the base seed via sweep.Seed, so envelopes are
// byte-identical at any worker count and across checkpoint/resume.
package robust

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"loggpsim/internal/analyze"
	"loggpsim/internal/cost"
	"loggpsim/internal/faults"
	"loggpsim/internal/ge"
	"loggpsim/internal/lanes"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
	"loggpsim/internal/stats"
	"loggpsim/internal/sweep"
)

// Perturb gives the relative half-width of the uniform distribution
// each LogGP parameter is drawn from: a value of 0.2 draws the sampled
// parameter uniformly from [0.8x, 1.2x] of its nominal value. Zero
// leaves the parameter fixed. Each parameter is drawn independently.
type Perturb struct {
	L   float64 `json:"l,omitempty"`
	O   float64 `json:"o,omitempty"`
	Gap float64 `json:"gap,omitempty"`
	G   float64 `json:"g,omitempty"`
}

// Enabled reports whether any parameter is actually perturbed.
func (u Perturb) Enabled() bool {
	return u.L != 0 || u.O != 0 || u.Gap != 0 || u.G != 0
}

func (u Perturb) validate() error {
	var errs []error
	check := func(name string, v float64) {
		if !(v >= 0 && v < 1) { // NaN fails both comparisons
			errs = append(errs, fmt.Errorf("robust: perturbation %s=%g outside [0,1)", name, v))
		}
	}
	check("l", u.L)
	check("o", u.O)
	check("gap", u.Gap)
	check("g", u.G)
	return errors.Join(errs...)
}

// Parse reads a "l=0.2,o=0.1,gap=0.2,g=0.1" perturbation spec. The
// empty string is the zero perturbation.
func Parse(spec string) (Perturb, error) {
	var u Perturb
	if spec == "" {
		return u, nil
	}
	fields := map[string]*float64{"l": &u.L, "o": &u.O, "gap": &u.Gap, "g": &u.G}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Perturb{}, fmt.Errorf("robust: bad perturbation field %q (want key=value)", kv)
		}
		dst, ok := fields[strings.TrimSpace(k)]
		if !ok {
			return Perturb{}, fmt.Errorf("robust: unknown perturbation key %q", strings.TrimSpace(k))
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return Perturb{}, fmt.Errorf("robust: bad value for %s: %q", strings.TrimSpace(k), v)
		}
		*dst = x
	}
	return u, u.validate()
}

// Config parameterizes a Monte-Carlo envelope sweep.
type Config struct {
	// N and P set the problem as in experiments.Config.
	N, P int
	// Sizes are the block sizes to sweep; non-divisors of N are skipped.
	Sizes []int
	// Params is the nominal LogGP machine each sample perturbs.
	Params loggp.Params
	// Model prices the basic operations (not perturbed: the paper
	// measures them directly per block size).
	Model cost.Model
	// Layout builds the block-to-processor mapping for an nb x nb grid.
	// Nil selects the paper's diagonal layout.
	Layout func(nb int) layout.Layout
	// Samples is the number of Monte-Carlo samples per block size;
	// values below 1 select 64.
	Samples int
	// Seed is the base seed every sample seed derives from.
	Seed int64
	// Perturb spreads the LogGP parameters.
	Perturb Perturb
	// Faults is the fault-plan template: each sample reruns it with an
	// independently derived seed (same probabilities, different coin
	// flips). The zero plan disables fault injection.
	Faults faults.Plan
	// Workers bounds the sweep fan-out; values below 1 select
	// runtime.GOMAXPROCS(0).
	Workers int
	// Journal, when non-nil, checkpoints each block size's finished
	// envelope under Scope, so an interrupted sweep resumes without
	// recomputation (see sweep.MapResume).
	Journal *sweep.Journal
	// Scope namespaces the journal keys; empty means "robust".
	Scope string
	// Ctx, when non-nil, deadline-bounds the sweep at step
	// granularity: the lane engine polls it once per program step
	// (lanes.Config.Ctx), and each step advances all of a block size's
	// samples and its nominal point, so a cancelled or expired context
	// aborts within one scheduler step — no envelope finishes its
	// replay once the deadline is gone. The block-size fan-out claims
	// no new size once it is done. The returned error wraps ctx.Err().
	Ctx context.Context
}

// Quantiles summarizes one prediction series across samples, in
// seconds.
type Quantiles struct {
	P5  float64 `json:"p5"`
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
}

// Envelope is the Monte-Carlo result for one block size. All times are
// seconds, like experiments.Point.
type Envelope struct {
	B int `json:"b"`
	// Nominal is the standard prediction at the unperturbed parameters
	// and base seed, without faults. It runs as one more lane beside
	// the samples and counts in neither Samples, Lost nor the
	// quantiles.
	Nominal float64 `json:"nominal"`
	// Total and Worst envelope the standard and worst-case predictions
	// across the surviving samples.
	Total Quantiles `json:"total"`
	Worst Quantiles `json:"worst"`
	// CertLower and CertUpper are the static certificate for the
	// nominal parameters (analyze.BoundProgram).
	CertLower float64 `json:"cert_lower"`
	CertUpper float64 `json:"cert_upper"`
	// Samples counts the samples that completed; Lost counts the ones
	// aborted by a message exhausting its retries (excluded from the
	// quantiles).
	Samples int `json:"samples"`
	Lost    int `json:"lost"`
}

const secPerMicro = 1e-6

// enginePool recycles lane engines across block sizes and sweep
// workers: each Run call rebuilds the program plan but reuses the
// engine's storage, and lane results do not depend on which engine ran
// them.
var enginePool = sync.Pool{New: func() any { return new(lanes.Engine) }}

// u01 maps a derived seed to [0, 1) using its top 53 bits.
func u01(seed int64) float64 {
	return float64(uint64(seed)>>11) / (1 << 53)
}

// sampleParams draws the perturbed LogGP vector for one sample seed.
// Each parameter scales by an independent uniform factor in
// [1-spread, 1+spread); P and the rendezvous threshold stay fixed.
func sampleParams(nominal loggp.Params, u Perturb, seed int64) loggp.Params {
	p := nominal
	scale := func(v, spread float64, stream int) float64 {
		if spread == 0 {
			return v
		}
		return v * (1 + spread*(2*u01(sweep.Seed(seed, stream))-1))
	}
	p.L = scale(p.L, u.L, 0)
	p.O = scale(p.O, u.O, 1)
	p.Gap = scale(p.Gap, u.Gap, 2)
	p.G = scale(p.G, u.G, 3)
	return p
}

// quantile returns the q-quantile of sorted (ascending) xs by linear
// interpolation; deterministic for a deterministic input order.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func summarize(xs []float64) Quantiles {
	sort.Float64s(xs)
	return Quantiles{P5: quantile(xs, 0.05), P50: quantile(xs, 0.50), P95: quantile(xs, 0.95)}
}

// Run executes the Monte-Carlo sweep and returns one envelope per
// usable block size, in input order. A block size's samples and its
// nominal point advance in lockstep through internal/lanes (see
// lockstepEnvelope); a nominal lane that fails fails the run. Each
// sample's prediction is checked against the static certificate
// computed from that sample's own perturbed parameters: below the
// lower bound is always an error; above the upper bound is an error
// when faults are disabled (fault delays void the certificate's
// flat-network premise, retrying sends can exceed the serialization
// bound). A sample that loses a message is counted in Envelope.Lost
// and excluded from the quantiles.
func Run(cfg Config) ([]Envelope, error) {
	samples, err := cfg.samples()
	if err != nil {
		return nil, err
	}
	makeLayout := cfg.Layout
	var usable []int
	for _, b := range cfg.Sizes {
		if b > 0 && cfg.N%b == 0 {
			usable = append(usable, b)
		}
	}
	scope := cfg.Scope
	if scope == "" {
		scope = "robust"
	}
	return sweep.MapResume(cfg.Ctx, cfg.Workers, cfg.Journal, scope, usable, func(i int, b int) (Envelope, error) {
		g, err := ge.NewGrid(cfg.N, b)
		if err != nil {
			return Envelope{}, err
		}
		lay := makeLayout
		if lay == nil {
			lay = func(nb int) layout.Layout { return layout.Diagonal(cfg.P, nb) }
		}
		pr, err := ge.BuildProgram(g, lay(g.NB))
		if err != nil {
			return Envelope{}, err
		}
		return lockstepEnvelope(cfg, pr, i, b, samples)
	})
}

// RunProgram returns the envelope Run returns for Sizes []int{b}, on a
// program the caller has already built for block size b, so a caller
// that holds the program does not build it twice. It reads cfg's
// Params, Model, Samples, Seed, Perturb, Faults and Ctx; the sizes,
// layout, workers and journal are the caller's business.
func RunProgram(cfg Config, pr *program.Program, b int) (Envelope, error) {
	samples, err := cfg.samples()
	if err != nil {
		return Envelope{}, err
	}
	return lockstepEnvelope(cfg, pr, 0, b, samples)
}

// samples checks the configuration every envelope shares and returns
// its sample count.
func (cfg Config) samples() (int, error) {
	if cfg.Model == nil {
		return 0, fmt.Errorf("robust: no cost model")
	}
	if err := cfg.Perturb.validate(); err != nil {
		return 0, err
	}
	if err := cfg.Faults.Validate(); err != nil {
		return 0, err
	}
	if cfg.Samples < 1 {
		return 64, nil
	}
	return cfg.Samples, nil
}

// laneSpecs derives the lane configurations for block-size index i:
// lanes 0..samples-1 are the Monte-Carlo samples, with exactly the seed
// and parameter derivations of the per-sample oracle in scalar_test.go,
// and lane samples is the nominal point — the unperturbed parameters
// and base seed, with no fault plan even when faults are on. The
// envelope reads only the nominal point's standard prediction, so its
// lane skips the worst-case slot.
func laneSpecs(cfg Config, i, samples int) []lanes.Lane {
	ls := make([]lanes.Lane, samples+1)
	for s := range samples {
		seed := sweep.Seed(cfg.Seed, i*samples+s)
		ls[s] = lanes.Lane{Params: sampleParams(cfg.Params, cfg.Perturb, seed), Seed: seed}
		if cfg.Faults.Enabled() {
			ls[s].Faults = cfg.Faults
			ls[s].Faults.Seed = sweep.Seed(seed, 4)
		}
	}
	ls[samples] = lanes.Lane{Params: cfg.Params, Seed: cfg.Seed, StandardOnly: true}
	return ls
}

// lockstepEnvelope prices the certificates of one block size's nominal
// point and every Monte-Carlo sample in one walk over the program, then
// runs the samples, plus the nominal point as one more lane, through
// the lane engine: all lanes advance together through one decode of
// the program. Both passes hold step-sized scratch only, so the
// envelope's memory is its program's plus the largest step's. The
// envelope is bit-identical to that of the per-sample oracle in
// scalar_test.go, which replays the nominal point and each sample as
// its own one-lane prediction and checks it against its own
// certificate.
func lockstepEnvelope(cfg Config, pr *program.Program, i, b, samples int) (Envelope, error) {
	shape, err := analyze.NewProgramShape(pr, cfg.Model)
	if err != nil {
		return Envelope{}, err
	}
	ls := laneSpecs(cfg, i, samples)
	// The nominal vector comes first, so that its rejection is the
	// envelope's error; certificate s+1 is sample s's.
	vecs := make([]loggp.Params, samples+1)
	vecs[0] = cfg.Params
	for s := range samples {
		vecs[s+1] = ls[s].Params
	}
	certs, err := shape.Pricer().BoundAll(vecs)
	if err != nil {
		return Envelope{}, err
	}
	nominalBounds := certs[0]
	eng := enginePool.Get().(*lanes.Engine)
	results, err := eng.Run(pr, lanes.Config{Cost: cfg.Model, Ctx: cfg.Ctx}, ls)
	enginePool.Put(eng)
	if err != nil {
		return Envelope{}, fmt.Errorf("robust: b=%d: %w", b, err)
	}
	nominal := results[samples]
	if nominal.Err != nil {
		return Envelope{}, fmt.Errorf("robust: b=%d nominal: %w", b, nominal.Err)
	}
	env := Envelope{
		B:         b,
		Nominal:   nominal.Total * secPerMicro,
		CertLower: nominalBounds.Lower * secPerMicro,
		CertUpper: nominalBounds.Upper * secPerMicro,
	}
	totals := make([]float64, 0, samples)
	worsts := make([]float64, 0, samples)
	for s, res := range results[:samples] {
		if res.Err != nil {
			var le *faults.LossError
			if errors.As(res.Err, &le) {
				env.Lost++
				continue
			}
			return Envelope{}, fmt.Errorf("robust: b=%d sample %d: %w", b, s, res.Err)
		}
		// Certificate sandwich: each sample against the bounds of its own
		// parameter vector; the pricer's bounds are bit-identical to
		// analyze.BoundProgram's.
		bounds := certs[s+1]
		const tol = 1e-9
		if res.Total < bounds.Lower*(1-tol)-tol {
			return Envelope{}, fmt.Errorf(
				"robust: b=%d sample %d: prediction %g below its certificate lower bound %g",
				b, s, res.Total, bounds.Lower)
		}
		if !cfg.Faults.Enabled() && res.TotalWorst > bounds.Upper*(1+tol)+tol {
			return Envelope{}, fmt.Errorf(
				"robust: b=%d sample %d: worst-case prediction %g above its certificate upper bound %g",
				b, s, res.TotalWorst, bounds.Upper)
		}
		env.Samples++
		totals = append(totals, res.Total*secPerMicro)
		worsts = append(worsts, res.TotalWorst*secPerMicro)
	}
	if env.Samples == 0 {
		return Envelope{}, fmt.Errorf("robust: b=%d: all %d samples lost a message; lower the drop rate or raise the retry budget", b, samples)
	}
	env.Total = summarize(totals)
	env.Worst = summarize(worsts)
	return env, nil
}

// Table tabulates the envelopes in the style of the Figure-7 tables:
// one row per block size, all times in seconds.
func Table(envs []Envelope) *stats.Table {
	t := stats.NewTable("block", "nominal", "p5", "p50", "p95",
		"worst-p50", "cert-lower", "cert-upper", "lost")
	for _, e := range envs {
		t.AddRow(e.B, e.Nominal, e.Total.P5, e.Total.P50, e.Total.P95,
			e.Worst.P50, e.CertLower, e.CertUpper, e.Lost)
	}
	return t
}
