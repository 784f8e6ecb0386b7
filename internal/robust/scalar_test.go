package robust

// The per-sample envelope oracle: the loop robust.Run ran before the
// lockstep lane engine served envelopes. Every sample replays the whole
// prediction through predictor.Evaluator — a one-lane run of the same
// engine — and checks itself against a from-scratch
// analyze.BoundProgram certificate. It is the readable specification of
// an envelope: TestLockstepMatchesScalar holds lockstep runs (every
// sample a lane of one run) to one-lane runs, and sessionReplay in
// internal/lanes/oracle_test.go, the session loop the predictor ran
// before it became one lane, anchors the one-lane result itself.
// BenchmarkEnvelopeScalar times the per-sample path.

import (
	"errors"
	"fmt"

	"loggpsim/internal/analyze"
	"loggpsim/internal/faults"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/predictor"
	"loggpsim/internal/sweep"
)

// runScalar computes Run's envelopes one sample at a time, block size
// after block size. It honours cfg.Ctx between samples; Workers,
// Journal and Scope do not change envelopes and are ignored.
func runScalar(cfg Config) ([]Envelope, error) {
	samples := cfg.Samples
	if samples < 1 {
		samples = 64
	}
	var envs []Envelope
	i := 0
	for _, b := range cfg.Sizes {
		if b <= 0 || cfg.N%b != 0 {
			continue
		}
		env, err := scalarEnvelope(cfg, i, b, samples)
		if err != nil {
			return nil, err
		}
		envs = append(envs, env)
		i++
	}
	return envs, nil
}

// scalarEnvelope is one block size of runScalar: i is the block size's
// index among the usable sizes, which the sample seeds derive from.
func scalarEnvelope(cfg Config, i, b, samples int) (Envelope, error) {
	g, err := ge.NewGrid(cfg.N, b)
	if err != nil {
		return Envelope{}, err
	}
	lay := cfg.Layout
	if lay == nil {
		lay = func(nb int) layout.Layout { return layout.Diagonal(cfg.P, nb) }
	}
	pr, err := ge.BuildProgram(g, lay(g.NB))
	if err != nil {
		return Envelope{}, err
	}
	e := predictor.NewEvaluator()
	var pred predictor.Prediction
	base := predictor.Config{Params: cfg.Params, Cost: cfg.Model, Seed: cfg.Seed, Ctx: cfg.Ctx}
	if err := e.PredictInto(&pred, pr, base); err != nil {
		return Envelope{}, err
	}
	nominalBounds, err := analyze.BoundProgram(pr, cfg.Params, cfg.Model)
	if err != nil {
		return Envelope{}, err
	}
	env := Envelope{
		B:         b,
		Nominal:   pred.Total * secPerMicro,
		CertLower: nominalBounds.Lower * secPerMicro,
		CertUpper: nominalBounds.Upper * secPerMicro,
	}
	totals := make([]float64, 0, samples)
	worsts := make([]float64, 0, samples)
	for s := 0; s < samples; s++ {
		if cfg.Ctx != nil {
			// Early abort between samples: a deadline that expires
			// mid-envelope must not pay for the remaining samples.
			if err := cfg.Ctx.Err(); err != nil {
				return Envelope{}, fmt.Errorf("robust: b=%d after %d of %d samples: %w", b, s, samples, err)
			}
		}
		seed := sweep.Seed(cfg.Seed, i*samples+s)
		scfg := base
		scfg.Params = sampleParams(cfg.Params, cfg.Perturb, seed)
		scfg.Seed = seed
		if cfg.Faults.Enabled() {
			scfg.Faults = cfg.Faults
			scfg.Faults.Seed = sweep.Seed(seed, 4)
		}
		if err := e.PredictInto(&pred, pr, scfg); err != nil {
			var le *faults.LossError
			if errors.As(err, &le) {
				env.Lost++
				continue
			}
			return Envelope{}, fmt.Errorf("robust: b=%d sample %d: %w", b, s, err)
		}
		// Certificate sandwich: each sample against the bounds of its
		// own parameter vector.
		bounds, err := analyze.BoundProgram(pr, scfg.Params, cfg.Model)
		if err != nil {
			return Envelope{}, fmt.Errorf("robust: b=%d sample %d: %w", b, s, err)
		}
		const tol = 1e-9
		if pred.Total < bounds.Lower*(1-tol)-tol {
			return Envelope{}, fmt.Errorf(
				"robust: b=%d sample %d: prediction %g below its certificate lower bound %g",
				b, s, pred.Total, bounds.Lower)
		}
		if !cfg.Faults.Enabled() && pred.TotalWorst > bounds.Upper*(1+tol)+tol {
			return Envelope{}, fmt.Errorf(
				"robust: b=%d sample %d: worst-case prediction %g above its certificate upper bound %g",
				b, s, pred.TotalWorst, bounds.Upper)
		}
		env.Samples++
		totals = append(totals, pred.Total*secPerMicro)
		worsts = append(worsts, pred.TotalWorst*secPerMicro)
	}
	if env.Samples == 0 {
		return Envelope{}, fmt.Errorf("robust: b=%d: all %d samples lost a message; lower the drop rate or raise the retry budget", b, samples)
	}
	env.Total = summarize(totals)
	env.Worst = summarize(worsts)
	return env, nil
}
