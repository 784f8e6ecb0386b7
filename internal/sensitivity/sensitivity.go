// Package sensitivity quantifies how strongly a prediction depends on
// each LogGP machine parameter, by finite differences: the elasticity
// (relative change in predicted time per relative change in parameter)
// of L, o, g and G. It answers the machine-design question the LogP/
// LogGP papers pose — which network property is the bottleneck for this
// program? — using the paper's simulator as the evaluator.
package sensitivity

import (
	"context"
	"fmt"

	"loggpsim/internal/loggp"
	"loggpsim/internal/sweep"
)

// Elasticity is one parameter's finite-difference sensitivity.
type Elasticity struct {
	// Param names the parameter ("L", "o", "g" or "G").
	Param string
	// Base and Perturbed are the predicted times before and after the
	// perturbation.
	Base, Perturbed float64
	// Value is (ΔT/T)/(Δp/p): 1.0 means the time scales one-for-one
	// with the parameter; 0 means the parameter does not matter. Zero-
	// valued parameters cannot be perturbed relatively and report 0.
	Value float64
}

// Report holds the sensitivities of one prediction.
type Report struct {
	// Base is the unperturbed predicted time.
	Base float64
	// PerParam lists the four parameters in L, o, g, G order.
	PerParam [4]Elasticity
}

// Dominant returns the parameter with the largest elasticity magnitude.
func (r *Report) Dominant() Elasticity {
	best := r.PerParam[0]
	for _, e := range r.PerParam[1:] {
		if abs(e.Value) > abs(best.Value) {
			best = e
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Analyze perturbs each parameter of base by the relative delta
// (e.g. 0.1 for +10%) and evaluates predict at every point. It is
// AnalyzeParallel with one worker.
func Analyze(base loggp.Params, delta float64,
	predict func(p loggp.Params) (float64, error)) (*Report, error) {
	return AnalyzeParallel(base, delta, predict, 1)
}

// AnalyzeParallel is Analyze with the five predictions — the base point
// plus the four perturbations — fanned out over a worker pool (workers
// < 1 selects runtime.GOMAXPROCS(0)). predict must be safe for
// concurrent use when more than one worker is configured. The report is
// identical to the serial Analyze at every worker count: the evaluation
// points depend only on base and delta, and the elasticities are
// assembled serially from the ordered results.
func AnalyzeParallel(base loggp.Params, delta float64,
	predict func(p loggp.Params) (float64, error), workers int) (*Report, error) {
	if delta <= 0 {
		return nil, fmt.Errorf("sensitivity: delta must be positive, got %g", delta)
	}
	type point struct {
		name  string
		value float64
		apply func(p *loggp.Params, v float64)
	}
	// Item 0 is the base prediction; the rest are the perturbations in
	// L, o, g, G order. A base failure has the lowest item index, so it
	// wins error propagation exactly as in the serial loop.
	points := []point{
		{name: "base"},
		{"L", base.L, func(p *loggp.Params, v float64) { p.L = v }},
		{"o", base.O, func(p *loggp.Params, v float64) { p.O = v }},
		{"g", base.Gap, func(p *loggp.Params, v float64) { p.Gap = v }},
		{"G", base.G, func(p *loggp.Params, v float64) { p.G = v }},
	}
	times, err := sweep.Map(context.TODO(), workers, points, func(i int, pt point) (float64, error) {
		if i == 0 {
			t, err := predict(base)
			if err != nil {
				return 0, fmt.Errorf("sensitivity: base prediction: %w", err)
			}
			if t <= 0 {
				return 0, fmt.Errorf("sensitivity: non-positive base prediction %g", t)
			}
			return t, nil
		}
		if pt.value <= 0 {
			return 0, nil // zero-valued parameters cannot be perturbed relatively
		}
		p := base
		pt.apply(&p, pt.value*(1+delta))
		t, err := predict(p)
		if err != nil {
			return 0, fmt.Errorf("sensitivity: perturbing %s: %w", pt.name, err)
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	baseTime := times[0]
	r := &Report{Base: baseTime}
	for i, pt := range points[1:] {
		e := Elasticity{Param: pt.name, Base: baseTime, Perturbed: baseTime}
		if pt.value > 0 {
			e.Perturbed = times[i+1]
			e.Value = ((e.Perturbed - baseTime) / baseTime) / delta
		}
		r.PerParam[i] = e
	}
	return r, nil
}
