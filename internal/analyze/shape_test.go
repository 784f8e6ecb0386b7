package analyze_test

// Satellite test for the certificate pricer: a ProgramShape built once
// and priced per parameter vector must reproduce the walk oracle's
// certificate (walk_test.go) bit-for-bit — whole-program bounds and
// every per-step bound — on the bound corpus programs across the
// machine grid, presets, and perturbed parameter vectors, reusing one
// Pricer across all of them (the robust sweep's access pattern).

import (
	"reflect"
	"testing"

	"loggpsim/internal/analyze"
	"loggpsim/internal/cost"
	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
)

// shapeMachines is the pricing grid: the bound corpus machines plus
// presets and, for each, a few deterministic multiplicative
// perturbations of the kind the robust sweep draws.
func shapeMachines(p int) []loggp.Params {
	base := append(boundParams(p),
		loggp.MeikoCS2(p), loggp.Cluster(p), loggp.LowOverhead(p), loggp.Uniform(p))
	out := make([]loggp.Params, 0, 4*len(base))
	for _, m := range base {
		out = append(out, m)
		for k := 1; k <= 3; k++ {
			pm := m
			f := 1 + 0.07*float64(k)
			pm.L *= f
			pm.O *= 2 - f
			pm.Gap *= f * f
			pm.G *= 1 / f
			out = append(out, pm)
		}
	}
	return out
}

func TestShapePricerMatchesWalk(t *testing.T) {
	model := cost.DefaultAnalytic()
	for name, pr := range boundPrograms(t) {
		shape, err := analyze.NewProgramShape(pr, model)
		if err != nil {
			t.Fatalf("%s: NewProgramShape: %v", name, err)
		}
		if shape.Steps() != len(pr.Steps) {
			t.Fatalf("%s: shape has %d steps, program %d", name, shape.Steps(), len(pr.Steps))
		}
		pricer := shape.Pricer()
		for pi, params := range shapeMachines(pr.P) {
			want := analyze.WalkProgram(pr, params, model)
			got, err := pricer.Bound(params)
			if err != nil {
				t.Fatalf("%s/m%d: Pricer.Bound: %v", name, pi, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/m%d: pricer bounds diverge from the walk:\nwant %+v\ngot  %+v",
					name, pi, want, got)
			}
			if got, err := analyze.BoundProgram(pr, params, model); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/m%d: BoundProgram diverges from the walk (err %v):\nwant %+v\ngot  %+v",
					name, pi, err, want, got)
			}
		}
	}
}

// TestShapeRejectsInvalidInput pins the acceptance checks, split
// between shape build (program and model) and pricing (parameters).
func TestShapeRejectsInvalidInput(t *testing.T) {
	if _, err := analyze.NewProgramShape(program.New(2), nil); err == nil {
		t.Fatal("nil cost model accepted")
	}
	model := cost.DefaultAnalytic()
	pr := boundPrograms(t)["trisolve"]
	shape, err := analyze.NewProgramShape(pr, model)
	if err != nil {
		t.Fatal(err)
	}
	pricer := shape.Pricer()
	if _, err := pricer.Bound(loggp.Params{L: -1, O: 1, Gap: 1, G: 0, P: pr.P}); err == nil {
		t.Fatal("invalid parameters accepted")
	}
	if _, err := pricer.Bound(loggp.MeikoCS2(pr.P - 1)); err == nil {
		t.Fatal("machine smaller than the program accepted")
	}
}
