package analyze_test

// Tests for the certificate pricer: a ProgramShape built once and
// priced per parameter vector, one vector per call or many in one walk,
// must reproduce the walk oracle's certificate (walk_test.go)
// bit-for-bit — whole-program bounds and every per-step bound — on the
// bound corpus programs across the machine grid, presets, and perturbed
// parameter vectors, reusing one Pricer across all of them; and pricing
// must hold step-sized memory only.

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"loggpsim/internal/analyze"
	"loggpsim/internal/blockops"
	"loggpsim/internal/cost"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
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

// lateClassProgram is a program whose second message size first appears
// in a later step, then alternates with the first within one
// sender-receiver pair: a later step reads a class id the first step
// never priced, and its receive runs must split where the class
// alternates.
func lateClassProgram() *program.Program {
	pr := program.New(4)
	s := pr.AddStep()
	s.AddOpOn(0, blockops.Op1, 8, 0)
	s.Comm.Add(0, 1, 512).Add(0, 2, 512).Add(3, 1, 512)
	s = pr.AddStep()
	s.AddOpOn(1, blockops.Op4, 8, 1)
	s.AddOpOn(2, blockops.Op2, 8, 2)
	s.Comm.Add(1, 0, 512).Add(1, 0, 40000).Add(1, 0, 512).Add(2, 0, 40000).Add(3, 0, 512).Add(1, 0, 40000)
	s = pr.AddStep()
	s.AddOpOn(3, blockops.Op3, 8, 3)
	s.Comm.Add(2, 3, 40000).Add(0, 3, 512).Add(1, 2, 40000)
	return pr
}

// sameBounds reports whether two certificates are equal bit for bit.
func sameBounds(a, b *analyze.Bounds) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eq(a.Lower, b.Lower) || !eq(a.Upper, b.Upper) || len(a.PerStep) != len(b.PerStep) {
		return false
	}
	for i := range a.PerStep {
		if !eq(a.PerStep[i].Lower, b.PerStep[i].Lower) || !eq(a.PerStep[i].Upper, b.PerStep[i].Upper) {
			return false
		}
	}
	return true
}

// TestShapeBoundAllMatchesWalks prices each program under its whole
// machine grid in one BoundAll call, then again with the grid reversed
// on the same pricer, and requires every certificate to equal an
// independent walk's (walk_test.go) bit for bit.
func TestShapeBoundAllMatchesWalks(t *testing.T) {
	model := cost.DefaultAnalytic()
	progs := boundPrograms(t)
	progs["late-class"] = lateClassProgram()
	for name, pr := range progs {
		shape, err := analyze.NewProgramShape(pr, model)
		if err != nil {
			t.Fatalf("%s: NewProgramShape: %v", name, err)
		}
		pricer := shape.Pricer()
		machines := shapeMachines(pr.P)
		reversed := slices.Clone(machines)
		slices.Reverse(reversed)
		for _, ps := range [][]loggp.Params{machines, reversed} {
			got, err := pricer.BoundAll(ps)
			if err != nil {
				t.Fatalf("%s: BoundAll: %v", name, err)
			}
			if len(got) != len(ps) {
				t.Fatalf("%s: BoundAll returned %d certificates for %d vectors", name, len(got), len(ps))
			}
			for i, params := range ps {
				if want := analyze.WalkProgram(pr, params, model); !sameBounds(got[i], want) {
					t.Fatalf("%s/v%d: BoundAll diverges from the walk:\nwant %+v\ngot  %+v", name, i, want, got[i])
				}
			}
		}
	}
}

// TestShapePricingMemoryIsStepSized prices the N=960 b=8 diagonal GE
// program (1.15 M messages, the largest Figure-7 cell) under five
// parameter vectors — shape, pricer and one BoundAll call — and bounds
// the bytes allocated: the shape stores nothing per message and the
// pricer lays each step out in scratch sized for the largest step.
func TestShapePricingMemoryIsStepSized(t *testing.T) {
	g, err := ge.NewGrid(960, 8)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ge.BuildProgram(g, layout.Diagonal(8, g.NB))
	if err != nil {
		t.Fatal(err)
	}
	model := cost.DefaultAnalytic()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	shape, err := analyze.NewProgramShape(pr, model)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shape.Pricer().BoundAll(envelopeParams(8)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 2 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("pricing under five vectors allocated %.1f MiB, want under %.0f MiB",
			float64(got)/(1<<20), float64(limit)/(1<<20))
	} else {
		t.Logf("pricing under five vectors allocated %.2f MiB", float64(got)/(1<<20))
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
	// One rejected vector fails the whole call, wherever it sits.
	if _, err := pricer.BoundAll([]loggp.Params{loggp.MeikoCS2(pr.P), loggp.MeikoCS2(pr.P - 1)}); err == nil {
		t.Fatal("BoundAll accepted a machine smaller than the program")
	}
}
