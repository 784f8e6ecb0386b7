package analyze_test

// Satellite property test: the static certificates must sandwich the
// event-driven schedulers —
//
//	Lower ≤ sim ≤ worstcase ≤ Upper
//
// across the differential corpus, the machine grid, seeds, and every
// ablation mode. The corpus and grid mirror the sched_diff tests'
// (unexported there), so the certificates are exercised on exactly the
// shapes the schedulers are cross-validated on.

import (
	"fmt"
	"reflect"
	"testing"

	"loggpsim/internal/analyze"
	"loggpsim/internal/cost"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/predictor"
	"loggpsim/internal/program"
	"loggpsim/internal/sim"
	"loggpsim/internal/stencil"
	"loggpsim/internal/trace"
	"loggpsim/internal/trisolve"
	"loggpsim/internal/worstcase"
)

func boundParams(p int) []loggp.Params {
	return []loggp.Params{
		{L: 9, O: 2, Gap: 16, G: 0.07, P: p},
		{L: 1, O: 1, Gap: 40, G: 0.5, P: p},
		{L: 25, O: 12, Gap: 3, G: 0, P: p, NoCrossGap: true},
		{L: 9, O: 2, Gap: 16, G: 0.07, P: p, S: 256},
	}
}

func boundCorpus() map[string]*trace.Pattern {
	withSelf := trace.Random(9, 40, 2048, 5)
	withSelf.AddLocal(3, 100)
	withSelf.AddLocal(7, 1)
	return map[string]*trace.Pattern{
		"figure3":   trace.Figure3(),
		"ring":      trace.Ring(16, 112),
		"shift":     trace.Shift(12, 5, 300),
		"alltoall":  trace.AllToAll(12, 64),
		"butterfly": trace.Butterfly(4, 512),
		"gather":    trace.Gather(10, 0, 1024),
		"scatter":   trace.Scatter(10, 3, 1024),
		"random":    trace.Random(13, 80, 4096, 11),
		"randomdag": trace.RandomDAG(11, 60, 2048, 7),
		"selfmsg":   withSelf,
		"localonly": trace.New(4).AddLocal(0, 64).AddLocal(3, 1),
		"empty":     trace.New(6),
	}
}

// eps absorbs the different floating-point summation orders of the
// certificates and the schedulers; the bounds are exact in reals.
const eps = 1e-6

func TestBoundsSandwichSimulators(t *testing.T) {
	for name, pt := range boundCorpus() {
		for pi, params := range boundParams(pt.P) {
			b, err := analyze.PatternBounds(pt, params)
			if err != nil {
				t.Fatalf("%s/m%d: PatternBounds: %v", name, pi, err)
			}
			if want := analyze.WalkPattern(pt, params); !reflect.DeepEqual(b, want) {
				t.Fatalf("%s/m%d: PatternBounds diverge from the walk:\nwant %+v\ngot  %+v", name, pi, want, b)
			}
			lb, ub := b.Lower, b.Upper
			if lb > ub+eps {
				t.Fatalf("%s/m%d: lower %v > upper %v", name, pi, lb, ub)
			}
			for seed := int64(0); seed < 4; seed++ {
				worst, err := worstcase.Run(pt, worstcase.Config{Params: params, Seed: seed, NoTimeline: true})
				if err != nil {
					t.Fatalf("%s/m%d/s%d: worstcase: %v", name, pi, seed, err)
				}
				if worst.Finish > ub+eps {
					t.Errorf("%s/m%d/s%d: worstcase %v above upper bound %v",
						name, pi, seed, worst.Finish, ub)
				}
				for _, mode := range []struct {
					name         string
					sendPriority bool
					globalOrder  bool
				}{
					{"paper", false, false},
					{"sendpri", true, false},
					{"globalorder", false, true},
					{"globalorder_sendpri", true, true},
				} {
					std, err := sim.Run(pt, sim.Config{
						Params: params, Seed: seed,
						SendPriority: mode.sendPriority, GlobalOrder: mode.globalOrder,
						NoTimeline: true,
					})
					if err != nil {
						t.Fatalf("%s/m%d/s%d/%s: sim: %v", name, pi, seed, mode.name, err)
					}
					if std.Finish < lb-eps {
						t.Errorf("%s/m%d/s%d/%s: sim %v below lower bound %v",
							name, pi, seed, mode.name, std.Finish, lb)
					}
					// On a single communication step the overestimation
					// algorithm upper-bounds the standard one (Section 4.2),
					// closing the chain lb ≤ sim ≤ worst ≤ ub.
					if std.Finish > worst.Finish+eps {
						t.Errorf("%s/m%d/s%d/%s: sim %v above worstcase %v",
							name, pi, seed, mode.name, std.Finish, worst.Finish)
					}
					if std.Finish > ub+eps {
						t.Errorf("%s/m%d/s%d/%s: sim %v above upper bound %v",
							name, pi, seed, mode.name, std.Finish, ub)
					}
				}
			}
		}
	}
}

// boundPrograms builds the multi-step application programs the program
// certificate is checked on: Gaussian elimination on both paper layouts,
// the triangular solve, and the Jacobi stencil.
func boundPrograms(t *testing.T) map[string]*program.Program {
	t.Helper()
	out := map[string]*program.Program{}
	geGrid, err := ge.NewGrid(192, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, lay := range []layout.Layout{layout.Diagonal(4, geGrid.NB), layout.RowCyclic(4)} {
		pr, err := ge.BuildProgram(geGrid, lay)
		if err != nil {
			t.Fatal(err)
		}
		out["ge/"+lay.Name()] = pr
	}
	triGrid, err := trisolve.NewGrid(96, 8)
	if err != nil {
		t.Fatal(err)
	}
	tri, err := trisolve.BuildProgram(triGrid, layout.RowCyclic(3))
	if err != nil {
		t.Fatal(err)
	}
	out["trisolve"] = tri
	stGrid, err := stencil.NewGrid(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := stencil.BuildProgram(stGrid, 3, layout.BlockCyclic2D(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	out["stencil"] = st
	return out
}

func TestBoundProgramSandwichesPredictor(t *testing.T) {
	model := cost.DefaultAnalytic()
	for name, pr := range boundPrograms(t) {
		machines := append(boundParams(pr.P), loggp.MeikoCS2(pr.P))
		for pi, params := range machines {
			b, err := analyze.BoundProgram(pr, params, model)
			if err != nil {
				t.Fatalf("%s/m%d: BoundProgram: %v", name, pi, err)
			}
			if len(b.PerStep) != len(pr.Steps) {
				t.Fatalf("%s/m%d: %d per-step bounds for %d steps", name, pi, len(b.PerStep), len(pr.Steps))
			}
			for si := 1; si < len(b.PerStep); si++ {
				if b.PerStep[si].Lower < b.PerStep[si-1].Lower-eps {
					t.Fatalf("%s/m%d: step %d lower bound regressed", name, pi, si)
				}
			}
			for seed := int64(0); seed < 3; seed++ {
				pred, err := predictor.Predict(pr, predictor.Config{Params: params, Cost: model, Seed: seed})
				if err != nil {
					t.Fatalf("%s/m%d/s%d: predict: %v", name, pi, seed, err)
				}
				// Across chained steps the worst-case schedule can dip
				// below the standard one (see predictor.Prediction), so
				// sandwich both runs individually.
				lo := min(pred.Total, pred.TotalWorst)
				hi := max(pred.Total, pred.TotalWorst)
				if lo < b.Lower-eps {
					t.Errorf("%s/m%d/s%d: prediction %v below lower bound %v", name, pi, seed, lo, b.Lower)
				}
				if hi > b.Upper+eps {
					t.Errorf("%s/m%d/s%d: prediction %v above upper bound %v", name, pi, seed, hi, b.Upper)
				}
			}
		}
	}
}

func TestBoundsRejectInvalidInput(t *testing.T) {
	good := trace.Ring(4, 64)
	params := loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 4}
	if _, err := analyze.PatternBounds(trace.New(3).Add(0, 0, 8), params); err == nil {
		t.Fatal("undeclared self message accepted")
	}
	if _, err := analyze.PatternBounds(good, loggp.Params{P: 0}); err == nil {
		t.Fatal("invalid machine accepted")
	}
	if _, err := analyze.PatternBounds(trace.Ring(8, 64), params); err == nil {
		t.Fatal("pattern wider than machine accepted")
	}
	if _, err := analyze.BoundProgram(program.New(2), params, nil); err == nil {
		t.Fatal("nil cost model accepted")
	}
}

func ExamplePatternBounds() {
	pt := trace.Figure3()
	params := loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: pt.P}
	b, _ := analyze.PatternBounds(pt, params)
	std, _ := sim.Run(pt, sim.Config{Params: params})
	fmt.Printf("lower %.2f <= sim %.2f <= upper %.2f\n", b.Lower, std.Finish, b.Upper)
	// Output: lower 50.00 <= sim 50.00 <= upper 536.47
}
