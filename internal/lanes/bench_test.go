package lanes_test

// Engine micro-benchmarks on the Figure-7 programs (960x960, P=8):
// they isolate the lockstep scheduler cores from the rest of the
// sweep and envelope pipelines for optimization work.

import (
	"fmt"
	"testing"

	"loggpsim/internal/cost"
	"loggpsim/internal/experiments"
	"loggpsim/internal/ge"
	"loggpsim/internal/lanes"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
)

func BenchmarkEngineFigure7B8(b *testing.B) {
	g, err := ge.NewGrid(960, 8)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := ge.BuildProgram(g, layout.Diagonal(8, g.NB))
	if err != nil {
		b.Fatal(err)
	}
	ls := make([]lanes.Lane, 64)
	for i := range ls {
		m := loggp.MeikoCS2(8)
		m.L *= 1 + 0.001*float64(i)
		ls[i] = lanes.Lane{Params: m, Seed: int64(i + 1)}
	}
	var eng lanes.Engine
	cfg := lanes.Config{Cost: cost.DefaultAnalytic()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(pr, cfg, ls); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineFigure7 replays Figure-7 programs (N=960, P=8, the 14
// block sizes) on one reused engine; one op is one pass over them.
// lanes1 runs one Meiko CS-2 lane over the 28 programs of both layouts,
// the load the sweep's predictor puts on the engine. lanes5 runs five
// lanes over the 14 diagonal programs, four with L, o, g and G scaled
// apart and one nominal, the load of the Figure-7 envelope (four
// samples and its nominal point). Run by `make bench`.
func BenchmarkEngineFigure7(b *testing.B) {
	cfg := experiments.Default()
	var diag, all []*program.Program
	for _, blk := range cfg.Sizes {
		g, err := ge.NewGrid(cfg.N, blk)
		if err != nil {
			b.Fatal(err)
		}
		for i, lay := range cfg.Layouts(g.NB) {
			pr, err := ge.BuildProgram(g, lay)
			if err != nil {
				b.Fatal(err)
			}
			all = append(all, pr)
			if i == 0 {
				diag = append(diag, pr)
			}
		}
	}
	nominal := lanes.Lane{Params: cfg.Params, Seed: cfg.Seed}
	five := []lanes.Lane{nominal}
	for s := 1; s < 5; s++ {
		m := cfg.Params
		f := 1 + 0.04*float64(s-2)
		m.L, m.O, m.Gap, m.G = m.L*f, m.O*(2-f), m.Gap*f, m.G*(2-f)
		five = append(five, lanes.Lane{Params: m, Seed: cfg.Seed + int64(s)})
	}
	for _, bc := range []struct {
		name  string
		progs []*program.Program
		ls    []lanes.Lane
	}{
		{"lanes1", all, []lanes.Lane{nominal}},
		{"lanes5", diag, five},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var eng lanes.Engine
			lcfg := lanes.Config{Cost: cfg.Model}
			out := make([]lanes.Result, len(bc.ls))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, pr := range bc.progs {
					res, err := eng.RunInto(out, pr, lcfg, bc.ls)
					if err != nil {
						b.Fatal(err)
					}
					for l, r := range res {
						if r.Err != nil {
							b.Fatal(fmt.Errorf("lane %d: %w", l, r.Err))
						}
					}
				}
			}
		})
	}
}
