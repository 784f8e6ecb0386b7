package experiments

import (
	"fmt"

	"loggpsim/internal/apps"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/network"
	"loggpsim/internal/predictor"
	"loggpsim/internal/sensitivity"
	"loggpsim/internal/stats"
	"loggpsim/internal/sweep"
)

// AblationTable predicts one reference workload — the GE at the given
// block size on the diagonal layout — under every model variant the
// repository implements, so the design choices DESIGN.md §5 calls out
// can be compared side by side.
func AblationTable(cfg Config, b int) (*stats.Table, error) {
	g, err := ge.NewGrid(cfg.N, b)
	if err != nil {
		return nil, err
	}
	lay := layout.Diagonal(cfg.P, g.NB)
	pr, err := ge.BuildProgram(g, lay)
	if err != nil {
		return nil, err
	}
	base := predictor.Config{Params: cfg.Params, Cost: cfg.Model, Seed: cfg.Seed, Ctx: cfg.Ctx}

	type variant struct {
		name string
		mk   func() (predictor.Config, error)
	}
	variants := []variant{
		{"baseline (paper)", func() (predictor.Config, error) { return base, nil }},
		{"send priority", func() (predictor.Config, error) {
			c := base
			c.SendPriority = true
			return c, nil
		}},
		{"global-order scheduler", func() (predictor.Config, error) {
			c := base
			c.GlobalOrder = true
			return c, nil
		}},
		{"no cross-type gaps", func() (predictor.Config, error) {
			c := base
			c.Params.NoCrossGap = true
			return c, nil
		}},
		{"plain LogP (G=0)", func() (predictor.Config, error) {
			c := base
			c.Params.G = 0
			return c, nil
		}},
		{"LogGPS rendezvous (S=8KiB)", func() (predictor.Config, error) {
			c := base
			c.Params.S = 8 << 10
			return c, nil
		}},
		{"overlapping steps", func() (predictor.Config, error) {
			c := base
			c.Overlap = true
			return c, nil
		}},
		{"cache-aware predictor", func() (predictor.Config, error) {
			c := base
			c.CacheBytes = 1 << 20
			c.MissFixed = 0.5
			c.MissPerByte = 0.005
			return c, nil
		}},
		{"ring contention fabric", func() (predictor.Config, error) {
			topo, err := network.NewRing(cfg.P)
			if err != nil {
				return predictor.Config{}, err
			}
			f, err := network.NewFabric(topo, cfg.Params.L/3, cfg.Params.G)
			if err != nil {
				return predictor.Config{}, err
			}
			c := base
			c.Network = f
			return c, nil
		}},
		{"mesh contention fabric", func() (predictor.Config, error) {
			r, cgrid := apps.GridShape(cfg.P)
			topo, err := network.NewMesh(r, cgrid)
			if err != nil {
				return predictor.Config{}, err
			}
			f, err := network.NewFabric(topo, cfg.Params.L/3, cfg.Params.G)
			if err != nil {
				return predictor.Config{}, err
			}
			c := base
			c.Network = f
			return c, nil
		}},
	}

	// Every variant predicts the same read-only program with its own
	// evaluator (and, where applicable, its own contention fabric), so the
	// variants fan out; the rows are assembled serially from the ordered
	// results, with the baseline at index 0.
	totals, err := sweep.Map(cfg.Ctx, cfg.Workers, variants, func(_ int, v variant) (float64, error) {
		pc, err := v.mk()
		if err != nil {
			return 0, fmt.Errorf("experiments: variant %q: %w", v.name, err)
		}
		p, err := predictor.Predict(pr, pc)
		if err != nil {
			return 0, fmt.Errorf("experiments: variant %q: %w", v.name, err)
		}
		return p.Total, nil
	})
	if err != nil {
		return nil, err
	}
	baseline := totals[0]
	tab := stats.NewTable("variant", "predicted(s)", "vs baseline")
	for i, v := range variants {
		tab.AddRow(v.name, totals[i]*secPerMicro, fmt.Sprintf("%+.1f%%", 100*(totals[i]-baseline)/baseline))
	}
	return tab, nil
}

// SensitivityTable reports, per block size, the elasticity of the GE
// prediction to each LogGP parameter — where the bottleneck sits as the
// granularity changes. The rows fan out over cfg.Workers goroutines (one
// independent program build plus five predictions per row).
func SensitivityTable(cfg Config) (*stats.Table, error) {
	var usable []int
	for _, b := range cfg.Sizes {
		if cfg.N%b == 0 {
			usable = append(usable, b)
		}
	}
	reports, err := sweep.Map(cfg.Ctx, cfg.Workers, usable, func(_ int, b int) (*sensitivity.Report, error) {
		g, err := ge.NewGrid(cfg.N, b)
		if err != nil {
			return nil, err
		}
		pr, err := ge.BuildProgram(g, layout.Diagonal(cfg.P, g.NB))
		if err != nil {
			return nil, err
		}
		return sensitivity.Analyze(cfg.Params, 0.1, func(p loggp.Params) (float64, error) {
			pred, err := predictor.Predict(pr, predictor.Config{Params: p, Cost: cfg.Model, Seed: cfg.Seed, Ctx: cfg.Ctx})
			if err != nil {
				return 0, err
			}
			return pred.Total, nil
		})
	})
	if err != nil {
		return nil, err
	}
	tab := stats.NewTable("block", "dT/dL", "dT/do", "dT/dg", "dT/dG", "dominant")
	for i, rep := range reports {
		tab.AddRow(usable[i], rep.PerParam[0].Value, rep.PerParam[1].Value,
			rep.PerParam[2].Value, rep.PerParam[3].Value, rep.Dominant().Param)
	}
	return tab, nil
}
