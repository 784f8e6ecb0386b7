// Command appredict predicts any bundled application — Gaussian
// elimination, Cannon multiplication, triangular solve or the Jacobi
// stencil — across block sizes and across processor counts (the scaling
// analysis the paper's introduction motivates), with optional
// overlapping-steps and cache-aware prediction modes.
//
// Usage:
//
//	appredict -app ge|cannon|trisolve|stencil [-n 960] [-b 48] [-procs 8]
//	          [-iters 10] [-blocks 8,16,...] [-scale 1,2,4,8]
//	          [-overlap] [-cache] [-csv]
//
// Cannon needs a square processor count: without -procs it runs on 4
// processors, the largest square count not above the default 8; an
// explicit -procs is used as given.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"loggpsim/internal/apps"
	"loggpsim/internal/cost"
	"loggpsim/internal/loggp"
	"loggpsim/internal/predictor"
	"loggpsim/internal/scaling"
	"loggpsim/internal/stats"
)

func main() {
	app := flag.String("app", "ge", "application: "+strings.Join(apps.Names(), ", "))
	n := flag.Int("n", 960, "problem size")
	b := flag.Int("b", 48, "block size")
	procs := flag.Int("procs", 8, "processor count")
	iters := flag.Int("iters", 10, "stencil sweeps")
	blocks := flag.String("blocks", "", "comma-separated block sizes to sweep")
	scale := flag.String("scale", "", "comma-separated processor counts for a scaling table")
	overlap := flag.Bool("overlap", false, "use the overlapping-steps analysis")
	cacheAware := flag.Bool("cache", false, "use the cache-aware prediction")
	csv := flag.Bool("csv", false, "emit CSV")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()
	if *app == "cannon" && !flagSet("procs") {
		// Cannon runs on a square processor grid: without an explicit
		// -procs it takes the largest square count within the default.
		q := int(math.Sqrt(float64(*procs)))
		*procs = q * q
	}

	model := cost.DefaultAnalytic()
	predictCfg := func(p int) predictor.Config {
		cfg := predictor.Config{
			Params:  loggp.MeikoCS2(p),
			Cost:    model,
			Seed:    *seed,
			Overlap: *overlap,
		}
		if *cacheAware {
			cfg.CacheBytes = 1 << 20
			cfg.MissFixed = 0.5
			cfg.MissPerByte = 0.005
		}
		return cfg
	}
	predict := func(nSize, bSize, p int) (*predictor.Prediction, error) {
		pr, err := apps.Build(*app, apps.Spec{N: nSize, B: bSize, Procs: p, Iters: *iters})
		if err != nil {
			return nil, err
		}
		return predictor.Predict(pr, predictCfg(p))
	}
	emit := func(tab *stats.Table) {
		var err error
		if *csv {
			err = tab.WriteCSV(os.Stdout)
		} else {
			err = tab.WriteText(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	fmt.Printf("## %s: n=%d, P=%d (overlap=%v, cache-aware=%v)\n\n",
		*app, *n, *procs, *overlap, *cacheAware)

	if *blocks != "" {
		tab := stats.NewTable("block", "predicted(s)", "worst(s)", "comp(s)", "comm(s)")
		for _, s := range strings.Split(*blocks, ",") {
			bSize, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("bad block size %q: %w", s, err))
			}
			if *n%bSize != 0 {
				continue
			}
			p, err := predict(*n, bSize, *procs)
			if err != nil {
				fatal(err)
			}
			tab.AddRow(bSize, p.Total/1e6, p.TotalWorst/1e6, p.Comp/1e6, p.Comm/1e6)
		}
		emit(tab)
	} else {
		p, err := predict(*n, *b, *procs)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("predicted %.4gs (worst case %.4gs, comp %.4gs, comm %.4gs, %d steps)\n\n",
			p.Total/1e6, p.TotalWorst/1e6, p.Comp/1e6, p.Comm/1e6, p.Steps)
	}

	if *scale != "" {
		var ps []int
		for _, s := range strings.Split(*scale, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("bad processor count %q: %w", s, err))
			}
			ps = append(ps, p)
		}
		points, err := scaling.Sweep(ps, func(p int) (float64, error) {
			pred, err := predict(*n, *b, p)
			if err != nil {
				return 0, err
			}
			return pred.Total, nil
		})
		if err != nil {
			fatal(err)
		}
		tab := stats.NewTable("procs", "time(s)", "speedup", "efficiency")
		for _, pt := range points {
			tab.AddRow(pt.P, pt.Time/1e6, pt.Speedup, pt.Efficiency)
		}
		fmt.Println("## scaling")
		fmt.Println()
		emit(tab)
	}
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "appredict:", err)
	os.Exit(1)
}
