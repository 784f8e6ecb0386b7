// Command gepredict runs the paper's end-to-end use case: predict the
// running time of the blocked parallel Gaussian elimination for a range
// of block sizes and data layouts, report the sweep, and pick the
// optimal block size and layout from the predictions (the paper's
// "future work" search, package search).
//
// Usage:
//
//	gepredict [-n 960] [-procs 8] [-blocks 8,10,...] [-layout both|diagonal|row|col|2d]
//	          [-model analytic|measured] [-search sweep|ternary|climb]
//	          [-emulate] [-profile] [-workers 0] [-csv]
//	          [-faults drop=0.01,...] [-perturb l=0.1,...] [-samples 64]
//	          [-resume sweep.journal]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The per-block-size predictions fan out over -workers goroutines (0 =
// all CPUs); the tables and the chosen optimum are byte-identical at any
// worker count. SIGINT/SIGTERM cancel the sweep gracefully: with
// -resume, finished block sizes are already flushed to the checkpoint
// journal and a relaunch reuses them, so the final output is
// byte-identical to an uninterrupted run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"loggpsim/internal/cost"
	"loggpsim/internal/experiments"
	"loggpsim/internal/faults"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/machine"
	"loggpsim/internal/predictor"
	"loggpsim/internal/profiling"
	"loggpsim/internal/robust"
	"loggpsim/internal/search"
	"loggpsim/internal/stats"
	"loggpsim/internal/sweep"
)

func main() {
	n := flag.Int("n", 960, "matrix size")
	procs := flag.Int("procs", 8, "processor count")
	blocks := flag.String("blocks", "", "comma-separated block sizes (default: the paper's 14 sizes)")
	layoutName := flag.String("layout", "both", "layout: both, diagonal, row, col or 2d")
	modelName := flag.String("model", "analytic", "cost model: analytic, or measured (times the real kernels)")
	searchName := flag.String("search", "sweep", "optimum search: sweep, ternary or climb")
	emulate := flag.Bool("emulate", false, "also run the machine emulator for measured columns")
	profile := flag.Bool("profile", false, "print the most expensive steps of the optimal configuration")
	workers := flag.Int("workers", 0, "sweep worker goroutines (0 = all CPUs)")
	csv := flag.Bool("csv", false, "emit CSV")
	seed := flag.Int64("seed", 1, "random seed")
	faultSpec := flag.String("faults", "", "fault plan for the predictions, e.g. drop=0.01,jitter=0.1,stragglers=1")
	perturbSpec := flag.String("perturb", "", "LogGP perturbation spread for the envelope table, e.g. l=0.1,o=0.1,gap=0.1,g=0.1")
	samples := flag.Int("samples", 64, "Monte-Carlo samples per block size for the envelope table")
	resume := flag.String("resume", "", "checkpoint journal `file`: flush finished sweep cells and resume from them on relaunch")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to `file`")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to `file` on exit")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	plan, err := faults.Parse(*faultSpec)
	if err != nil {
		fatal(err)
	}
	perturb, err := robust.Parse(*perturbSpec)
	if err != nil {
		fatal(err)
	}
	var journal *sweep.Journal
	if *resume != "" {
		if journal, err = sweep.OpenJournal(*resume); err != nil {
			fatal(err)
		}
		defer journal.Close()
	}
	// bail reports err and exits; on cancellation it points at the
	// checkpoint journal holding the flushed partial results.
	bail := func(err error) {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "gepredict: interrupted")
			if journal != nil {
				fmt.Fprintf(os.Stderr, "gepredict: %d finished cells flushed to %s; relaunch with -resume %s to continue\n",
					journal.Len(), journal.Path(), journal.Path())
				journal.Close()
			}
			stopProf()
			stopSignals()
			os.Exit(130)
		}
		fatal(err)
	}

	sizes := experiments.BlockSizes
	if *blocks != "" {
		sizes = nil
		for _, s := range strings.Split(*blocks, ",") {
			b, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("bad block size %q: %w", s, err))
			}
			sizes = append(sizes, b)
		}
	}
	var usable []int
	for _, b := range sizes {
		if b > 0 && *n%b == 0 {
			usable = append(usable, b)
		}
	}
	if len(usable) == 0 {
		fatal(fmt.Errorf("no block size divides n=%d", *n))
	}

	var model cost.Model
	switch *modelName {
	case "analytic":
		model = cost.DefaultAnalytic()
	case "measured":
		fmt.Fprintln(os.Stderr, "calibrating the real kernels; this takes a moment...")
		model = cost.Measure(usable, cost.MeasureOpts{Seed: *seed})
	default:
		fatal(fmt.Errorf("unknown cost model %q", *modelName))
	}
	params := loggp.MeikoCS2(*procs)

	layouts := map[string]func(nb int) layout.Layout{
		"diagonal": func(nb int) layout.Layout { return layout.Diagonal(*procs, nb) },
		"row":      func(nb int) layout.Layout { return layout.RowCyclic(*procs) },
		"col":      func(nb int) layout.Layout { return layout.ColCyclic(*procs) },
		"2d":       func(nb int) layout.Layout { return layout.BlockCyclic2D(2, *procs/2) },
	}
	var names []string
	if *layoutName == "both" {
		names = []string{"diagonal", "row"}
	} else if _, ok := layouts[*layoutName]; ok {
		names = []string{*layoutName}
	} else {
		fatal(fmt.Errorf("unknown layout %q", *layoutName))
	}

	type sweepResult struct {
		name  string
		best  search.Result
		evals int
	}
	var winners []sweepResult
	for _, name := range names {
		mk := layouts[name]
		tab := stats.NewTable("block", "predicted(s)", "worst-case(s)", "comp(s)", "comm(s)", "measured(s)")

		// One independent prediction (plus optional emulation) per block
		// size: fan out, then emit the ordered rows. Fields are exported
		// so the checkpoint journal round-trips cells losslessly.
		type cell struct {
			Pred *predictor.Prediction `json:"pred"`
			Meas *machine.Result       `json:"meas,omitempty"`
		}
		cells, err := sweep.MapResume(ctx, *workers, journal, "gepredict/"+name, usable, func(_ int, b int) (cell, error) {
			g, err := ge.NewGrid(*n, b)
			if err != nil {
				return cell{}, err
			}
			lay := mk(g.NB)
			pr, err := ge.BuildProgram(g, lay)
			if err != nil {
				return cell{}, err
			}
			var c cell
			if c.Pred, err = predictor.Predict(pr, predictor.Config{Params: params, Cost: model, Seed: *seed, Faults: plan, Ctx: ctx}); err != nil {
				return cell{}, err
			}
			if *emulate {
				mcfg := machine.Default(params, model)
				mcfg.Seed = *seed
				mcfg.AssignedBlocks = layout.BlockCounts(lay, g.NB)
				if c.Meas, err = machine.Run(pr, mcfg); err != nil {
					return cell{}, err
				}
			}
			return c, nil
		})
		if err != nil {
			bail(err)
		}
		// The cells hold every candidate's prediction, so the optimum
		// search below reads them instead of predicting again.
		predicted := make(map[int]float64, len(usable))
		for i, b := range usable {
			measured := "-"
			if cells[i].Meas != nil {
				measured = fmt.Sprintf("%.4g", cells[i].Meas.Total/1e6)
			}
			p := cells[i].Pred
			tab.AddRow(b, p.Total/1e6, p.TotalWorst/1e6, p.Comp/1e6, p.Comm/1e6, measured)
			predicted[b] = p.Total
		}
		fmt.Printf("## %s mapping, n=%d, P=%d, %s cost model\n\n", name, *n, *procs, *modelName)
		if *csv {
			err = tab.WriteCSV(os.Stdout)
		} else {
			err = tab.WriteText(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}

		if perturb.Enabled() || plan.Enabled() {
			envs, err := robust.Run(robust.Config{
				N: *n, P: *procs, Sizes: usable,
				Params: params, Model: model, Layout: mk,
				Samples: *samples, Seed: *seed,
				Perturb: perturb, Faults: plan,
				Workers: *workers, Journal: journal, Ctx: ctx,
				Scope: "envelope/" + name,
			})
			if err != nil {
				bail(err)
			}
			etab := robust.Table(envs)
			fmt.Printf("\n## %s mapping: prediction envelope over %d samples (s)\n\n", name, *samples)
			if *csv {
				err = etab.WriteCSV(os.Stdout)
			} else {
				err = etab.WriteText(os.Stdout)
			}
			if err != nil {
				fatal(err)
			}
		}

		objective := func(b int) (float64, error) { return predicted[b], nil }
		var best search.Result
		var err2 error
		switch *searchName {
		case "sweep":
			best, err2 = search.SweepParallel(usable, objective, *workers)
		case "ternary":
			best, err2 = search.Ternary(usable, objective)
		case "climb":
			best, err2 = search.HillClimb(usable, objective, len(usable)/2)
		default:
			fatal(fmt.Errorf("unknown search %q", *searchName))
		}
		if err2 != nil {
			fatal(err2)
		}
		fmt.Printf("\n%s search: optimal block size %d (predicted %.4gs, %d evaluations)\n\n",
			*searchName, best.Best, best.Value/1e6, best.Evaluations)
		winners = append(winners, sweepResult{name: name, best: best})

		if *profile {
			g, err := ge.NewGrid(*n, best.Best)
			if err != nil {
				fatal(err)
			}
			pr, err := ge.BuildProgram(g, mk(g.NB))
			if err != nil {
				fatal(err)
			}
			pred, err := predictor.Predict(pr, predictor.Config{
				Params: params, Cost: model, Seed: *seed, CollectSteps: true,
			})
			if err != nil {
				fatal(err)
			}
			type hot struct {
				idx   int
				delta float64
			}
			hots := make([]hot, len(pred.PerStep))
			prev := 0.0
			for i, sp := range pred.PerStep {
				hots[i] = hot{idx: i, delta: sp.Finish - prev}
				prev = sp.Finish
			}
			sort.Slice(hots, func(a, b int) bool { return hots[a].delta > hots[b].delta })
			top := 5
			if len(hots) < top {
				top = len(hots)
			}
			fmt.Printf("hottest steps at b=%d (of %d):\n", best.Best, len(pred.PerStep))
			for _, h := range hots[:top] {
				sp := pred.PerStep[h.idx]
				fmt.Printf("  wave %4d: +%.4gms (comp %.4gms, comm advance %.4gms)\n",
					h.idx, h.delta/1e3, sp.Comp/1e3, sp.CommAdvance/1e3)
			}
			fmt.Println()
		}
	}

	if len(winners) > 1 {
		bestIdx, _, err := search.Argmin(len(winners), func(i int) (float64, error) {
			return winners[i].best.Value, nil
		})
		if err != nil {
			fatal(err)
		}
		w := winners[bestIdx]
		fmt.Printf("overall recommendation: %s mapping with %d×%d blocks (predicted %.4gs)\n",
			w.name, w.best.Best, w.best.Best, w.best.Value/1e6)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gepredict:", err)
	os.Exit(1)
}
