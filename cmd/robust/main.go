// Command robust emits the Figure-7 sweep as a fault-aware Monte-Carlo
// prediction envelope: for every block size it samples N perturbed
// LogGP parameter vectors and independently seeded fault plans, runs
// the full prediction for each, and tabulates the p5/p50/p95 quantiles
// alongside the nominal prediction and the static bound certificate
// (every sample is checked against the certificate of its own
// perturbed parameters; see internal/robust).
//
// Usage:
//
//	robust [-n 960] [-procs 8] [-blocks 8,10,...] [-layout diagonal|row|col|2d]
//	       [-samples 64] [-seed 1] [-workers 0] [-csv]
//	       [-perturb l=0.1,o=0.1,gap=0.1,g=0.1]
//	       [-faults drop=0.01,rto=50,jitter=0.1,stragglers=1,degrade=0:500:2:1.5]
//	       [-resume sweep.journal]
//	       [-cpuprofile cpu.out] [-memprofile mem.out]
//
// Envelopes run through the lockstep lane engine (internal/lanes);
// -cpuprofile/-memprofile profile it.
//
// The sweep is byte-identical at any worker count. SIGINT/SIGTERM
// cancel it gracefully, a running envelope within one program step;
// with -resume, finished block sizes are flushed to the checkpoint
// journal and a relaunch reuses them, producing byte-identical final
// output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"loggpsim/internal/cost"
	"loggpsim/internal/experiments"
	"loggpsim/internal/faults"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/profiling"
	"loggpsim/internal/robust"
	"loggpsim/internal/sweep"
)

func main() {
	n := flag.Int("n", 960, "matrix size")
	procs := flag.Int("procs", 8, "processor count")
	blocks := flag.String("blocks", "", "comma-separated block sizes (default: the paper's 14 sizes)")
	layoutName := flag.String("layout", "diagonal", "layout: diagonal, row, col or 2d")
	samples := flag.Int("samples", 64, "Monte-Carlo samples per block size")
	seed := flag.Int64("seed", 1, "base seed; per-sample seeds derive from it")
	workers := flag.Int("workers", 0, "sweep worker goroutines (0 = all CPUs)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	perturbSpec := flag.String("perturb", "", "LogGP perturbation spread, e.g. l=0.1,o=0.1,gap=0.1,g=0.1")
	faultSpec := flag.String("faults", "", "fault plan template, e.g. drop=0.01,jitter=0.1,stragglers=1")
	resume := flag.String("resume", "", "checkpoint journal `file`: flush finished block sizes and resume from them on relaunch")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile to `file` on exit")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	perturb, err := robust.Parse(*perturbSpec)
	if err != nil {
		fatal(err)
	}
	plan, err := faults.Parse(*faultSpec)
	if err != nil {
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
	layouts := map[string]func(nb int) layout.Layout{
		"diagonal": func(nb int) layout.Layout { return layout.Diagonal(*procs, nb) },
		"row":      func(nb int) layout.Layout { return layout.RowCyclic(*procs) },
		"col":      func(nb int) layout.Layout { return layout.ColCyclic(*procs) },
		"2d":       func(nb int) layout.Layout { return layout.BlockCyclic2D(2, *procs/2) },
	}
	mk, ok := layouts[*layoutName]
	if !ok {
		fatal(fmt.Errorf("unknown layout %q", *layoutName))
	}

	var journal *sweep.Journal
	if *resume != "" {
		if journal, err = sweep.OpenJournal(*resume); err != nil {
			fatal(err)
		}
		defer journal.Close()
	}

	envs, err := robust.Run(robust.Config{
		N: *n, P: *procs, Sizes: sizes,
		Params: loggp.MeikoCS2(*procs), Model: cost.DefaultAnalytic(), Layout: mk,
		Samples: *samples, Seed: *seed,
		Perturb: perturb, Faults: plan,
		Workers: *workers, Journal: journal, Ctx: ctx,
		Scope: "robust/" + *layoutName,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "robust: interrupted")
			if journal != nil {
				fmt.Fprintf(os.Stderr, "robust: %d finished block sizes flushed to %s; relaunch with -resume %s to continue\n",
					journal.Len(), journal.Path(), journal.Path())
				journal.Close()
			}
			stopProfiles()
			stopSignals()
			os.Exit(130)
		}
		fatal(err)
	}

	fmt.Printf("## Figure 7 envelope: predicted total (s) over %d samples, %s mapping, n=%d, P=%d\n",
		*samples, *layoutName, *n, *procs)
	if *perturbSpec != "" {
		fmt.Printf("## perturbation: %s\n", *perturbSpec)
	}
	if *faultSpec != "" {
		fmt.Printf("## faults: %s\n", *faultSpec)
	}
	fmt.Println()
	tab := robust.Table(envs)
	if *csv {
		err = tab.WriteCSV(os.Stdout)
	} else {
		err = tab.WriteText(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "robust:", err)
	os.Exit(1)
}
