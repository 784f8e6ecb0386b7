// Command experiments regenerates every figure of the paper's evaluation
// section (Figures 3–9) and checks the paper's qualitative claims
// against the generated data. It is the source of the numbers recorded
// in EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-fig all|3|4|5|6|7|8|9] [-claims] [-ablations] [-sensitivity]
//	            [-n 960] [-procs 8] [-workers 0] [-csv]
//	            [-faults drop=0.01,...] [-perturb l=0.1,...] [-samples 64]
//	            [-resume sweep.journal]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The sweeps fan out over -workers goroutines (0 = all CPUs); the output
// is byte-identical at any worker count. SIGINT/SIGTERM cancel the
// sweeps gracefully: with -resume, finished block sizes are already
// flushed to the checkpoint journal, and relaunching the same command
// reuses them, producing byte-identical final output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"loggpsim/internal/experiments"
	"loggpsim/internal/faults"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/profiling"
	"loggpsim/internal/robust"
	"loggpsim/internal/stats"
	"loggpsim/internal/sweep"
	"loggpsim/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 3, 4, 5, 6, 7, 8 or 9")
	claims := flag.Bool("claims", false, "check the paper's qualitative claims on the sweep")
	ablations := flag.Bool("ablations", false, "print the model-variant ablation table")
	sensitivities := flag.Bool("sensitivity", false, "print the LogGP-parameter sensitivity table")
	n := flag.Int("n", 960, "matrix size")
	procs := flag.Int("procs", 8, "processor count")
	workers := flag.Int("workers", 0, "sweep worker goroutines (0 = all CPUs)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	width := flag.Int("width", 100, "gantt chart width for figures 4 and 5")
	seed := flag.Int64("seed", 1, "seed for all randomized components")
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

	cfg := experiments.Default()
	cfg.N = *n
	cfg.P = *procs
	cfg.Params = loggp.MeikoCS2(*procs)
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Ctx = ctx
	if cfg.Faults, err = faults.Parse(*faultSpec); err != nil {
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
		cfg.Journal = journal
	}
	// bail reports err and exits; on cancellation it points at the
	// checkpoint journal holding the flushed partial results.
	bail := func(err error) {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "experiments: interrupted")
			if journal != nil {
				fmt.Fprintf(os.Stderr, "experiments: %d finished cells flushed to %s; relaunch with -resume %s to continue\n",
					journal.Len(), journal.Path(), journal.Path())
				journal.Close()
			}
			stopProf()
			stopSignals()
			os.Exit(130)
		}
		fatal(err)
	}

	emit := func(title string, t *stats.Table) {
		fmt.Printf("## %s\n\n", title)
		var err error
		if *csv {
			err = t.WriteCSV(os.Stdout)
		} else {
			err = t.WriteText(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	want := func(f string) bool { return *fig == "all" || *fig == f }

	if want("3") {
		pt := trace.Figure3()
		fmt.Printf("## Figure 3: sample communication pattern (%s)\n\n", pt)
		for _, m := range pt.Msgs {
			fmt.Printf("  P%d -> P%d  (%d bytes)\n", m.Src+1, m.Dst+1, m.Bytes)
		}
		fmt.Println()
	}
	// The sample pattern of Figures 3-5 involves ten processors
	// regardless of the sweep's processor count.
	figParams := loggp.MeikoCS2(10)
	if want("4") {
		chart, finish, err := experiments.Figure4(figParams, *width)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("## Figure 4: standard algorithm on the sample pattern (completes at %.3fµs)\n\n%s\n", finish, chart)
	}
	if want("5") {
		chart, finish, err := experiments.Figure5(figParams, *width)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("## Figure 5: overestimation algorithm on the sample pattern (completes at %.3fµs)\n\n%s\n", finish, chart)
	}
	if want("6") {
		emit("Figure 6: basic operation running time (µs) vs block size",
			experiments.Figure6Table(cfg.Model, cfg.Sizes))
	}

	if *ablations {
		tab, err := experiments.AblationTable(cfg, 24)
		if err != nil {
			bail(err)
		}
		emit("Ablations: GE b=24 under every model variant", tab)
	}
	if *sensitivities {
		tab, err := experiments.SensitivityTable(cfg)
		if err != nil {
			bail(err)
		}
		emit("Sensitivity: elasticity of the GE prediction to each LogGP parameter", tab)
	}

	envelopes := perturb.Enabled() || cfg.Faults.Enabled()
	needSweep := want("7") || want("8") || want("9") || *claims
	var byLayout map[string][]experiments.Point
	if needSweep {
		if byLayout, err = experiments.RunBothLayouts(cfg); err != nil {
			bail(err)
		}
	}
	for _, name := range []string{"diagonal", "row-cyclic"} {
		pts, ok := byLayout[name]
		if !ok {
			continue
		}
		if want("7") {
			emit(fmt.Sprintf("Figure 7: total running time (s), %s mapping", name),
				experiments.Figure7Table(pts))
		}
		if want("8") {
			emit(fmt.Sprintf("Figure 8: communication time (s), %s mapping", name),
				experiments.Figure8Table(pts))
		}
		if want("9") {
			emit(fmt.Sprintf("Figure 9: computation time (s), %s mapping", name),
				experiments.Figure9Table(pts))
		}
	}
	if envelopes {
		// Monte-Carlo envelope of the Figure-7 prediction under the
		// requested parameter perturbation and fault plan.
		for _, lay := range []struct {
			name string
			mk   func(nb int) layout.Layout
		}{
			{"diagonal", func(nb int) layout.Layout { return layout.Diagonal(cfg.P, nb) }},
			{"row-cyclic", func(nb int) layout.Layout { return layout.RowCyclic(cfg.P) }},
		} {
			envs, err := robust.Run(robust.Config{
				N: cfg.N, P: cfg.P, Sizes: cfg.Sizes,
				Params: cfg.Params, Model: cfg.Model, Layout: lay.mk,
				Samples: *samples, Seed: cfg.Seed,
				Perturb: perturb, Faults: cfg.Faults,
				Workers: cfg.Workers, Journal: journal, Ctx: cfg.Ctx,
				Scope: "envelope/" + lay.name,
			})
			if err != nil {
				bail(err)
			}
			emit(fmt.Sprintf("Figure 7 envelope: predicted total (s) over %d samples, %s mapping", *samples, lay.name),
				robust.Table(envs))
		}
	}
	if *claims {
		fmt.Println("## Paper claims (Section 6.3)")
		fmt.Println()
		failed := 0
		for _, c := range experiments.CheckClaims(byLayout) {
			status := "PASS"
			if !c.Pass {
				status = "FAIL"
				failed++
			}
			fmt.Printf("  [%s] %-58s %s\n", status, c.Name, c.Detail)
		}
		if failed > 0 {
			stopProf()
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
