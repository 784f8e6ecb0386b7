// Command commviz renders the send/receive timelines the simulators
// produce for a communication pattern, as ASCII Gantt charts like the
// paper's Figures 4 and 5.
//
// Usage:
//
//	commviz [-pattern figure3|ring|alltoall|gather|scatter|random|hypercube] [-file pattern.json]
//	        [-alg standard|worstcase|both] [-procs 10] [-bytes 112]
//	        [-L 9] [-o 2] [-g 16] [-G 0.005] [-width 100] [-list] [-seed 1]
//	        [-trace out.json] [-svg out.svg]
package main

import (
	"flag"
	"fmt"
	"os"

	"loggpsim/internal/loggp"
	"loggpsim/internal/sim"
	"loggpsim/internal/timeline"
	"loggpsim/internal/trace"
	"loggpsim/internal/worstcase"
)

func main() {
	patternName := flag.String("pattern", "figure3", "built-in pattern: figure3, ring, alltoall, gather, scatter, random, hypercube")
	file := flag.String("file", "", "JSON pattern file (overrides -pattern)")
	alg := flag.String("alg", "both", "algorithm: standard, worstcase or both")
	procs := flag.Int("procs", 10, "processors for generated patterns")
	bytes := flag.Int("bytes", trace.Figure3MessageBytes, "message size for generated patterns")
	lFlag := flag.Float64("L", 9, "LogGP latency L (µs)")
	oFlag := flag.Float64("o", 2, "LogGP overhead o (µs)")
	gFlag := flag.Float64("g", 16, "LogGP gap g (µs)")
	gbFlag := flag.Float64("G", 0.005, "LogGP gap per byte G (µs/B)")
	width := flag.Int("width", 100, "chart width in characters")
	list := flag.Bool("list", false, "also print the operation table")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the standard run to this file")
	svgOut := flag.String("svg", "", "write an SVG rendering of the standard run to this file")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()
	switch *alg {
	case "standard", "worstcase", "both":
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *alg))
	}

	pt, err := loadPattern(*file, *patternName, *procs, *bytes, *seed)
	if err != nil {
		fatal(err)
	}
	params := loggp.Params{L: *lFlag, O: *oFlag, Gap: *gFlag, G: *gbFlag, P: pt.P}

	show := func(title string, tl *timeline.Timeline, finish float64) {
		fmt.Printf("%s on %s — completes at %.3fµs\n\n", title, pt, finish)
		fmt.Print(timeline.Gantt(tl, params, *width))
		if *list {
			fmt.Println()
			fmt.Print(timeline.List(tl, params))
		}
		fmt.Println()
	}

	if *alg == "standard" || *alg == "both" {
		r, err := sim.Run(pt, sim.Config{Params: params, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		show("standard algorithm (Figure 4)", r.Timeline, r.Finish)
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			if err := timeline.WriteChromeTrace(f, r.Timeline, params); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote Chrome trace to %s (open in chrome://tracing)\n\n", *traceOut)
		}
		if *svgOut != "" {
			f, err := os.Create(*svgOut)
			if err != nil {
				fatal(err)
			}
			if err := timeline.WriteSVG(f, r.Timeline, params, 900); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote SVG to %s\n\n", *svgOut)
		}
	}
	if *alg == "worstcase" || *alg == "both" {
		r, err := worstcase.Run(pt, worstcase.Config{Params: params, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		if r.DeadlocksBroken > 0 {
			fmt.Printf("(broke %d deadlocks on the cyclic pattern)\n", r.DeadlocksBroken)
		}
		show("overestimation algorithm (Figure 5)", r.Timeline, r.Finish)
	}
}

func loadPattern(file, name string, procs, bytes int, seed int64) (*trace.Pattern, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Decode(f)
	}
	return trace.Builtin(name, procs, bytes, seed)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "commviz:", err)
	os.Exit(1)
}
