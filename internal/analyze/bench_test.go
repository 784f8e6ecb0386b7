package analyze_test

// Certificate benchmarks on fixed inputs. "corpus" is the GE shape set
// of loadgen.Corpus's analyze branch — the programs predictd's analyze
// mode certifies — and "fig7" is the paper's Figure-7 sweep (N=960,
// P=8, every block size), the programs whose envelopes fig7 prices.
// Each iteration certifies the whole set. Run by `make bench`; the
// recorded numbers live in EXPERIMENTS.md.

import (
	"testing"

	"loggpsim/internal/analyze"
	"loggpsim/internal/cost"
	"loggpsim/internal/experiments"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
)

// benchGE builds the diagonal-layout GE program for n, b and p.
func benchGE(b *testing.B, n, blk, p int) *program.Program {
	b.Helper()
	grid, err := ge.NewGrid(n, blk)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := ge.BuildProgram(grid, layout.Diagonal(p, grid.NB))
	if err != nil {
		b.Fatal(err)
	}
	return pr
}

// analyzeCorpus returns loadgen.Corpus's analyze shapes: P ∈ {2,4,8},
// b ∈ {8,12,16,24}, n = b·{16,24,32,40}, diagonal layout.
func analyzeCorpus(b *testing.B) []*program.Program {
	var out []*program.Program
	for _, p := range []int{2, 4, 8} {
		for _, blk := range []int{8, 12, 16, 24} {
			for _, m := range []int{16, 24, 32, 40} {
				out = append(out, benchGE(b, blk*m, blk, p))
			}
		}
	}
	return out
}

func fig7Programs(b *testing.B) []*program.Program {
	out := make([]*program.Program, len(experiments.BlockSizes))
	for i, blk := range experiments.BlockSizes {
		out[i] = benchGE(b, 960, blk, 8)
	}
	return out
}

// envelopeParams is the nominal machine and four perturbed ones, a
// Monte-Carlo envelope's pricing pattern in miniature.
func envelopeParams(p int) []loggp.Params {
	out := []loggp.Params{loggp.MeikoCS2(p)}
	for k := 1; k <= 4; k++ {
		pm := out[0]
		f := 1 + 0.05*float64(k)
		pm.L *= f
		pm.O *= 2 - f
		pm.Gap *= f
		pm.G /= f
		out = append(out, pm)
	}
	return out
}

func BenchmarkCertificate(b *testing.B) {
	model := cost.DefaultAnalytic()
	corpus := analyzeCorpus(b)
	fig7 := fig7Programs(b)
	checkAll := func(b *testing.B, progs []*program.Program) {
		for i := 0; i < b.N; i++ {
			for _, pr := range progs {
				if r := analyze.CheckProgram(pr, loggp.MeikoCS2(pr.P), model); r.Bounds == nil {
					b.Fatalf("no certificate: %v", r.Issues)
				}
			}
		}
	}
	b.Run("CheckProgram/corpus", func(b *testing.B) { checkAll(b, corpus) })
	b.Run("BoundProgram/corpus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pr := range corpus {
				if _, err := analyze.BoundProgram(pr, loggp.MeikoCS2(pr.P), model); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("CheckProgram/fig7", func(b *testing.B) { checkAll(b, fig7) })
	// An envelope prices its nominal point and samples in one walk per
	// program, as robust does.
	b.Run("Envelope/fig7", func(b *testing.B) {
		params := envelopeParams(8)
		for i := 0; i < b.N; i++ {
			for _, pr := range fig7 {
				shape, err := analyze.NewProgramShape(pr, model)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := shape.Pricer().BoundAll(params); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
