package ge_test

import (
	"testing"

	"loggpsim/internal/experiments"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/program"
)

// BenchmarkBuildProgram builds the 28 Figure-7 programs (N=960, P=8,
// the 14 block sizes × diagonal and row-cyclic); one op builds all 28,
// as one Figure-7 sweep does. Run by `make bench`.
func BenchmarkBuildProgram(b *testing.B) {
	cfg := experiments.Default()
	b.ReportAllocs()
	steps := 0
	for i := 0; i < b.N; i++ {
		for _, blk := range cfg.Sizes {
			g, err := ge.NewGrid(cfg.N, blk)
			if err != nil {
				b.Fatal(err)
			}
			for _, lay := range cfg.Layouts(g.NB) {
				pr, err := ge.BuildProgram(g, lay)
				if err != nil {
					b.Fatal(err)
				}
				steps += len(pr.Steps)
			}
		}
	}
	if steps == 0 {
		b.Fatal("no steps built")
	}
}

// TestBuildProgramAllocatesPerWave bounds BuildProgram's allocations on
// Figure-7 programs (N=960, P=8, diagonal) to P+5 per step: a step
// costs its Step, computation-list array and pattern, one operation
// list per owner and one message list, each allocated at its final
// length. Lists grown by append would cost 17-81 per step here.
func TestBuildProgramAllocatesPerWave(t *testing.T) {
	for _, blk := range []int{8, 48, 120} {
		g, err := ge.NewGrid(960, blk)
		if err != nil {
			t.Fatal(err)
		}
		lay := layout.Diagonal(8, g.NB)
		var pr *program.Program
		allocs := testing.AllocsPerRun(1, func() {
			if pr, err = ge.BuildProgram(g, lay); err != nil {
				t.Fatal(err)
			}
		})
		if bound := len(pr.Steps) * (lay.P() + 5); allocs > float64(bound) {
			t.Errorf("b=%d: BuildProgram allocated %v times for %d steps, over the bound %d",
				blk, allocs, len(pr.Steps), bound)
		} else {
			t.Logf("b=%d: %v allocations for %d steps (%.1f per step)", blk, allocs, len(pr.Steps), allocs/float64(len(pr.Steps)))
		}
	}
}
