package ge_test

import (
	"runtime"
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

// TestBuildProgramBytes bounds the bytes BuildProgram allocates for the
// largest Figure-7 program (N=960, P=8, b=8, diagonal): 1,151,920
// messages at 12 bytes each, plus operations and step structure, stay
// under 32 MiB. At 24 bytes a message the build allocated 43.6 MB.
func TestBuildProgramBytes(t *testing.T) {
	g, err := ge.NewGrid(960, 8)
	if err != nil {
		t.Fatal(err)
	}
	lay := layout.Diagonal(8, g.NB)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pr, err := ge.BuildProgram(g, lay)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 32 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("BuildProgram allocated %.1f MiB for %d steps, want under %.0f MiB",
			float64(got)/(1<<20), len(pr.Steps), float64(limit)/(1<<20))
	} else {
		t.Logf("BuildProgram allocated %.1f MiB for %d steps", float64(got)/(1<<20), len(pr.Steps))
	}
}
