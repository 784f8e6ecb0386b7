package machine_test

import (
	"testing"

	"loggpsim/internal/experiments"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/machine"
	"loggpsim/internal/program"
)

// BenchmarkRunFigure7 emulates the 28 Figure-7 programs (N=960, P=8,
// the 14 block sizes × diagonal and row-cyclic) with the experiments'
// emulator configuration, as one Figure-7 sweep does; one op runs all
// 28, each through both of machine.Run's passes. Run by `make bench`.
func BenchmarkRunFigure7(b *testing.B) {
	cfg := experiments.Default()
	type cell struct {
		pr  *program.Program
		mcf machine.Config
	}
	var cells []cell
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
			mcf := machine.Default(cfg.Params, cfg.Model)
			mcf.Seed = cfg.Seed
			mcf.AssignedBlocks = layout.BlockCounts(lay, g.NB)
			cells = append(cells, cell{pr, mcf})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			if _, err := machine.Run(c.pr, c.mcf); err != nil {
				b.Fatal(err)
			}
		}
	}
}
