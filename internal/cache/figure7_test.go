package cache_test

import (
	"testing"

	"loggpsim/internal/cache"
	"loggpsim/internal/experiments"
	"loggpsim/internal/ge"
	"loggpsim/internal/machine"
	"loggpsim/internal/program"
)

// BenchmarkWarm replays the 28 Figure-7 programs (N=960, P=8, the 14
// block sizes × diagonal and row-cyclic) through cache.Warm at the
// emulator's cache size and miss prices. One op is one pass over all
// 28: the cache model's share of one Figure-7 sweep. Run by `make
// bench`.
func BenchmarkWarm(b *testing.B) {
	cfg := experiments.Default()
	mc := machine.Default(cfg.Params, cfg.Model)
	var progs []*program.Program
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
			progs = append(progs, pr)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	misses := 0
	for i := 0; i < b.N; i++ {
		for _, pr := range progs {
			misses += cache.Warm(pr, mc.CacheBytes, mc.MissFixed, mc.MissPerByte).Misses
		}
	}
	if misses == 0 {
		b.Fatal("the Figure-7 programs never missed")
	}
}
