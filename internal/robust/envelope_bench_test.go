package robust

// Envelope-throughput benchmarks on the paper's Figure-7 sweep (960×960
// matrix, 8 processors, the reconstructed 14 block sizes), the scalar
// oracle of scalar_test.go vs the lockstep path of Run, at the sample
// counts the envelope work tracks. `make bench-envelope` runs both
// series; EXPERIMENTS.md records the batched path's speedup. Workers is
// pinned to 1, so Run evaluates one block size at a time like the
// oracle: the contest is per-envelope work, not goroutine count.

import (
	"fmt"
	"testing"

	"loggpsim/internal/cost"
	"loggpsim/internal/experiments"
	"loggpsim/internal/loggp"
)

func figure7Config(samples int) Config {
	return Config{
		N:       960,
		P:       8,
		Sizes:   experiments.BlockSizes,
		Params:  loggp.MeikoCS2(8),
		Model:   cost.DefaultAnalytic(),
		Samples: samples,
		Seed:    7,
		Perturb: Perturb{L: 0.2, O: 0.1, Gap: 0.2, G: 0.15},
		Workers: 1,
	}
}

func benchEnvelope(b *testing.B, samples int, scalar bool) {
	cfg := figure7Config(samples)
	run := Run
	if scalar {
		run = runScalar
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		envs, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(envs) != len(cfg.Sizes) { // every Figure-7 size divides 960
			b.Fatalf("got %d envelopes", len(envs))
		}
	}
}

func BenchmarkEnvelopeScalar(b *testing.B) {
	for _, samples := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("s%d", samples), func(b *testing.B) {
			benchEnvelope(b, samples, true)
		})
	}
}

func BenchmarkEnvelopeLockstep(b *testing.B) {
	for _, samples := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("s%d", samples), func(b *testing.B) {
			benchEnvelope(b, samples, false)
		})
	}
}
