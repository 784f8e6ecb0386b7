package machine

import (
	"math"
	"runtime"
	"testing"

	"loggpsim/internal/blockops"
	"loggpsim/internal/cannon"
	"loggpsim/internal/cost"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/network"
	"loggpsim/internal/predictor"
	"loggpsim/internal/program"
	"loggpsim/internal/stencil"
	"loggpsim/internal/trisolve"
)

var (
	meiko = loggp.MeikoCS2(8)
	model = cost.DefaultAnalytic()
)

// bareConfig disables every emulator effect, leaving pure LogGP.
func bareConfig() Config {
	return Config{Params: meiko, Cost: model}
}

func geProgram(t *testing.T, n, b int, lay layout.Layout) *program.Program {
	t.Helper()
	g, err := ge.NewGrid(n, b)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ge.BuildProgram(g, lay)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// With every knob zeroed the emulator must agree exactly with the
// standard LogGP prediction — the emulator is the prediction plus the
// four reality effects and nothing else.
func TestBareEmulatorEqualsPrediction(t *testing.T) {
	for _, b := range []int{8, 12, 24} {
		const n = 96
		pr := geProgram(t, n, b, layout.Diagonal(8, n/b))
		em, err := Run(pr, bareConfig())
		if err != nil {
			t.Fatal(err)
		}
		pred, err := predictor.Predict(pr, predictor.Config{Params: meiko, Cost: model})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(em.Total-pred.Total) > 1e-6 {
			t.Errorf("b=%d: bare emulator %g != prediction %g", b, em.Total, pred.Total)
		}
		if math.Abs(em.TotalNoCache-em.Total) > 1e-6 {
			t.Errorf("b=%d: no-cache total %g != total %g without cache model",
				b, em.TotalNoCache, em.Total)
		}
		if math.Abs(em.Comp-pred.Comp) > 1e-6 {
			t.Errorf("b=%d: bare emulator comp %g != predicted %g", b, em.Comp, pred.Comp)
		}
		if em.CacheWarm != 0 || em.Misses != 0 {
			t.Errorf("b=%d: bare emulator warmed the cache: %+v", b, em)
		}
	}
}

func TestCacheChargesRaiseTotal(t *testing.T) {
	pr := geProgram(t, 96, 8, layout.Diagonal(8, 12))
	cfg := bareConfig()
	cfg.CacheBytes = 1 << 20
	cfg.MissFixed = 0.5
	cfg.MissPerByte = 0.005
	em, err := Run(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if em.Misses == 0 || em.CacheWarm <= 0 {
		t.Fatalf("no cache activity: %+v", em)
	}
	if em.Total <= em.TotalNoCache {
		t.Fatalf("warm charges did not raise total: %g vs %g", em.Total, em.TotalNoCache)
	}
	bare, err := Run(pr, bareConfig())
	if err != nil {
		t.Fatal(err)
	}
	if em.Total <= bare.Total {
		t.Fatalf("cache model did not slow the machine: %g vs %g", em.Total, bare.Total)
	}
}

func TestCacheWarmLargerForSmallBlocks(t *testing.T) {
	// The paper's central cache observation: the relative cache penalty
	// is big for small blocks and fades for large ones, because every
	// wave moves many more (and colder) buffers.
	relWarm := func(b int) float64 {
		const n = 96
		pr := geProgram(t, n, b, layout.Diagonal(8, n/b))
		cfg := bareConfig()
		cfg.CacheBytes = 1 << 20
		cfg.MissFixed = 0.5
		cfg.MissPerByte = 0.005
		em, err := Run(pr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return em.CacheWarm / em.Total
	}
	small, large := relWarm(8), relWarm(48)
	if small <= large {
		t.Fatalf("relative cache warm at b=8 (%g) not above b=48 (%g)", small, large)
	}
}

func TestIterationOverheadExact(t *testing.T) {
	// One idle step: the iteration overhead is the only computation.
	pr := program.New(2)
	pr.AddStep()
	pr.AddStep()
	cfg := bareConfig()
	cfg.IterPerBlock = 0.5
	cfg.AssignedBlocks = []int{10, 4}
	em, err := Run(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Proc 0: 2 steps × 10 blocks × 0.5µs.
	if math.Abs(em.Comp-10) > 1e-9 {
		t.Fatalf("Comp = %g, want 10", em.Comp)
	}
	if math.Abs(em.Total-10) > 1e-9 {
		t.Fatalf("Total = %g, want 10", em.Total)
	}
}

func TestLocalTransfersCharged(t *testing.T) {
	pr := program.New(2)
	s := pr.AddStep()
	s.Comm.AddLocal(0, 1000) // intentional local transfer
	cfg := bareConfig()
	cfg.LocalFixed = 2
	cfg.LocalPerByte = 0.01
	em, err := Run(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + 0.01*1000
	if math.Abs(em.Total-want) > 1e-9 || math.Abs(em.Comm-want) > 1e-9 {
		t.Fatalf("local transfer: Total=%g Comm=%g, want %g", em.Total, em.Comm, want)
	}
}

func TestJitterSlowsAndIsDeterministic(t *testing.T) {
	pr := geProgram(t, 96, 12, layout.Diagonal(8, 8))
	cfg := bareConfig()
	cfg.JitterFrac = 0.5
	cfg.Seed = 7
	a, err := Run(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total || a.Comm != b.Comm {
		t.Fatal("same seed, different jittered runs")
	}
	bare, err := Run(pr, bareConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Jitter perturbs the schedule; note it need not slow it down —
	// delaying one arrival can let a send win the receive-priority race
	// and shorten the pipeline (the paper's own caveat that one late
	// message "can completely change" the sequence). It must stay near
	// the unjittered run, though.
	if rel := math.Abs(a.Total-bare.Total) / bare.Total; rel > 0.10 {
		t.Fatalf("jittered total %g deviates %.1f%% from unjittered %g",
			a.Total, 100*rel, bare.Total)
	}
}

func TestMeasuredBetweenStandardAndWorstCase(t *testing.T) {
	// The paper's Figure 8: the measured communication time falls
	// between the standard and worst-case simulated values. The
	// emulator's communication exceeds the standard prediction (local
	// copies + jitter) while staying near it.
	const n, b = 96, 12
	pr := geProgram(t, n, b, layout.Diagonal(8, n/b))
	cfg := Default(meiko, model)
	cfg.Seed = 3
	em, err := Run(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predictor.Predict(pr, predictor.Config{Params: meiko, Cost: model, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if em.Comm < pred.Comm {
		t.Errorf("measured comm %g below standard prediction %g", em.Comm, pred.Comm)
	}
}

func TestErrors(t *testing.T) {
	pr := program.New(2)
	pr.AddStep()
	if _, err := Run(pr, Config{Params: meiko}); err == nil {
		t.Error("nil cost model accepted")
	}
	cfg := bareConfig()
	cfg.AssignedBlocks = []int{1, 2, 3}
	if _, err := Run(pr, cfg); err == nil {
		t.Error("wrong AssignedBlocks length accepted")
	}
	bad := program.New(2)
	bad.AddStep().AddOp(0, blockops.NumOps, 8)
	if _, err := Run(bad, bareConfig()); err == nil {
		t.Error("invalid program accepted")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	pr := geProgram(t, 96, 12, layout.RowCyclic(8))
	cfg := Default(meiko, model)
	cfg.Seed = 11
	cfg.AssignedBlocks = layout.BlockCounts(layout.RowCyclic(8), 8)
	a, err := Run(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

// The emulator must handle every bundled application's program,
// including the variable-message-size ones.
func TestEmulatorAcrossApplications(t *testing.T) {
	cfg := Default(meiko, model)
	cfg.Seed = 2
	for _, tc := range []struct {
		name  string
		build func() (*program.Program, error)
	}{
		{"trisolve", func() (*program.Program, error) {
			g, err := trisolve.NewGrid(96, 8)
			if err != nil {
				return nil, err
			}
			return trisolve.BuildProgram(g, layout.RowCyclic(8))
		}},
		{"stencil", func() (*program.Program, error) {
			g, err := stencil.NewGrid(64, 8)
			if err != nil {
				return nil, err
			}
			return stencil.BuildProgram(g, 4, layout.BlockCyclic2D(2, 4))
		}},
		{"cannon", func() (*program.Program, error) {
			c, err := cannon.NewConfig(64, 2)
			if err != nil {
				return nil, err
			}
			pr := c.BuildProgram()
			return pr, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pr, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			localCfg := cfg
			if pr.P != meiko.P {
				localCfg.Params = loggp.MeikoCS2(pr.P)
			}
			m, err := Run(pr, localCfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.Total <= 0 || m.Total < m.TotalNoCache-1e-9 {
				t.Fatalf("emulation inconsistent: %+v", m)
			}
			pred, err := predictor.Predict(pr, predictor.Config{
				Params: localCfg.Params, Cost: model, Seed: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if m.Total < pred.Total-1e-6 {
				t.Fatalf("emulated %g below plain prediction %g", m.Total, pred.Total)
			}
		})
	}
}

func TestEmulatorWithNetworkFabric(t *testing.T) {
	pr := geProgram(t, 96, 12, layout.Diagonal(8, 8))
	flat, err := Run(pr, bareConfig())
	if err != nil {
		t.Fatal(err)
	}
	topo, err := network.NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	fabric, err := network.NewFabric(topo, meiko.L/3, meiko.G)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bareConfig()
	cfg.Network = fabric
	contended, err := Run(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if contended.Total <= flat.Total {
		t.Fatalf("ring fabric (%g) not slower than flat network (%g)", contended.Total, flat.Total)
	}
	// The fabric is reset between the emulator's two internal passes, so
	// the no-cache pass sees the same network and the totals agree (no
	// cache model is enabled here).
	if math.Abs(contended.Total-contended.TotalNoCache) > 1e-6 {
		t.Fatalf("fabric state leaked across passes: %g vs %g",
			contended.Total, contended.TotalNoCache)
	}
}

// TestRunAllocationIsStepSized emulates the N=960 b=8 diagonal GE
// program (1.15 M messages, 358 steps that grow until the middle wave)
// with the Figure-7 emulator configuration and bounds the bytes one Run
// allocates: the session's send arena and receive queues grow
// geometrically, so they reallocate a logarithmic number of times
// instead of once per growing step.
func TestRunAllocationIsStepSized(t *testing.T) {
	g, err := ge.NewGrid(960, 8)
	if err != nil {
		t.Fatal(err)
	}
	lay := layout.Diagonal(8, g.NB)
	pr := geProgram(t, 960, 8, lay)
	cfg := Default(meiko, model)
	cfg.AssignedBlocks = layout.BlockCounts(lay, g.NB)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(pr, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 4 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("machine.Run allocated %.1f MiB, want under %.0f MiB",
			float64(got)/(1<<20), float64(limit)/(1<<20))
	} else {
		t.Logf("machine.Run allocated %.2f MiB", float64(got)/(1<<20))
	}
}
