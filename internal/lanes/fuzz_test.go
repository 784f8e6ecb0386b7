package lanes_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"loggpsim/internal/blockops"
	"loggpsim/internal/cost"
	"loggpsim/internal/faults"
	"loggpsim/internal/lanes"
	"loggpsim/internal/loggp"
	"loggpsim/internal/network"
	"loggpsim/internal/predictor"
	"loggpsim/internal/program"
)

// unitCost prices every operation at a small whole number of
// microseconds, so computation charges, LogGP charges and arrivals all
// land on a coarse dyadic grid and start-time ties — between senders,
// between a send and a receive, between arrivals of different byte
// classes at one receiver — are common rather than accidental.
type unitCost struct{}

func (unitCost) Cost(op blockops.Op, b int) float64 { return float64(1 + int(op) + b%3) }
func (unitCost) Name() string                       { return "unit" }

// fuzzProgram builds a small random program from a seed: 1-9
// processors, 1-4 steps, uneven computation, mixed byte sizes and
// declared self messages.
func fuzzProgram(seed int64) *program.Program {
	rng := rand.New(rand.NewSource(seed))
	p := 1 + rng.Intn(9)
	pr := program.New(p)
	sizes := []int{1, 3, 9, 17, 64}
	for s, steps := 0, 1+rng.Intn(4); s < steps; s++ {
		st := pr.AddStep()
		for q := 0; q < p; q++ {
			for k := rng.Intn(3); k > 0; k-- {
				st.AddOp(q, blockops.Op(rng.Intn(int(blockops.NumOps))), 1+rng.Intn(4))
			}
		}
		for m := rng.Intn(4 * p); m > 0; m-- {
			src, dst, bytes := rng.Intn(p), rng.Intn(p), sizes[rng.Intn(len(sizes))]
			if src == dst {
				st.Comm.AddLocal(src, bytes)
			} else {
				st.Comm.Add(src, dst, bytes)
			}
		}
	}
	return pr
}

// Mode bits of FuzzLanesMatchSessions.
const (
	fuzzSendPriority = 1 << iota
	fuzzGlobalOrder
	fuzzOverlap
	fuzzCache
	fuzzCollect
	fuzzRing
	fuzzNoCrossGap
	fuzzMeiko
)

// FuzzLanesMatchSessions holds one lane — a prediction through
// predictor.Evaluator, the engine's one-lane caller — to the session
// oracle on random small programs under every combination of modes, a
// tie-break seed and an optional fault plan: every readout bit for bit,
// or a message loss on both sides.
func FuzzLanesMatchSessions(f *testing.F) {
	for i := int64(0); i < 8; i++ {
		f.Add(i, uint8(i*37), i+1, uint8(i%3))
	}
	f.Fuzz(func(t *testing.T, progSeed int64, modeBits uint8, seed int64, faultSel uint8) {
		pr := fuzzProgram(progSeed)
		m := loggp.Params{L: 5, O: 1, Gap: 2, G: 0.5, P: pr.P}
		if modeBits&fuzzMeiko != 0 {
			m = loggp.MeikoCS2(pr.P)
		}
		m.NoCrossGap = modeBits&fuzzNoCrossGap != 0
		cfg := predictor.Config{
			Params:       m,
			Cost:         unitCost{},
			Seed:         seed,
			SendPriority: modeBits&fuzzSendPriority != 0,
			GlobalOrder:  modeBits&fuzzGlobalOrder != 0,
			Overlap:      modeBits&fuzzOverlap != 0,
			CollectSteps: modeBits&fuzzCollect != 0,
		}
		if modeBits&fuzzCache != 0 {
			cfg.CacheBytes, cfg.MissFixed, cfg.MissPerByte = 256, 1, 0.25
		}
		switch faultSel % 4 {
		case 1:
			cfg.Faults = faults.Plan{Seed: seed, Drop: faults.Drop{Prob: 0.2, RTO: 4, MaxRetries: 2}}
		case 2:
			cfg.Faults = faults.Plan{Seed: seed, Compute: faults.Compute{Jitter: 0.5, Stragglers: 1, Factor: 2},
				Degrade: []faults.Degrade{{Start: 5, End: 40, GScale: 2, LScale: 3}}}
		case 3:
			cfg.Faults = faults.Plan{Seed: seed, Drop: faults.Drop{Prob: 0.5, MaxRetries: 1}}
		}
		useRing := modeBits&fuzzRing != 0 && pr.P >= 2 // a ring needs two processors
		ring := func() *network.Fabric {
			topo, err := network.NewRing(pr.P)
			if err != nil {
				t.Fatal(err)
			}
			fab, err := network.NewFabric(topo, 2, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			return fab
		}
		if useRing {
			cfg.Network = ring()
		}
		var got predictor.Prediction
		gotErr := predictor.NewEvaluator().PredictInto(&got, pr, cfg)
		if useRing {
			cfg.Network = ring() // the oracle's own fabric instance
		}
		var want predictor.Prediction
		var ref sessionReplay
		wantErr := ref.PredictInto(&want, pr, cfg)
		if err := samePrediction(&got, gotErr, &want, wantErr); err != nil {
			t.Fatalf("program seed %d modes %08b seed %d faults %d: %v", progSeed, modeBits, seed, faultSel%4, err)
		}
	})
}

// samePrediction compares two prediction outcomes: both failed with a
// message loss, or both succeeded with every field equal bit for bit.
func samePrediction(got *predictor.Prediction, gotErr error, want *predictor.Prediction, wantErr error) error {
	if wantErr != nil || gotErr != nil {
		if isLoss(wantErr) && isLoss(gotErr) {
			return nil
		}
		return fmt.Errorf("errors differ: lane %v, session replay %v", gotErr, wantErr)
	}
	scalars := []struct {
		name string
		a, b float64
	}{
		{"Total", got.Total, want.Total}, {"TotalWorst", got.TotalWorst, want.TotalWorst},
		{"Comp", got.Comp, want.Comp}, {"Comm", got.Comm, want.Comm},
		{"CommWorst", got.CommWorst, want.CommWorst}, {"CacheWarm", got.CacheWarm, want.CacheWarm},
	}
	for _, s := range scalars {
		if bitsDiffer(s.a, s.b) {
			return fmt.Errorf("%s: lane %v, session replay %v", s.name, s.a, s.b)
		}
	}
	if got.Steps != want.Steps || len(got.CompPerProc) != len(want.CompPerProc) ||
		len(got.PerStep) != len(want.PerStep) || (got.PerStep == nil) != (want.PerStep == nil) {
		return fmt.Errorf("shapes differ:\nlane   %+v\nreplay %+v", got, want)
	}
	for q := range got.CompPerProc {
		if bitsDiffer(got.CompPerProc[q], want.CompPerProc[q]) {
			return fmt.Errorf("CompPerProc[%d]: lane %v, session replay %v", q, got.CompPerProc[q], want.CompPerProc[q])
		}
	}
	for s := range got.PerStep {
		a, b := got.PerStep[s], want.PerStep[s]
		if bitsDiffer(a.Comp, b.Comp) || bitsDiffer(a.CommAdvance, b.CommAdvance) || bitsDiffer(a.Finish, b.Finish) {
			return fmt.Errorf("PerStep[%d]: lane %+v, session replay %+v", s, a, b)
		}
	}
	return nil
}

// TestRunIntoAllocationFree checks the predictor's entry point: a
// steady-state RunInto on a reused engine and result slice allocates
// nothing on a GE program, for one lane and for an envelope's 17.
func TestRunIntoAllocationFree(t *testing.T) {
	pr := corpus(t)["ge"]
	cfg := lanes.Config{Cost: cost.DefaultAnalytic()}
	for _, n := range []int{1, 17} {
		ls := make([]lanes.Lane, n)
		for l := range ls {
			m := loggp.MeikoCS2(pr.P)
			m.L *= 1 + 0.01*float64(l)
			ls[l] = lanes.Lane{Params: m, Seed: int64(l)}
		}
		var eng lanes.Engine
		out, err := eng.RunInto(nil, pr, cfg, ls)
		if err != nil {
			t.Fatal(err) // warm-up sizes every buffer
		}
		allocs := testing.AllocsPerRun(20, func() {
			if out, err = eng.RunInto(out, pr, cfg, ls); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%d lanes: steady-state RunInto allocated %v times per run", n, allocs)
		}
	}
}

// isLoss reports whether err carries a *faults.LossError.
func isLoss(err error) bool {
	var le *faults.LossError
	return errors.As(err, &le)
}
