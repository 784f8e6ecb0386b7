package collectives

import (
	"math"
	"testing"
	"testing/quick"

	"loggpsim/internal/cost"
	"loggpsim/internal/loggp"
	"loggpsim/internal/predictor"
	"loggpsim/internal/program"
	"loggpsim/internal/sim"
	"loggpsim/internal/trace"
)

// machines used across the oracle tests: one with g>o, one with o>g, one
// degenerate.
var machines = []loggp.Params{
	loggp.MeikoCS2(64),
	loggp.LowOverhead(64),
	loggp.Cluster(64),
	loggp.Uniform(64),
}

const eps = 1e-9

func simulateSteps(t *testing.T, steps []*trace.Pattern, p loggp.Params) float64 {
	t.Helper()
	finish, _, err := sim.RunSteps(steps, sim.Config{Params: p})
	if err != nil {
		t.Fatal(err)
	}
	return finish
}

// predictSteps runs a step sequence through predictor.Predict as a
// program with no computation: the closed forms share no code with any
// scheduler, so they pin the predictor's absolute values as well as the
// session's.
func predictSteps(steps []*trace.Pattern, p loggp.Params) (float64, error) {
	pr := program.New(steps[0].P)
	for _, pt := range steps {
		pr.AddStep().Comm = pt
	}
	pred, err := predictor.Predict(pr, predictor.Config{Params: p, Cost: cost.DefaultAnalytic()})
	if err != nil {
		return 0, err
	}
	return pred.Total, nil
}

// checkPredicted asserts the predictor path meets the same closed form
// with the same tolerance.
func checkPredicted(t *testing.T, steps []*trace.Pattern, p loggp.Params, want float64, what string) {
	t.Helper()
	got, err := predictSteps(steps, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > eps {
		t.Errorf("%v %s: predictor %g != formula %g", p, what, got, want)
	}
}

func TestPointToPointOracle(t *testing.T) {
	for _, p := range machines {
		for _, bytes := range []int{1, 112, 4096} {
			want := PointToPointTime(p, bytes)
			got, err := sim.Completion(trace.New(2).Add(0, 1, bytes), p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > eps {
				t.Errorf("%v bytes=%d: sim %g != formula %g", p, bytes, got, want)
			}
			checkPredicted(t, []*trace.Pattern{trace.New(2).Add(0, 1, bytes)}, p, want, "point-to-point")
		}
	}
}

func TestLinearBroadcastOracle(t *testing.T) {
	for _, p := range machines {
		for _, procs := range []int{2, 3, 8, 17} {
			for _, bytes := range []int{1, 112, 2048} {
				want := LinearBroadcastTime(p, procs, bytes)
				got, err := sim.Completion(LinearBroadcastPattern(procs, 0, bytes), p)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-want) > eps {
					t.Errorf("%v procs=%d bytes=%d: sim %g != formula %g",
						p, procs, bytes, got, want)
				}
				checkPredicted(t, []*trace.Pattern{LinearBroadcastPattern(procs, 0, bytes)}, p, want, "linear broadcast")
			}
		}
	}
}

func TestGatherOracle(t *testing.T) {
	for _, p := range machines {
		for _, procs := range []int{2, 3, 8, 17} {
			for _, bytes := range []int{1, 112, 2048} {
				want := GatherTime(p, procs, bytes)
				got, err := sim.Completion(GatherPattern(procs, 0, bytes), p)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-want) > eps {
					t.Errorf("%v procs=%d bytes=%d: sim %g != formula %g",
						p, procs, bytes, got, want)
				}
				checkPredicted(t, []*trace.Pattern{GatherPattern(procs, 0, bytes)}, p, want, "gather")
			}
		}
	}
}

func TestBinomialBroadcastOracle(t *testing.T) {
	for _, p := range machines {
		for _, procs := range []int{2, 3, 4, 7, 8, 16, 33} {
			for _, bytes := range []int{1, 112} {
				want := BinomialBroadcastTime(p, procs, bytes)
				got := simulateSteps(t, BinomialBroadcastSteps(procs, bytes), p)
				if math.Abs(got-want) > eps {
					t.Errorf("%v procs=%d bytes=%d: sim %g != recurrence %g",
						p, procs, bytes, got, want)
				}
				checkPredicted(t, BinomialBroadcastSteps(procs, bytes), p, want, "binomial broadcast")
			}
		}
	}
}

func TestRingAllGatherOracle(t *testing.T) {
	for _, p := range machines {
		for _, procs := range []int{2, 3, 5, 8} {
			for _, bytes := range []int{1, 112, 1024} {
				want := RingAllGatherTime(p, procs, bytes)
				got := simulateSteps(t, RingAllGatherSteps(procs, bytes), p)
				if math.Abs(got-want) > eps {
					t.Errorf("%v procs=%d bytes=%d: sim %g != recurrence %g",
						p, procs, bytes, got, want)
				}
				checkPredicted(t, RingAllGatherSteps(procs, bytes), p, want, "ring all-gather")
			}
		}
	}
}

func TestTrivialSizes(t *testing.T) {
	p := loggp.MeikoCS2(8)
	if LinearBroadcastTime(p, 1, 8) != 0 || GatherTime(p, 1, 8) != 0 ||
		BinomialBroadcastTime(p, 1, 8) != 0 || RingAllGatherTime(p, 1, 8) != 0 {
		t.Error("single-processor collectives must cost zero")
	}
	if steps := RingAllGatherSteps(1, 8); steps != nil {
		t.Errorf("RingAllGatherSteps(1) = %v, want nil", steps)
	}
	if _, ft := OptimalBroadcast(p, 1, 8); ft != 0 {
		t.Errorf("OptimalBroadcast(1) time = %g, want 0", ft)
	}
}

func TestOptimalBroadcastCoversAll(t *testing.T) {
	p := loggp.MeikoCS2(64)
	pt, _ := OptimalBroadcast(p, 17, 112)
	informed := map[int32]bool{0: true}
	for _, m := range pt.Msgs {
		if !informed[m.Src] {
			t.Fatalf("sender %d transmits before being informed", m.Src)
		}
		informed[m.Dst] = true
	}
	if len(informed) != 17 {
		t.Fatalf("%d processors informed, want 17", len(informed))
	}
}

// The greedy schedule must not be slower than either fixed schedule.
func TestOptimalBeatsFixedSchedules(t *testing.T) {
	for _, p := range machines {
		for _, procs := range []int{2, 4, 8, 16, 32} {
			for _, bytes := range []int{1, 112} {
				_, opt := OptimalBroadcast(p, procs, bytes)
				lin := LinearBroadcastTime(p, procs, bytes)
				bin := BinomialBroadcastTime(p, procs, bytes)
				if opt > lin+eps {
					t.Errorf("%v procs=%d: optimal %g > linear %g", p, procs, opt, lin)
				}
				if opt > bin+eps {
					t.Errorf("%v procs=%d: optimal %g > binomial %g", p, procs, opt, bin)
				}
			}
		}
	}
}

// Property: the oracle equalities hold for randomized machines too.
func TestOraclesPropertyRandomMachines(t *testing.T) {
	f := func(lRaw, oRaw, gRaw uint8, procsRaw uint8, bytesRaw uint16) bool {
		p := loggp.Params{
			L:   float64(lRaw%50) + 1,
			O:   float64(oRaw%20) + 1,
			Gap: float64(gRaw%40) + 1,
			G:   0.01,
			P:   64,
		}
		procs := int(procsRaw%14) + 2
		bytes := int(bytesRaw%2000) + 1

		lin, err := sim.Completion(LinearBroadcastPattern(procs, 0, bytes), p)
		if err != nil || math.Abs(lin-LinearBroadcastTime(p, procs, bytes)) > eps {
			return false
		}
		gat, err := sim.Completion(GatherPattern(procs, 0, bytes), p)
		if err != nil || math.Abs(gat-GatherTime(p, procs, bytes)) > eps {
			return false
		}
		bin, _, err := sim.RunSteps(BinomialBroadcastSteps(procs, bytes), sim.Config{Params: p})
		if err != nil || math.Abs(bin-BinomialBroadcastTime(p, procs, bytes)) > eps {
			return false
		}
		ring, _, err := sim.RunSteps(RingAllGatherSteps(procs, bytes), sim.Config{Params: p})
		if err != nil || math.Abs(ring-RingAllGatherTime(p, procs, bytes)) > eps {
			return false
		}
		// The same closed forms through the predictor.
		for _, c := range []struct {
			steps []*trace.Pattern
			want  float64
		}{
			{[]*trace.Pattern{LinearBroadcastPattern(procs, 0, bytes)}, LinearBroadcastTime(p, procs, bytes)},
			{[]*trace.Pattern{GatherPattern(procs, 0, bytes)}, GatherTime(p, procs, bytes)},
			{BinomialBroadcastSteps(procs, bytes), BinomialBroadcastTime(p, procs, bytes)},
			{RingAllGatherSteps(procs, bytes), RingAllGatherTime(p, procs, bytes)},
		} {
			got, err := predictSteps(c.steps, p)
			if err != nil || math.Abs(got-c.want) > eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialReduceOracle(t *testing.T) {
	for _, p := range machines {
		for _, procs := range []int{2, 3, 4, 7, 8, 16, 33} {
			for _, bytes := range []int{1, 112} {
				want := BinomialReduceTime(p, procs, bytes)
				got := simulateSteps(t, BinomialReduceSteps(procs, bytes), p)
				if math.Abs(got-want) > eps {
					t.Errorf("%v procs=%d bytes=%d: sim %g != recurrence %g",
						p, procs, bytes, got, want)
				}
			}
		}
	}
}

func TestReduceMirrorsBroadcast(t *testing.T) {
	// Under the folded interval rules every operation pair shares the
	// same spacing, so the reduction tree is the exact time-mirror of
	// the broadcast tree.
	for _, p := range machines {
		for _, procs := range []int{2, 8, 16} {
			bcast := BinomialBroadcastTime(p, procs, 112)
			reduce := BinomialReduceTime(p, procs, 112)
			if math.Abs(bcast-reduce) > eps {
				t.Errorf("%v procs=%d: reduce %g != broadcast %g", p, procs, reduce, bcast)
			}
		}
	}
}

func TestAllReduceProperties(t *testing.T) {
	p := loggp.MeikoCS2(64)
	for _, procs := range []int{2, 4, 8, 16} {
		steps := AllReduceSteps(procs, 112)
		got := simulateSteps(t, steps, p)
		reduce := BinomialReduceTime(p, procs, 112)
		bcast := BinomialBroadcastTime(p, procs, 112)
		if got < reduce-eps || got < bcast-eps {
			t.Errorf("procs=%d: allreduce %g below its phases (%g, %g)",
				procs, got, reduce, bcast)
		}
		if got > reduce+bcast+p.Gap+eps {
			t.Errorf("procs=%d: allreduce %g above sequential phases %g",
				procs, got, reduce+bcast+p.Gap)
		}
		// Message count: (P-1) up plus (P-1) down.
		msgs := 0
		for _, s := range steps {
			msgs += s.NetworkMessages()
		}
		if msgs != 2*(procs-1) {
			t.Errorf("procs=%d: %d messages, want %d", procs, msgs, 2*(procs-1))
		}
	}
	if AllReduceSteps(1, 8) != nil && len(AllReduceSteps(1, 8)) != 0 {
		t.Error("single-processor allreduce has steps")
	}
}

func TestReduceTrivial(t *testing.T) {
	p := loggp.MeikoCS2(8)
	if BinomialReduceTime(p, 1, 8) != 0 {
		t.Error("single-processor reduce must cost zero")
	}
	if steps := BinomialReduceSteps(1, 8); len(steps) != 0 {
		t.Errorf("single-processor reduce has %d steps", len(steps))
	}
}

func TestRecursiveDoublingAllGatherOracle(t *testing.T) {
	for _, p := range machines {
		for _, procs := range []int{2, 4, 8, 16} {
			for _, bytes := range []int{1, 112, 1024} {
				steps, err := RecursiveDoublingAllGatherSteps(procs, bytes)
				if err != nil {
					t.Fatal(err)
				}
				want := RecursiveDoublingAllGatherTime(p, procs, bytes)
				got := simulateSteps(t, steps, p)
				if math.Abs(got-want) > eps {
					t.Errorf("%v procs=%d bytes=%d: sim %g != recurrence %g",
						p, procs, bytes, got, want)
				}
			}
		}
	}
	if _, err := RecursiveDoublingAllGatherSteps(6, 8); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if got := RecursiveDoublingAllGatherTime(loggp.MeikoCS2(8), 1, 8); got != 0 {
		t.Errorf("single-processor allgather = %g", got)
	}
}

func TestRecursiveDoublingBeatsRingForManyProcs(t *testing.T) {
	// log P rounds of doubling messages versus P-1 rounds of constant
	// ones: for small payloads and many processors the tree wins.
	p := loggp.MeikoCS2(64)
	rd := RecursiveDoublingAllGatherTime(p, 16, 112)
	ring := RingAllGatherTime(p, 16, 112)
	if rd >= ring {
		t.Fatalf("recursive doubling %g not below ring %g at P=16", rd, ring)
	}
}
