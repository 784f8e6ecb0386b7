package lanes_test

// The lane engine's contract is bit-identity: every lane must read out
// exactly what the session oracle (sessionReplay, oracle_test.go)
// produces for the same configuration, in every mode. The corpus
// stresses every divergence source the schedulers have — tie-break RNG
// consumption (symmetric patterns), worst-case deadlock releases
// (cyclic rings), rendezvous and no-cross-gap machines, mixed message
// sizes (byte classes), fault retransmits, jitter, stragglers,
// degradation windows, and lanes that lose a message and are masked
// out mid-run.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"loggpsim/internal/blockops"
	"loggpsim/internal/cache"
	"loggpsim/internal/cost"
	"loggpsim/internal/faults"
	"loggpsim/internal/ge"
	"loggpsim/internal/lanes"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/network"
	"loggpsim/internal/predictor"
	"loggpsim/internal/program"
	"loggpsim/internal/trace"
)

// build wraps patterns into a program, interleaving computation phases
// of uneven per-processor cost so clocks both collide (consuming
// tie-break randomness) and spread (reordering sends).
func build(p int, pats ...*trace.Pattern) *program.Program {
	pr := program.New(p)
	for i, pt := range pats {
		s := pr.AddStep()
		for q := 0; q < p; q++ {
			for r := 0; r < (i+q)%3; r++ {
				s.AddOp(q, blockops.Op1, 8+q%2)
			}
		}
		s.Comm = pt
	}
	return pr
}

func corpus(t *testing.T) map[string]*program.Program {
	t.Helper()
	grid, err := ge.NewGrid(96, 12)
	if err != nil {
		t.Fatal(err)
	}
	gePr, err := ge.BuildProgram(grid, layout.Diagonal(6, grid.NB))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*program.Program{
		// Cyclic rings every step: the worst-case scheduler deadlocks and
		// must consume its release RNG repeatedly.
		"rings":     build(6, trace.Ring(6, 112), trace.Ring(6, 112), trace.Ring(6, 700)),
		"symmetric": build(8, trace.AllToAll(8, 64), trace.Butterfly(3, 512)),
		"figure3":   build(10, trace.Figure3()),
		// Mixed message sizes across steps: many byte classes.
		"random": build(9, trace.Random(9, 40, 2048, 5), trace.RandomDAG(9, 30, 4096, 3), trace.Shift(9, 2, 300)),
		"empty":  build(4, trace.New(4), trace.New(4)),
		"ge":     gePr,
	}
}

// machines returns lane machine variants for p processors: presets, an
// ablated no-cross-gap machine, and a rendezvous threshold splitting
// the corpus' message sizes across both protocols.
func machines(p int) []loggp.Params {
	noCross := loggp.MeikoCS2(p)
	noCross.NoCrossGap = true
	rendez := loggp.Cluster(p)
	rendez.S = 256
	return []loggp.Params{loggp.MeikoCS2(p), loggp.LowOverhead(p), noCross, rendez}
}

func plans() []faults.Plan {
	return []faults.Plan{
		{},
		{Seed: 3, Drop: faults.Drop{Prob: 0.1}},
		{Seed: 9, Drop: faults.Drop{Prob: 0.08}, Compute: faults.Compute{Jitter: 0.4, Stragglers: 2, Factor: 3}},
		{Seed: 5, Degrade: []faults.Degrade{{Start: 10, End: 500, GScale: 2.5, LScale: 2}}},
		// Tight retry budget: lanes will lose messages and mask out.
		{Seed: 7, Drop: faults.Drop{Prob: 0.3, MaxRetries: 1}},
	}
}

// mode is one cell of the configuration grid the lanes answer to: the
// predictor.Config mode fields it sets, and, for a contention-fabric
// mode, a constructor the lanes and the oracle each call for their own
// fabric instance (a fabric is stateful, so no two replays may share
// one).
type mode struct {
	name   string
	set    func(c *predictor.Config)
	fabric func(p int, m loggp.Params) lanes.Network
}

func modes() []mode {
	none := func(*predictor.Config) {}
	fabric := func(topo func(p int) (network.Topology, error)) func(int, loggp.Params) lanes.Network {
		return func(p int, m loggp.Params) lanes.Network {
			tp, err := topo(p)
			if err != nil {
				panic(err)
			}
			f, err := network.NewFabric(tp, m.L/3, m.G)
			if err != nil {
				panic(err)
			}
			return f
		}
	}
	mesh := func(p int) (network.Topology, error) {
		r := int(math.Sqrt(float64(p)))
		for p%r != 0 {
			r--
		}
		return network.NewMesh(r, p/r)
	}
	return []mode{
		{"paper", none, nil},
		{"send-priority", func(c *predictor.Config) { c.SendPriority = true }, nil},
		{"global-order", func(c *predictor.Config) { c.GlobalOrder = true }, nil},
		{"send-priority+global-order", func(c *predictor.Config) { c.SendPriority, c.GlobalOrder = true, true }, nil},
		{"overlap", func(c *predictor.Config) { c.Overlap = true }, nil},
		{"cache", func(c *predictor.Config) { c.CacheBytes, c.MissFixed, c.MissPerByte = 1<<12, 0.5, 0.005 }, nil},
		{"collect-steps", func(c *predictor.Config) { c.CollectSteps = true }, nil},
		{"ring-fabric", none, fabric(network.NewRing)},
		{"mesh-fabric", none, fabric(mesh)},
	}
}

// laneConfig maps a scalar configuration's mode fields onto the lane
// engine, as the predictor does.
func laneConfig(pr *program.Program, c predictor.Config) lanes.Config {
	lc := lanes.Config{
		Cost:         c.Cost,
		SendPriority: c.SendPriority,
		GlobalOrder:  c.GlobalOrder,
		Overlap:      c.Overlap,
		CollectSteps: c.CollectSteps,
	}
	if c.CacheBytes > 0 {
		lc.Charges = cache.Warm(pr, c.CacheBytes, c.MissFixed, c.MissPerByte).Charges
	}
	return lc
}

// bitsDiffer reports whether two readouts differ in any bit.
func bitsDiffer(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }

// checkLane holds lane l of an engine run to the oracle's replay of the
// same configuration: a loss on exactly the same lanes, otherwise every
// readout bit for bit. It reports whether the lane was lost.
func checkLane(t *testing.T, what string, eng *lanes.Engine, l int, res lanes.Result, want *predictor.Prediction, refErr error) bool {
	t.Helper()
	if refErr != nil {
		var le *faults.LossError
		if !errors.As(refErr, &le) {
			t.Fatalf("%s: session replay failed: %v", what, refErr)
		}
		if res.Err == nil || !errors.As(res.Err, &le) {
			t.Fatalf("%s: session replay lost a message (%v); lane returned %v, %+v", what, refErr, res.Err, res)
		}
		return true
	}
	if res.Err != nil {
		t.Fatalf("%s: session replay succeeded but lane failed: %v", what, res.Err)
	}
	for _, f := range []struct {
		name      string
		lane, ref float64
	}{
		{"Total", res.Total, want.Total}, {"TotalWorst", res.TotalWorst, want.TotalWorst},
		{"Comp", res.Comp, want.Comp}, {"Comm", res.Comm, want.Comm}, {"CommWorst", res.CommWorst, want.CommWorst},
	} {
		if bitsDiffer(f.lane, f.ref) {
			t.Fatalf("%s: %s diverges from session replay: lane %v, replay %v", what, f.name, f.lane, f.ref)
		}
	}
	comp := eng.CompPerProc(l)
	if len(comp) != len(want.CompPerProc) {
		t.Fatalf("%s: %d per-processor computation times, replay has %d", what, len(comp), len(want.CompPerProc))
	}
	for q := range comp {
		if bitsDiffer(comp[q], want.CompPerProc[q]) {
			t.Fatalf("%s: CompPerProc[%d] = %v, replay %v", what, q, comp[q], want.CompPerProc[q])
		}
	}
	prof := eng.Profile(l)
	if (prof == nil) != (want.PerStep == nil) || len(prof) != len(want.PerStep) {
		t.Fatalf("%s: %d profile steps, replay %d", what, len(prof), len(want.PerStep))
	}
	for s := range prof {
		w := want.PerStep[s]
		if bitsDiffer(prof[s].Comp, w.Comp) || bitsDiffer(prof[s].CommAdvance, w.CommAdvance) || bitsDiffer(prof[s].Finish, w.Finish) {
			t.Fatalf("%s: profile step %d = %+v, replay %+v", what, s, prof[s], w)
		}
	}
	return false
}

// TestLanesMatchScalarPredictor fans every corpus program across lanes
// covering the machine × seed × fault-plan grid in one engine run, for
// every mode of the grid, then replays each lane scalar through the
// session oracle (sessionReplay) and demands exact equality — every
// readout bitwise, losses on exactly the same lanes.
func TestLanesMatchScalarPredictor(t *testing.T) {
	model := cost.DefaultAnalytic()
	for name, pr := range corpus(t) {
		t.Run(name, func(t *testing.T) {
			lost := 0
			for _, md := range modes() {
				var ls []lanes.Lane
				for mi, m := range machines(pr.P) {
					for si, seed := range []int64{1, 42, 999} {
						plan := plans()[(mi+si)%len(plans())]
						// Scale a couple of parameters so lanes disagree on the
						// LogGP vector, not just on seeds and faults.
						m := m
						m.L *= 1 + 0.1*float64(si)
						m.Gap *= 1 + 0.05*float64(mi)
						ln := lanes.Lane{Params: m, Seed: seed, Faults: plan}
						if md.fabric != nil {
							ln.Network = md.fabric(pr.P, m)
						}
						ls = append(ls, ln)
					}
				}
				base := predictor.Config{Cost: model}
				md.set(&base)
				var eng lanes.Engine
				results, err := eng.Run(pr, laneConfig(pr, base), ls)
				if err != nil {
					t.Fatalf("%s: %v", md.name, err)
				}
				var ref sessionReplay
				for l, res := range results {
					var want predictor.Prediction
					cfg := base
					cfg.Params, cfg.Seed, cfg.Faults = ls[l].Params, ls[l].Seed, ls[l].Faults
					if md.fabric != nil {
						cfg.Network = md.fabric(pr.P, ls[l].Params)
					}
					refErr := ref.PredictInto(&want, pr, cfg)
					if checkLane(t, fmt.Sprintf("%s lane %d", md.name, l), &eng, l, res, &want, refErr) {
						lost++
					}
				}
			}
			if name == "rings" && lost == 0 {
				t.Fatal("no ring lane lost a message; masking went unexercised")
			}
		})
	}
}

// TestStandardOnlySkipsOnlyTheWorstCase runs every corpus program in
// every mode twice over the same lane grid, the second time with every
// other lane StandardOnly. A flagged lane must read out TotalWorst and
// CommWorst as zero and every other readout bit for bit as before.
// Drop decisions depend only on message identities, so a lost message
// is lost in the standard slot first and a flagged lane fails exactly
// as before. Every unflagged lane must be unchanged in every bit.
func TestStandardOnlySkipsOnlyTheWorstCase(t *testing.T) {
	model := cost.DefaultAnalytic()
	for name, pr := range corpus(t) {
		for _, md := range modes() {
			laneSet := func(flag bool) []lanes.Lane {
				var ls []lanes.Lane
				for mi, m := range machines(pr.P) {
					for si, seed := range []int64{1, 42, 999} {
						m := m
						m.L *= 1 + 0.1*float64(si)
						ln := lanes.Lane{Params: m, Seed: seed, Faults: plans()[(mi+si)%len(plans())]}
						if md.fabric != nil {
							ln.Network = md.fabric(pr.P, m)
						}
						ln.StandardOnly = flag && len(ls)%2 == 0
						ls = append(ls, ln)
					}
				}
				return ls
			}
			base := predictor.Config{Cost: model}
			md.set(&base)
			cfg := laneConfig(pr, base)
			var ref, eng lanes.Engine
			want, err := ref.Run(pr, cfg, laneSet(false))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, md.name, err)
			}
			ls := laneSet(true)
			got, err := eng.Run(pr, cfg, ls)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, md.name, err)
			}
			for l := range ls {
				what := fmt.Sprintf("%s/%s lane %d", name, md.name, l)
				w, g := want[l], got[l]
				if fmt.Sprint(g.Err) != fmt.Sprint(w.Err) {
					t.Fatalf("%s: error %v, want %v", what, g.Err, w.Err)
				}
				if w.Err != nil {
					continue
				}
				if ls[l].StandardOnly {
					if g.TotalWorst != 0 || g.CommWorst != 0 {
						t.Fatalf("%s: standard-only lane reads TotalWorst %v, CommWorst %v", what, g.TotalWorst, g.CommWorst)
					}
					w.TotalWorst, w.CommWorst = 0, 0
				}
				for _, f := range []struct {
					name     string
					got, ref float64
				}{
					{"Total", g.Total, w.Total}, {"TotalWorst", g.TotalWorst, w.TotalWorst},
					{"Comp", g.Comp, w.Comp}, {"Comm", g.Comm, w.Comm}, {"CommWorst", g.CommWorst, w.CommWorst},
				} {
					if bitsDiffer(f.got, f.ref) {
						t.Fatalf("%s: %s = %v, want %v", what, f.name, f.got, f.ref)
					}
				}
				for q, c := range eng.CompPerProc(l) {
					if bitsDiffer(c, ref.CompPerProc(l)[q]) {
						t.Fatalf("%s: CompPerProc[%d] = %v, want %v", what, q, c, ref.CompPerProc(l)[q])
					}
				}
				for si, st := range eng.Profile(l) {
					if st != ref.Profile(l)[si] {
						t.Fatalf("%s: profile step %d = %+v, want %+v", what, si, st, ref.Profile(l)[si])
					}
				}
			}
		}
	}
}

// TestLanesTieBreakMatchesScalar pins when the standard core consumes
// tie-break randomness. Totals rarely depend on which tied sender goes
// first, so the corpus above passes even if the core draws once per
// commit instead of only on genuine ties; on this program and the
// no-cross-gap machine about half of the seeds change total when one
// draw is added or dropped.
func TestLanesTieBreakMatchesScalar(t *testing.T) {
	model := cost.DefaultAnalytic()
	pr := build(8, trace.Random(8, 32, 1024, 1), trace.Random(8, 24, 256, 8))
	m := loggp.MeikoCS2(8)
	m.NoCrossGap = true
	ls := make([]lanes.Lane, 16)
	for l := range ls {
		ls[l] = lanes.Lane{Params: m, Seed: int64(l + 1)}
	}
	var eng lanes.Engine
	results, err := eng.Run(pr, lanes.Config{Cost: model}, ls)
	if err != nil {
		t.Fatal(err)
	}
	var ref sessionReplay
	for l, res := range results {
		var want predictor.Prediction
		refErr := ref.PredictInto(&want, pr, predictor.Config{Params: m, Cost: model, Seed: ls[l].Seed})
		checkLane(t, fmt.Sprintf("seed %d", ls[l].Seed), &eng, l, res, &want, refErr)
	}
}

// TestEngineReuse runs the same engine across different programs, lane
// counts and machines; storage reuse must not leak state between runs.
// The rings program returns on each of the four machines at unchanged
// message sizes, so a byte class tabulated for one run's lanes must not
// serve the next run's.
func TestEngineReuse(t *testing.T) {
	model := cost.DefaultAnalytic()
	prs := corpus(t)
	var eng lanes.Engine
	for run, name := range []string{"rings", "random", "rings", "empty", "symmetric", "rings", "ge", "rings"} {
		pr := prs[name]
		n := 3 + len(name)%4
		ls := make([]lanes.Lane, n)
		m := machines(pr.P)[run%4]
		for i := range ls {
			ls[i] = lanes.Lane{Params: m, Seed: int64(i + 1)}
		}
		reused, err := eng.Run(pr, lanes.Config{Cost: model}, ls)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh, err := lanes.Run(pr, lanes.Config{Cost: model}, ls)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for l := range ls {
			if reused[l] != fresh[l] {
				t.Fatalf("%s lane %d: reused engine diverges: %+v vs %+v", name, l, reused[l], fresh[l])
			}
		}
	}
}

// TestLaneIsolation checks that a lane rejected at configuration time
// (bad parameters, machine too small) fails alone.
func TestLaneIsolation(t *testing.T) {
	pr := build(4, trace.Ring(4, 128))
	ls := []lanes.Lane{
		{Params: loggp.MeikoCS2(4), Seed: 1},
		{Params: loggp.Params{L: -5, O: 1, Gap: 1, P: 4}, Seed: 1},
		{Params: loggp.MeikoCS2(2), Seed: 1},
		{Params: loggp.MeikoCS2(4), Seed: 1},
	}
	results, err := lanes.Run(pr, lanes.Config{Cost: cost.DefaultAnalytic()}, ls)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Err == nil || results[2].Err == nil {
		t.Fatalf("invalid lanes accepted: %+v", results)
	}
	if results[0].Err != nil || results[3].Err != nil {
		t.Fatalf("valid lanes poisoned by invalid neighbours: %+v", results)
	}
	if results[0] != results[3] {
		t.Fatalf("identical lanes disagree: %+v vs %+v", results[0], results[3])
	}
}

// TestRunRejectsBadInput covers the shared-input errors.
func TestRunRejectsBadInput(t *testing.T) {
	pr := build(2, trace.New(2).Add(0, 1, 64))
	if _, err := lanes.Run(pr, lanes.Config{}, []lanes.Lane{{Params: loggp.MeikoCS2(2)}}); err == nil {
		t.Fatal("nil cost model accepted")
	}
	if _, err := lanes.Run(pr, lanes.Config{Cost: cost.DefaultAnalytic()}, nil); err == nil {
		t.Fatal("empty lane set accepted")
	}
}

// TestContextCancellation checks the lane-step deadline granularity: a
// pre-cancelled context aborts the whole run with the context's error.
func TestContextCancellation(t *testing.T) {
	pr := build(4, trace.Ring(4, 128), trace.Ring(4, 128))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := lanes.Run(pr, lanes.Config{Cost: cost.DefaultAnalytic(), Ctx: ctx},
		[]lanes.Lane{{Params: loggp.MeikoCS2(4), Seed: 1}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestLostLanePreservesLossError pins the error contract: a lost lane's
// error chain must expose the *faults.LossError so callers can separate
// losses from internal failures, as robust does.
func TestLostLanePreservesLossError(t *testing.T) {
	pr := build(4, trace.AllToAll(4, 256), trace.AllToAll(4, 256))
	ls := []lanes.Lane{{
		Params: loggp.MeikoCS2(4),
		Seed:   2,
		Faults: faults.Plan{Seed: 1, Drop: faults.Drop{Prob: 0.95, MaxRetries: 1}},
	}}
	results, err := lanes.Run(pr, lanes.Config{Cost: cost.DefaultAnalytic()}, ls)
	if err != nil {
		t.Fatal(err)
	}
	var le *faults.LossError
	if results[0].Err == nil || !errors.As(results[0].Err, &le) {
		t.Fatalf("lost lane error %v does not expose *faults.LossError", results[0].Err)
	}
	if fmt.Sprint(le) == "" {
		t.Fatal("empty loss error")
	}
}

// blockCost prices an operation at its block size in microseconds, so a
// test can place each processor's first send at a chosen time.
type blockCost struct{}

func (blockCost) Cost(_ blockops.Op, b int) float64 { return float64(b) }
func (blockCost) Name() string                      { return "block" }

// TestLanesBreakArrivalTiesBySequence pins the run-head heap's tie
// rule: equal arrivals at one receiver are received in push order. On
// the machine below a message of k bytes sent at s arrives at
// s + 6 + (k-1)/2, and a received 9-byte message holds the receiver's
// next receive off for 4µs, a 1-byte one for 2µs. Processor 0 sends
// nothing and receives, in the drain phase: from 2 (sent at 11, 1 byte,
// arrives 17), from 1 (sent at 10, 9 bytes, arrives 20, pushed first)
// and from 3 (sent at 14, 1 byte, arrives 20, pushed last). Receiving
// 1 before 3 finishes processor 0 at 25; a heap that ignores the push
// order surfaces 3 first once 2's run empties, finishing at 23.
func TestLanesBreakArrivalTiesBySequence(t *testing.T) {
	pr := program.New(4)
	s := pr.AddStep()
	s.AddOp(1, blockops.Op1, 10)
	s.AddOp(2, blockops.Op1, 11)
	s.AddOp(3, blockops.Op1, 14)
	s.Comm.Add(1, 0, 9).Add(2, 0, 1).Add(3, 0, 1)
	m := loggp.Params{L: 5, O: 1, Gap: 2, G: 0.5, P: 4}
	var eng lanes.Engine
	results, err := eng.Run(pr, lanes.Config{Cost: blockCost{}}, []lanes.Lane{{Params: m, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var want predictor.Prediction
	var ref sessionReplay
	refErr := ref.PredictInto(&want, pr, predictor.Config{Params: m, Cost: blockCost{}, Seed: 1})
	checkLane(t, "arrival ties", &eng, 0, results[0], &want, refErr)
	if results[0].Total != 25 || results[0].TotalWorst != 25 {
		t.Fatalf("totals %g / %g, want 25 / 25", results[0].Total, results[0].TotalWorst)
	}
}
