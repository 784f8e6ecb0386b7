package sim

// Differential tests for the indexed scheduler core: the Figure-2 loop
// and the global-order loop, both served by the tournament tree, must
// produce results bit-identical — timelines, finish times,
// per-processor clocks and RNG-driven tie-breaks included — to the
// reference linear scans they replaced (runPaperReference,
// runGlobalOrderReference in reference_test.go).

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"loggpsim/internal/loggp"
	"loggpsim/internal/trace"
)

// diffParams is the machine grid the differential corpus runs on: a
// Meiko-like machine, a gap-dominated one, an overhead-dominated one with
// the cross-gap ablation, and a LogGPS machine with a rendezvous
// threshold in the middle of the corpus's message sizes.
func diffParams(p int) []loggp.Params {
	return []loggp.Params{
		{L: 9, O: 2, Gap: 16, G: 0.07, P: p},
		{L: 1, O: 1, Gap: 40, G: 0.5, P: p},
		{L: 25, O: 12, Gap: 3, G: 0, P: p, NoCrossGap: true},
		{L: 9, O: 2, Gap: 16, G: 0.07, P: p, S: 256},
	}
}

// diffCorpus returns the named patterns the differential tests sweep:
// the paper's Figure 3 plus the generator families, covering acyclic,
// cyclic, dense, sparse, randomized and self-message-bearing shapes.
// alltoall65 (lockstep ties at a non-power-of-two P) and random200 put
// the selection tree seven and eight levels deep.
func diffCorpus() map[string]*trace.Pattern {
	withSelf := trace.Random(9, 40, 2048, 5)
	withSelf.AddLocal(3, 100) // self messages are skipped, not scheduled
	withSelf.AddLocal(7, 1)
	return map[string]*trace.Pattern{
		"figure3":    trace.Figure3(),
		"ring":       trace.Ring(16, 112),
		"shift":      trace.Shift(12, 5, 300),
		"alltoall":   trace.AllToAll(12, 64),
		"butterfly":  trace.Butterfly(4, 512),
		"gather":     trace.Gather(10, 0, 1024),
		"scatter":    trace.Scatter(10, 3, 1024),
		"random":     trace.Random(13, 80, 4096, 11),
		"randomdag":  trace.RandomDAG(11, 60, 2048, 7),
		"selfmsg":    withSelf,
		"alltoall65": trace.AllToAll(65, 64),
		"random200":  trace.Random(200, 1600, 1024, 3),
	}
}

// runBoth simulates pt under cfg with the indexed core and with the
// reference core, on otherwise identical fresh sessions.
func runBoth(t *testing.T, pt *trace.Pattern, cfg Config) (indexed, reference *Result) {
	t.Helper()
	indexed, err := Run(pt, cfg)
	if err != nil {
		t.Fatalf("indexed: %v", err)
	}
	reference, err = simulateReference(pt, cfg)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return indexed, reference
}

// requireIdentical asserts two results are bit-identical: same finish,
// same per-processor clocks, the same counts, and the same operations
// committed in the same order with the same starts.
func requireIdentical(t *testing.T, indexed, reference *Result) {
	t.Helper()
	if indexed.Finish != reference.Finish {
		t.Fatalf("Finish: indexed %v, reference %v", indexed.Finish, reference.Finish)
	}
	if !reflect.DeepEqual(indexed.ProcFinish, reference.ProcFinish) {
		t.Fatalf("ProcFinish:\nindexed   %v\nreference %v", indexed.ProcFinish, reference.ProcFinish)
	}
	if indexed.SelfMessages != reference.SelfMessages {
		t.Fatalf("SelfMessages: indexed %d, reference %d", indexed.SelfMessages, reference.SelfMessages)
	}
	if indexed.DeadlocksBroken != reference.DeadlocksBroken {
		t.Fatalf("DeadlocksBroken: indexed %d, reference %d", indexed.DeadlocksBroken, reference.DeadlocksBroken)
	}
	a, b := indexed.Timeline.Ops, reference.Timeline.Ops
	if len(a) != len(b) {
		t.Fatalf("timeline length: indexed %d, reference %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: indexed %+v, reference %+v", i, a[i], b[i])
		}
	}
}

// TestIndexedSchedulerMatchesReference sweeps the corpus across machines,
// seeds and every scheduler mode, comparing the indexed cores against the
// reference scans operation by operation. Seeds matter because the
// Figure-2 tie-break consumes randomness only when the minimum-clock set
// has more than one member, so an extra or missing RNG call anywhere
// desynchronizes every later choice.
func TestIndexedSchedulerMatchesReference(t *testing.T) {
	for name, pt := range diffCorpus() {
		for pi, params := range diffParams(pt.P) {
			for seed := int64(0); seed < 3; seed++ {
				for _, mode := range []struct {
					name         string
					sendPriority bool
					globalOrder  bool
				}{
					{"paper", false, false},
					{"sendpri", true, false},
					{"globalorder", false, true},
					{"globalorder_sendpri", true, true},
				} {
					t.Run(fmt.Sprintf("%s/m%d/s%d/%s", name, pi, seed, mode.name), func(t *testing.T) {
						cfg := Config{
							Params:       params,
							Seed:         seed,
							SendPriority: mode.sendPriority,
							GlobalOrder:  mode.globalOrder,
						}
						indexed, reference := runBoth(t, pt, cfg)
						requireIdentical(t, indexed, reference)
					})
				}
			}
		}
	}
}

// TestIndexedSchedulerMatchesReferenceWithReady repeats the comparison
// with staggered start clocks, which shift the minimum-clock order away
// from the all-zero lockstep start.
func TestIndexedSchedulerMatchesReferenceWithReady(t *testing.T) {
	pt := trace.AllToAll(8, 200)
	ready := make([]float64, 8)
	for i := range ready {
		ready[i] = float64((i * 13) % 5) // duplicate values keep ties in play
	}
	for seed := int64(0); seed < 4; seed++ {
		for _, global := range []bool{false, true} {
			cfg := Config{
				Params:      loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 8},
				Ready:       ready,
				Seed:        seed,
				GlobalOrder: global,
			}
			indexed, reference := runBoth(t, pt, cfg)
			requireIdentical(t, indexed, reference)
		}
	}
}

// TestIndexedSchedulerMatchesReferenceMultiStep compares the cores over a
// whole session — alternating computation and communication steps — so
// gap state, clocks and RNG position carried across steps must agree too.
func TestIndexedSchedulerMatchesReferenceMultiStep(t *testing.T) {
	params := loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 10}
	steps := []*trace.Pattern{
		trace.Figure3(),
		trace.Ring(10, 64),
		trace.Random(10, 30, 512, 3),
		trace.Gather(10, 4, 2048),
	}
	durs := make([]float64, 10)
	for i := range durs {
		durs[i] = float64((i*7)%4) * 2.5
	}

	run := func(reference bool) []*Result {
		t.Helper()
		sess, err := NewSession(10, Config{Params: params, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		communicate := sess.CommunicateInto
		if reference {
			communicate = sess.communicateReference
		}
		var out []*Result
		for _, pt := range steps {
			if err := sess.Compute(durs); err != nil {
				t.Fatal(err)
			}
			r := &Result{}
			if err := communicate(r, pt); err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}

	indexed, reference := run(false), run(true)
	for i := range indexed {
		requireIdentical(t, indexed[i], reference[i])
	}
}

// TestQuietModeMatchesRecordingIndexed checks the indexed core computes
// the identical schedule with timeline recording off (NoTimeline).
func TestQuietModeMatchesRecordingIndexed(t *testing.T) {
	pt := trace.Butterfly(3, 256)
	params := loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 8}
	loud, err := Run(pt, Config{Params: params, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := Run(pt, Config{Params: params, Seed: 1, NoTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Timeline != nil || quiet.ProcFinish != nil {
		t.Fatalf("quiet mode recorded: %+v", quiet)
	}
	if quiet.Finish != loud.Finish {
		t.Fatalf("Finish: quiet %v, loud %v", quiet.Finish, loud.Finish)
	}
}

// TestValidateReady exercises the new start-clock validation: NaN, ±Inf
// and negative entries must be rejected by NewSession and Reset alike.
func TestValidateReady(t *testing.T) {
	params := loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 4}
	for _, bad := range [][]float64{
		{0, math.NaN(), 0, 0},
		{0, 0, math.Inf(1), 0},
		{0, 0, 0, math.Inf(-1)},
		{0, -1e-9, 0, 0},
	} {
		if _, err := NewSession(4, Config{Params: params, Ready: bad}); err == nil {
			t.Fatalf("NewSession accepted ready %v", bad)
		}
		sess, err := NewSession(4, Config{Params: params})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Reset(bad); err == nil {
			t.Fatalf("Reset accepted ready %v", bad)
		}
	}
	// Non-finite machine parameters must be rejected at validation too.
	for _, p := range []loggp.Params{
		{L: math.NaN(), O: 2, Gap: 16, G: 0.07, P: 4},
		{L: 9, O: math.Inf(1), Gap: 16, G: 0.07, P: 4},
		{L: 9, O: 2, Gap: math.NaN(), G: 0.07, P: 4},
		{L: 9, O: 2, Gap: 16, G: math.Inf(-1), P: 4},
	} {
		if err := p.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", p)
		}
	}
}

// TestHookErrorOnNonFiniteArrival checks the commit loop refuses NaN/Inf
// arrival keys produced by the Jitter and Network hooks instead of
// feeding them to the receive heaps.
func TestHookErrorOnNonFiniteArrival(t *testing.T) {
	pt := trace.Ring(4, 100)
	params := loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 4}
	_, err := Run(pt, Config{
		Params: params,
		Jitter: func(int, int) float64 { return math.NaN() },
	})
	if err == nil {
		t.Fatal("NaN jitter accepted")
	}
	_, err = Run(pt, Config{
		Params:  params,
		Network: badNetwork{},
	})
	if err == nil {
		t.Fatal("Inf network arrival accepted")
	}
}

type badNetwork struct{}

func (badNetwork) Arrival(src, dst, bytes int, inject float64) float64 {
	return math.Inf(1)
}
