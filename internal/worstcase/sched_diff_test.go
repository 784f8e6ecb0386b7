package worstcase

// Differential tests for the worst-case scheduler: the production
// session (sim's tournament-served time-ordered loop with the receive
// gate on) must be bit-identical to the independent reference session
// of reference_test.go — including the RNG-driven choice of which
// blocked processor releases a forced send when a cyclic pattern
// deadlocks.

import (
	"fmt"
	"reflect"
	"testing"

	"loggpsim/internal/loggp"
	"loggpsim/internal/trace"
)

func diffParams(p int) []loggp.Params {
	return []loggp.Params{
		{L: 9, O: 2, Gap: 16, G: 0.07, P: p},
		{L: 1, O: 1, Gap: 40, G: 0.5, P: p},
		{L: 25, O: 12, Gap: 3, G: 0, P: p, NoCrossGap: true},
		{L: 9, O: 2, Gap: 16, G: 0.07, P: p, S: 256},
	}
}

// diffCorpus leans on cyclic shapes — ring, all-to-all, butterfly,
// random — because deadlock breaking is the worst-case algorithm's one
// randomized choice; the acyclic shapes check the pure counter path.
// alltoall65 (a non-power-of-two P) and random200 put the tournament
// tree seven and eight levels deep.
func diffCorpus() map[string]*trace.Pattern {
	withSelf := trace.Random(9, 40, 2048, 5)
	withSelf.AddLocal(3, 100)
	return map[string]*trace.Pattern{
		"figure3":    trace.Figure3(),
		"ring":       trace.Ring(16, 112),
		"twocycle":   trace.Ring(2, 500),
		"alltoall":   trace.AllToAll(12, 64),
		"butterfly":  trace.Butterfly(4, 512),
		"gather":     trace.Gather(10, 0, 1024),
		"random":     trace.Random(13, 80, 4096, 11),
		"randomdag":  trace.RandomDAG(11, 60, 2048, 7),
		"selfmsg":    withSelf,
		"alltoall65": trace.AllToAll(65, 64),
		"random200":  trace.Random(200, 1600, 1024, 3),
	}
}

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

func requireIdentical(t *testing.T, indexed, reference *Result) {
	t.Helper()
	if indexed.Finish != reference.Finish {
		t.Fatalf("Finish: indexed %v, reference %v", indexed.Finish, reference.Finish)
	}
	if !reflect.DeepEqual(indexed.ProcFinish, reference.ProcFinish) {
		t.Fatalf("ProcFinish:\nindexed   %v\nreference %v", indexed.ProcFinish, reference.ProcFinish)
	}
	if indexed.DeadlocksBroken != reference.DeadlocksBroken {
		t.Fatalf("DeadlocksBroken: indexed %d, reference %d",
			indexed.DeadlocksBroken, reference.DeadlocksBroken)
	}
	if indexed.SelfMessages != reference.SelfMessages {
		t.Fatalf("SelfMessages: indexed %d, reference %d", indexed.SelfMessages, reference.SelfMessages)
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

// TestIndexedWorstcaseMatchesReference sweeps the corpus across machines
// and seeds. Seeds matter on the cyclic patterns, where the blocked-set
// release draws from the RNG; the indexed loop must collect the blocked
// set in the same ascending order and consume randomness identically.
func TestIndexedWorstcaseMatchesReference(t *testing.T) {
	for name, pt := range diffCorpus() {
		for pi, params := range diffParams(pt.P) {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("%s/m%d/s%d", name, pi, seed), func(t *testing.T) {
					cfg := Config{Params: params, Seed: seed}
					indexed, reference := runBoth(t, pt, cfg)
					requireIdentical(t, indexed, reference)
					if name == "ring" || name == "twocycle" || name == "alltoall" {
						if indexed.DeadlocksBroken == 0 {
							t.Fatalf("cyclic pattern %s broke no deadlocks", name)
						}
					}
				})
			}
		}
	}
}

// TestIndexedWorstcaseMatchesReferenceMultiStep carries gap state and
// RNG position across alternating computation and communication steps.
func TestIndexedWorstcaseMatchesReferenceMultiStep(t *testing.T) {
	params := loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 10}
	steps := []*trace.Pattern{
		trace.Figure3(),
		trace.Ring(10, 64),
		trace.Random(10, 30, 512, 3),
	}
	durs := make([]float64, 10)
	for i := range durs {
		durs[i] = float64((i*7)%4) * 2.5
	}

	run := func(reference bool) []*Result {
		t.Helper()
		cfg := Config{Params: params, Seed: 42}
		sess, err := NewSession(10, cfg)
		if err != nil {
			t.Fatal(err)
		}
		compute, communicate := sess.Compute, sess.CommunicateInto
		if reference {
			ref, err := newRefSession(10, cfg)
			if err != nil {
				t.Fatal(err)
			}
			compute, communicate = ref.compute, ref.communicate
		}
		var out []*Result
		for _, pt := range steps {
			if err := compute(durs); err != nil {
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

// TestWorstcaseResetMatchesFreshSession reuses one session across
// patterns of different processor and message counts; every run after a
// Reset must equal a fresh session's (no counter, queue, clock or RNG
// leakage).
func TestWorstcaseResetMatchesFreshSession(t *testing.T) {
	params := loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 16}
	cfg := Config{Params: params, Seed: 3}
	sequence := []*trace.Pattern{
		trace.AllToAll(16, 64),
		trace.Figure3(),
		trace.Ring(2, 1000),
		trace.Butterfly(4, 512),
		trace.Random(12, 100, 2048, 9),
	}
	sess, err := NewSession(16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ready := make([]float64, 16)
	for _, pt := range sequence {
		if err := sess.Reset(ready[:pt.P]); err != nil {
			t.Fatal(err)
		}
		got, err := sess.Communicate(pt)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSession(pt.P, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Communicate(pt)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, got, want)
	}
}

// TestWorstcaseQuietModeMatchesRecording checks the quiet fast path
// computes the identical schedule, deadlock breaks included.
func TestWorstcaseQuietModeMatchesRecording(t *testing.T) {
	pt := trace.AllToAll(8, 256)
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
	if quiet.Finish != loud.Finish || quiet.DeadlocksBroken != loud.DeadlocksBroken {
		t.Fatalf("quiet (%v, %d) vs loud (%v, %d)",
			quiet.Finish, quiet.DeadlocksBroken, loud.Finish, loud.DeadlocksBroken)
	}
}
