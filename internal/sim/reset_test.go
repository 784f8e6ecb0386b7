package sim

// Session-reuse tests: a Reset (or Reconfigure) session must be
// indistinguishable from a freshly constructed one — no leakage of
// clocks, gap floors, cached message-size derivatives, queued messages
// or RNG position between candidates — including across patterns of
// different processor counts and message counts.

import (
	"reflect"
	"testing"

	"loggpsim/internal/loggp"
	"loggpsim/internal/trace"
)

// freshResult runs pt on a brand-new session with the given config.
func freshResult(t *testing.T, procs int, cfg Config, pt *trace.Pattern) *Result {
	t.Helper()
	sess, err := NewSession(procs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sess.Communicate(pt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResetMatchesFreshSession drives one session through a sequence of
// patterns with different processor counts and message counts, resetting
// between them, and checks every run equals a fresh session's.
func TestResetMatchesFreshSession(t *testing.T) {
	params := loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 16}
	cfg := Config{Params: params, Seed: 3}
	sequence := []*trace.Pattern{
		trace.AllToAll(16, 64),         // dense, P=16
		trace.Figure3(),                // sparse, P=10
		trace.Butterfly(4, 512),        // P=16 again, more messages
		trace.Ring(2, 1000),            // tiny, P=2
		trace.Random(12, 100, 2048, 9), // P=12, random sizes
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
		want := freshResult(t, pt.P, cfg, pt)
		requireIdentical(t, got, want)
	}
	// Reset(nil) restores the configured shape (16 processors, zero
	// clocks) even after the session was last dimensioned to P=12.
	if err := sess.Reset(nil); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Communicate(sequence[0])
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, freshResult(t, 16, cfg, sequence[0]))
}

// TestResetClearsMultiStepState resets a session mid-program — after
// computation steps and a communication step have accumulated clocks,
// gap state and RNG draws — and checks the replay is exact.
func TestResetClearsMultiStepState(t *testing.T) {
	params := loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 10}
	cfg := Config{Params: params, Seed: 17}
	durs := make([]float64, 10)
	for i := range durs {
		durs[i] = float64(i % 3)
	}
	program := func(t *testing.T, sess *Session) []*Result {
		t.Helper()
		var out []*Result
		for _, pt := range []*trace.Pattern{trace.Figure3(), trace.Gather(10, 2, 512)} {
			if err := sess.Compute(durs); err != nil {
				t.Fatal(err)
			}
			r, err := sess.Communicate(pt)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}

	sess, err := NewSession(10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := program(t, sess)
	if err := sess.Reset(nil); err != nil {
		t.Fatal(err)
	}
	second := program(t, sess)
	for i := range first {
		requireIdentical(t, first[i], second[i])
	}

	fresh, err := NewSession(10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := program(t, fresh)
	for i := range want {
		requireIdentical(t, second[i], want[i])
	}
}

// TestReconfigureMatchesNewSession re-aims one session across machines
// and processor counts and checks each reconfiguration behaves exactly
// like a new session — including when P shrinks and grows again, which
// exercises the state-revival path of resize.
func TestReconfigureMatchesNewSession(t *testing.T) {
	shapes := []struct {
		procs int
		cfg   Config
		pt    *trace.Pattern
	}{
		{16, Config{Params: loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 16}, Seed: 1}, trace.AllToAll(16, 64)},
		{4, Config{Params: loggp.Params{L: 1, O: 1, Gap: 40, G: 0.5, P: 4}, Seed: 2}, trace.Ring(4, 300)},
		{16, Config{Params: loggp.Params{L: 25, O: 12, Gap: 3, G: 0, P: 16}, Seed: 3, GlobalOrder: true}, trace.Butterfly(4, 128)},
		{12, Config{Params: loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 12}, Seed: 5, WorstCase: true}, trace.AllToAll(12, 64)},
		{10, Config{Params: loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 10}, Seed: 4, SendPriority: true}, trace.Figure3()},
	}
	sess := &Session{}
	for _, sh := range shapes {
		if err := sess.Reconfigure(sh.procs, sh.cfg); err != nil {
			t.Fatal(err)
		}
		got, err := sess.Communicate(sh.pt)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, got, freshResult(t, sh.procs, sh.cfg, sh.pt))
	}
}

// TestReconfigureRederivesMessageSizes re-aims a session that has
// replayed a multi-step program of one message size at a machine with
// other o, g and G, no cross-operation gap and a rendezvous threshold
// below that size, and replays the program again: every step and the
// final clocks must equal a fresh session's bit for bit, in the paper
// mode and in WorstCase, so no derivative of the first machine outlives
// Reconfigure.
func TestReconfigureRederivesMessageSizes(t *testing.T) {
	const p, bytes = 8, 512
	durs := []float64{0, 3, 1, 4, 1, 5, 9, 2}
	program := func(t *testing.T, sess *Session) ([]*Result, []float64) {
		t.Helper()
		var out []*Result
		for _, pt := range []*trace.Pattern{trace.AllToAll(p, bytes), trace.Ring(p, bytes), trace.Butterfly(3, bytes)} {
			if err := sess.Compute(durs); err != nil {
				t.Fatal(err)
			}
			r, err := sess.Communicate(pt)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out, sess.Clocks()
	}
	other := loggp.Params{L: 9, O: 3, Gap: 60, G: 0.04, P: p, NoCrossGap: true, S: 256}
	for _, worst := range []bool{false, true} {
		sess, err := NewSession(p, Config{Params: loggp.MeikoCS2(p), Seed: 5, WorstCase: worst})
		if err != nil {
			t.Fatal(err)
		}
		program(t, sess)
		cfg := Config{Params: other, Seed: 5, WorstCase: worst}
		if err := sess.Reconfigure(p, cfg); err != nil {
			t.Fatal(err)
		}
		got, gotClocks := program(t, sess)
		fresh, err := NewSession(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, wantClocks := program(t, fresh)
		for i := range want {
			requireIdentical(t, got[i], want[i])
		}
		if !reflect.DeepEqual(gotClocks, wantClocks) {
			t.Fatalf("worst case %v: clocks after Reconfigure %v, fresh session %v", worst, gotClocks, wantClocks)
		}
		if worst && want[1].DeadlocksBroken == 0 {
			t.Fatal("worst-case ring broke no deadlock")
		}
	}
}

// TestResetBoundsChecked: re-dimensioning past the machine's P, or to
// zero processors, must fail.
func TestResetBoundsChecked(t *testing.T) {
	sess, err := NewSession(4, Config{Params: loggp.Params{L: 1, O: 1, Gap: 1, G: 0, P: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Reset(make([]float64, 5)); err == nil {
		t.Fatal("Reset grew past Params.P")
	}
	if err := sess.Reset([]float64{}); err == nil {
		t.Fatal("Reset accepted zero processors")
	}
}

// TestReconfigureRejectsWorstCaseOptions: the worst-case mode is the
// time-ordered loop with its receive gate, on the flat LogGP network,
// so each of the options that select another loop or another delivery
// model is refused alongside it. The mode on its own is accepted
// afterwards and runs like a fresh session.
func TestReconfigureRejectsWorstCaseOptions(t *testing.T) {
	params := loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 4}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"SendPriority", Config{Params: params, WorstCase: true, SendPriority: true}},
		{"GlobalOrder", Config{Params: params, WorstCase: true, GlobalOrder: true}},
		{"Network", Config{Params: params, WorstCase: true, Network: badNetwork{}}},
		{"Jitter", Config{Params: params, WorstCase: true, Jitter: func(int, int) float64 { return 0 }}},
	} {
		sess := &Session{}
		if err := sess.Reconfigure(4, tc.cfg); err == nil {
			t.Fatalf("Reconfigure accepted WorstCase with %s", tc.name)
		}
		if _, err := NewSession(4, tc.cfg); err == nil {
			t.Fatalf("NewSession accepted WorstCase with %s", tc.name)
		}
		cfg := Config{Params: params, Seed: 7, WorstCase: true}
		if err := sess.Reconfigure(4, cfg); err != nil {
			t.Fatal(err)
		}
		got, err := sess.Communicate(trace.Ring(4, 8))
		if err != nil {
			t.Fatal(err)
		}
		if got.DeadlocksBroken == 0 {
			t.Fatal("worst-case ring broke no deadlock")
		}
		requireIdentical(t, got, freshResult(t, 4, cfg, trace.Ring(4, 8)))
	}
}
