package eventq

import (
	"math"
	"math/rand"
	"testing"
)

// scanMin is the oracle for Min: the ascending linear scan with
// strict-less updates that the tournament tree replaces in the
// schedulers.
func scanMin(keys []float64) (int, float64) {
	best, bestKey := -1, math.Inf(1)
	for i, k := range keys {
		if k < bestKey {
			best, bestKey = i, k
		}
	}
	if best < 0 {
		return -1, math.Inf(1)
	}
	return best, bestKey
}

// scanTies is the oracle for Ties and Nth: the equal-minimum set of the
// finite keys, in ascending index order, as the reference Figure-2 scan
// collects it.
func scanTies(keys []float64) []int {
	var set []int
	minKey := math.Inf(1)
	for i, k := range keys {
		switch {
		case k < minKey:
			minKey = k
			set = append(set[:0], i)
		case k == minKey && !math.IsInf(k, 1):
			set = append(set, i)
		}
	}
	return set
}

// requireTies checks Ties and every Nth against the scan oracle.
func requireTies(t *testing.T, tt *Tournament, keys []float64) {
	t.Helper()
	want := scanTies(keys)
	if got := tt.Ties(); got != len(want) {
		t.Fatalf("Ties = %d, scan has %d tied indices %v", got, len(want), want)
	}
	for k, w := range want {
		if got := tt.Nth(k); got != w {
			t.Fatalf("Nth(%d) = %d, scan's tied indices %v", k, got, want)
		}
	}
}

func TestTournamentEmpty(t *testing.T) {
	var tt Tournament
	if i, k := tt.Min(); i != -1 || !math.IsInf(k, 1) {
		t.Fatalf("zero-value Min = (%d, %v)", i, k)
	}
	if n := tt.Ties(); n != 0 {
		t.Fatalf("zero-value Ties = %d", n)
	}
	tt.Reset(0)
	if i, _ := tt.Min(); i != -1 {
		t.Fatalf("Reset(0) Min = %d", i)
	}
	// Five indices in eight leaves: the three padding leaves must not
	// count as ties of the all-+Inf minimum.
	tt.Reset(5)
	if i, k := tt.Min(); i != -1 || !math.IsInf(k, 1) {
		t.Fatalf("all-Inf Min = (%d, %v)", i, k)
	}
	if n := tt.Ties(); n != 0 {
		t.Fatalf("all-Inf Ties = %d", n)
	}
	tt.Update(4, 1)
	tt.Update(4, math.Inf(1))
	if n := tt.Ties(); n != 0 {
		t.Fatalf("Ties = %d after clearing the only finite key", n)
	}
}

func TestTournamentTiesPickLowestIndex(t *testing.T) {
	var tt Tournament
	tt.Reset(7)
	for _, i := range []int{6, 2, 4} {
		tt.Update(i, 10)
	}
	if i, k := tt.Min(); i != 2 || k != 10 {
		t.Fatalf("Min = (%d, %v), want (2, 10)", i, k)
	}
	if n := tt.Ties(); n != 3 {
		t.Fatalf("Ties = %d, want 3", n)
	}
	tt.Update(2, math.Inf(1))
	if i, _ := tt.Min(); i != 4 {
		t.Fatalf("Min after removing 2 = %d, want 4", i)
	}
	tt.Update(0, 10)
	if i, _ := tt.Min(); i != 0 {
		t.Fatalf("Min after adding 0 = %d, want 0", i)
	}
	tt.Update(5, 9)
	if i, k := tt.Min(); i != 5 || k != 9 || tt.Ties() != 1 {
		t.Fatalf("Min = (%d, %v) with %d ties, want (5, 9) alone", i, k, tt.Ties())
	}
}

func TestTournamentSingleIndex(t *testing.T) {
	var tt Tournament
	tt.Reset(1)
	tt.Update(0, 3.5)
	if i, k := tt.Min(); i != 0 || k != 3.5 || tt.Ties() != 1 {
		t.Fatalf("Min = (%d, %v), Ties = %d", i, k, tt.Ties())
	}
	tt.Update(0, math.Inf(1))
	if i, _ := tt.Min(); i != -1 {
		t.Fatalf("Min = %d after clearing the only index", i)
	}
}

// TestTournamentMatchesScanRandomized drives random update sequences over
// varying sizes (powers of two and not) and checks Min, Ties and every
// Nth against the scan oracles after every update, including duplicate
// keys and +Inf removals.
func TestTournamentMatchesScanRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tt Tournament
	for _, n := range []int{1, 2, 3, 7, 8, 9, 33, 100} {
		tt.Reset(n)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = math.Inf(1)
		}
		for step := 0; step < 400; step++ {
			i := rng.Intn(n)
			var k float64
			switch rng.Intn(4) {
			case 0:
				k = math.Inf(1) // remove
			case 1:
				k = float64(rng.Intn(8)) // heavy duplicates
			default:
				k = rng.Float64() * 100
			}
			keys[i] = k
			tt.Update(i, k)
			wantI, wantK := scanMin(keys)
			gotI, gotK := tt.Min()
			if gotI != wantI || gotK != wantK {
				t.Fatalf("n=%d step=%d: Min = (%d, %v), scan = (%d, %v)",
					n, step, gotI, gotK, wantI, wantK)
			}
			requireTies(t, &tt, keys)
		}
	}
}

// refMinPick is the oracle for one Figure-2 selection: the reference
// loop's scan over the senders' clocks (+Inf for processors done
// sending), including its exact RNG discipline (Intn called only when
// the equal-min set has more than one member).
func refMinPick(clocks []float64, rng *rand.Rand) (int, bool) {
	minSet := scanTies(clocks)
	switch len(minSet) {
	case 0:
		return 0, false
	case 1:
		return minSet[0], true
	}
	return minSet[rng.Intn(len(minSet))], true
}

// treePick is the same selection as the Figure-2 core makes it on the
// tree.
func treePick(tt *Tournament, rng *rand.Rand) (int, bool) {
	ties := tt.Ties()
	if ties == 0 {
		return 0, false
	}
	k := 0
	if ties > 1 {
		k = rng.Intn(ties)
	}
	return tt.Nth(k), true
}

// TestTournamentTieBreakMatchesScan runs randomized pick/commit/re-seat
// schedules — the exact access pattern of sim's Figure-2 core — against
// the scan oracle with a twin RNG, checking every pick and that both
// RNGs end at the same position.
func TestTournamentTieBreakMatchesScan(t *testing.T) {
	for _, p := range []int{1, 2, 17, 64, 65, 200} {
		drive := rand.New(rand.NewSource(int64(p)))
		rngA := rand.New(rand.NewSource(99))
		rngB := rand.New(rand.NewSource(99))

		var tt Tournament
		tt.Reset(p)
		clocks := make([]float64, p)
		for i := range clocks {
			// Few distinct values => large equal-min sets (the lockstep
			// regime where tie-break randomness is consumed every pick).
			clocks[i] = float64(drive.Intn(4))
			tt.Update(i, clocks[i])
		}
		for step := 0; ; step++ {
			got, gotOK := treePick(&tt, rngA)
			want, wantOK := refMinPick(clocks, rngB)
			if gotOK != wantOK || (gotOK && got != want) {
				t.Fatalf("p=%d step=%d: pick = (%d,%v), scan = (%d,%v)",
					p, step, got, gotOK, want, wantOK)
			}
			if !gotOK {
				break
			}
			// Mimic a commit: the picked processor's clock advances and it
			// stays a sender with probability 2/3, else it is done sending.
			if drive.Intn(3) < 2 {
				clocks[got] += float64(drive.Intn(3)) // may stay equal
			} else {
				clocks[got] = math.Inf(1)
			}
			tt.Update(got, clocks[got])
		}
		if a, b := rngA.Int63(), rngB.Int63(); a != b {
			t.Fatalf("p=%d: RNG streams diverged (%d vs %d)", p, a, b)
		}
	}
}

// TestTournamentNthAcrossSubtrees checks the k-th-member selection at a
// non-power-of-two size, with tied members straddling subtree boundaries
// at every level and larger keys interleaved between them.
func TestTournamentNthAcrossSubtrees(t *testing.T) {
	const n = 200
	var tt Tournament
	tt.Reset(n)
	members := []int{0, 1, 63, 64, 70, 127, 128, 190, 199}
	for i := 2; i < n; i += 3 {
		tt.Update(i, 8) // larger keys must not count
	}
	for _, m := range members {
		tt.Update(m, 5)
	}
	if got := tt.Ties(); got != len(members) {
		t.Fatalf("Ties = %d, want %d", got, len(members))
	}
	for k, want := range members {
		if got := tt.Nth(k); got != want {
			t.Fatalf("Nth(%d) = %d, want %d", k, got, want)
		}
	}
	if i, k := tt.Min(); i != 0 || k != 5 {
		t.Fatalf("Min = (%d, %v), want (0, 5)", i, k)
	}
}

// TestTournamentResetClearsAbandonedState simulates the failed-run case:
// keys left set (as after a hook error ends a step early) must not leak
// into the next step, even when the index count shrinks.
func TestTournamentResetClearsAbandonedState(t *testing.T) {
	var tt Tournament
	tt.Reset(128)
	for i := 0; i < 128; i++ {
		tt.Update(i, float64(i%5))
	}
	tt.Reset(8) // abandon mid-run, shrink
	if n := tt.Ties(); n != 0 {
		t.Fatalf("%d stale indices survived reset", n)
	}
	tt.Update(3, 7)
	if n, i := tt.Ties(), tt.Nth(0); n != 1 || i != 3 {
		t.Fatalf("Ties = %d, Nth(0) = %d, want 1 and 3", n, i)
	}
}

// TestTournamentResetReuses shrinks and regrows a tree, checking stale
// state never leaks across Reset and that a reused size allocates
// nothing.
func TestTournamentResetReuses(t *testing.T) {
	var tt Tournament
	tt.Reset(64)
	for i := 0; i < 64; i++ {
		tt.Update(i, float64(64-i))
	}
	tt.Reset(5)
	if i, _ := tt.Min(); i != -1 {
		t.Fatalf("stale keys survived shrink: Min = %d", i)
	}
	tt.Update(3, 2)
	if i, k := tt.Min(); i != 3 || k != 2 {
		t.Fatalf("Min = (%d, %v)", i, k)
	}
	tt.Reset(64)
	if i, _ := tt.Min(); i != -1 {
		t.Fatalf("stale keys survived regrow: Min = %d", i)
	}
	allocs := testing.AllocsPerRun(10, func() { tt.Reset(64) })
	if allocs != 0 {
		t.Fatalf("Reset to a previously seen size allocated %v times", allocs)
	}
}
