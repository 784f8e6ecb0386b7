package search

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

var sizes = []int{8, 10, 12, 16, 20, 24, 30, 32, 40, 48, 60, 80, 96, 120}

// convex is unimodal with minimum at 40.
func convex(b int) (float64, error) {
	return math.Pow(float64(b)-40, 2) + 5, nil
}

// sawtooth has a global minimum at 30 and a decoy local minimum at 96.
func sawtooth(b int) (float64, error) {
	base := map[int]float64{
		8: 90, 10: 80, 12: 70, 16: 55, 20: 40, 24: 25, 30: 10, 32: 30,
		40: 50, 48: 45, 60: 60, 80: 55, 96: 20, 120: 65,
	}
	return base[b], nil
}

func TestSweepFindsGlobalMin(t *testing.T) {
	r, err := SweepParallel(sizes, sawtooth, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Best != 30 || r.Value != 10 {
		t.Fatalf("Sweep = %+v, want best 30", r)
	}
	if r.Evaluations != len(sizes) {
		t.Fatalf("Sweep evaluations = %d, want %d", r.Evaluations, len(sizes))
	}
}

func TestTernaryOnUnimodal(t *testing.T) {
	r, err := Ternary(sizes, convex)
	if err != nil {
		t.Fatal(err)
	}
	if r.Best != 40 {
		t.Fatalf("Ternary best = %d, want 40", r.Best)
	}
	if r.Evaluations >= len(sizes) {
		t.Fatalf("Ternary used %d evaluations, no better than sweep", r.Evaluations)
	}
}

func TestHillClimbOnUnimodal(t *testing.T) {
	for _, start := range []int{0, len(sizes) / 2, len(sizes) - 1} {
		r, err := HillClimb(sizes, convex, start)
		if err != nil {
			t.Fatal(err)
		}
		if r.Best != 40 {
			t.Fatalf("HillClimb from %d: best = %d, want 40", start, r.Best)
		}
	}
}

func TestHillClimbFindsLocalBasin(t *testing.T) {
	// Starting at index of 80 (decoy basin), the climb must land on the
	// local optimum 96, not the global 30.
	r, err := HillClimb(sizes, sawtooth, 11)
	if err != nil {
		t.Fatal(err)
	}
	if r.Best != 96 {
		t.Fatalf("HillClimb in decoy basin: best = %d, want 96", r.Best)
	}
}

func TestMemoizedAvoidsReevaluation(t *testing.T) {
	calls := 0
	m := newMemo(func(b int) (float64, error) {
		calls++
		return float64(b), nil
	})
	for i := 0; i < 5; i++ {
		if _, err := m.eval(8); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 || len(m.vals) != 1 {
		t.Fatalf("calls = %d distinct = %d, want 1,1", calls, len(m.vals))
	}
}

func TestErrorsPropagate(t *testing.T) {
	boom := errors.New("boom")
	bad := func(int) (float64, error) { return 0, boom }
	if _, err := SweepParallel(sizes, bad, 1); !errors.Is(err, boom) {
		t.Errorf("Sweep error = %v", err)
	}
	if _, err := Ternary(sizes, bad); !errors.Is(err, boom) {
		t.Errorf("Ternary error = %v", err)
	}
	if _, err := HillClimb(sizes, bad, 0); !errors.Is(err, boom) {
		t.Errorf("HillClimb error = %v", err)
	}
}

func TestEmptyAndBadInputs(t *testing.T) {
	if _, err := SweepParallel(nil, convex, 1); !errors.Is(err, ErrNoCandidates) {
		t.Error("empty Sweep accepted")
	}
	if _, err := Ternary(nil, convex); !errors.Is(err, ErrNoCandidates) {
		t.Error("empty Ternary accepted")
	}
	if _, err := HillClimb(nil, convex, 0); !errors.Is(err, ErrNoCandidates) {
		t.Error("empty HillClimb accepted")
	}
	if _, err := HillClimb(sizes, convex, 99); err == nil {
		t.Error("out-of-range start accepted")
	}
}

func TestSingleCandidate(t *testing.T) {
	for name, fn := range map[string]func() (Result, error){
		"sweep":   func() (Result, error) { return SweepParallel([]int{16}, convex, 1) },
		"ternary": func() (Result, error) { return Ternary([]int{16}, convex) },
		"climb":   func() (Result, error) { return HillClimb([]int{16}, convex, 0) },
	} {
		r, err := fn()
		if err != nil || r.Best != 16 {
			t.Errorf("%s: %+v, %v", name, r, err)
		}
	}
}

func TestArgmin(t *testing.T) {
	vals := []float64{3, 1, 2}
	i, v, err := Argmin(len(vals), func(i int) (float64, error) { return vals[i], nil })
	if err != nil || i != 1 || v != 1 {
		t.Fatalf("Argmin = %d,%g,%v", i, v, err)
	}
	if _, _, err := Argmin(0, nil); !errors.Is(err, ErrNoCandidates) {
		t.Error("empty Argmin accepted")
	}
	boom := errors.New("x")
	if _, _, err := Argmin(2, func(int) (float64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Error("Argmin error not propagated")
	}
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	// Deterministic-equivalence: the parallel sweep must return exactly
	// the serial result (same best, same value bit-for-bit, same
	// evaluation count) at every worker count — including on a curve with
	// a tied minimum, where input order decides the winner.
	tied := func(b int) (float64, error) {
		if b == 24 || b == 60 {
			return 1.0, nil
		}
		return convex(b)
	}
	for _, f := range []Objective{convex, sawtooth, tied} {
		want, err := SweepParallel(sizes, f, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := SweepParallel(sizes, f, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("workers=%d: %+v, want serial %+v", workers, got, want)
			}
		}
	}
}

func TestSweepParallelDedupsDuplicates(t *testing.T) {
	var calls atomic.Int64
	f := func(b int) (float64, error) {
		calls.Add(1)
		return float64(b), nil
	}
	dup := []int{8, 8, 16, 8, 16, 24}
	r, err := SweepParallel(dup, f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Best != 8 || r.Evaluations != 3 {
		t.Fatalf("got %+v, want best 8 with 3 evaluations", r)
	}
	if calls.Load() != 3 {
		t.Fatalf("objective ran %d times, want 3 (in-flight dedup)", calls.Load())
	}
}

func TestMemoizedErrorNotCached(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	m := newMemo(func(b int) (float64, error) {
		if calls++; calls == 1 {
			return 0, boom
		}
		return float64(b), nil
	})
	if _, err := m.eval(5); !errors.Is(err, boom) {
		t.Fatalf("first call error = %v", err)
	}
	// The failure must not be cached: the retry re-runs the objective.
	v, err := m.eval(5)
	if err != nil || v != 5 {
		t.Fatalf("retry = (%g, %v), want (5, nil)", v, err)
	}
	if calls != 2 || len(m.vals) != 1 {
		t.Fatalf("calls = %d distinct = %d, want 2 calls and 1 success", calls, len(m.vals))
	}
}
