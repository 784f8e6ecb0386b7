package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 8, 200} {
		got, err := Map(nil, workers, items, func(i, v int) (int, error) { return v * v, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range got {
			if r != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(nil, 0, nil, func(i, v int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("Map(nil, 0, nil) = (%v, %v)", got, err)
	}
}

func TestMapEveryItemSeen(t *testing.T) {
	var n atomic.Int64
	items := make([]int, 57)
	_, err := Map(nil, 4, items, func(i, v int) (int, error) {
		n.Add(1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 57 {
		t.Fatalf("fn called %d times, want 57", n.Load())
	}
}

func TestMapFirstErrorSerial(t *testing.T) {
	items := []int{0, 1, 2, 3, 4}
	boom := errors.New("boom")
	var calls []int
	_, err := Map(nil, 1, items, func(i, v int) (int, error) {
		calls = append(calls, i)
		if i >= 2 {
			return 0, fmt.Errorf("item %d: %w", i, boom)
		}
		return v, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// One worker behaves exactly like the serial loop: the error is item
	// 2's and nothing after it runs.
	if err.Error() != "item 2: boom" {
		t.Fatalf("err = %v, want item 2's error", err)
	}
	want := []int{0, 1, 2}
	if len(calls) != len(want) {
		t.Fatalf("ran items %v, want %v", calls, want)
	}
}

func TestMapLowestIndexedErrorParallel(t *testing.T) {
	// Every item fails; regardless of scheduling, the reported error must
	// be item 0's (it always runs: cancellation can only stop items that
	// were not yet claimed, and item 0 is claimed first).
	items := make([]int, 20)
	_, err := Map(nil, 8, items, func(i, v int) (int, error) {
		return 0, fmt.Errorf("item %d failed", i)
	})
	if err == nil || err.Error() != "item 0 failed" {
		t.Fatalf("err = %v, want item 0's", err)
	}
}

func TestMapCancelsAfterError(t *testing.T) {
	var ran atomic.Int64
	items := make([]int, 1000)
	_, err := Map(nil, 2, items, func(i, v int) (int, error) {
		ran.Add(1)
		return 0, errors.New("fail fast")
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	// With 2 workers at most a couple of items past the failure can have
	// been claimed before cancellation is observed.
	if ran.Load() > 10 {
		t.Fatalf("%d items ran after the first failure", ran.Load())
	}
}

func TestMapWorkersDefault(t *testing.T) {
	// Worker counts 0 and -3 select the GOMAXPROCS default and must
	// still complete correctly.
	for _, w := range []int{0, -3} {
		got, err := Map(nil, w, []int{1, 2, 3}, func(i, v int) (int, error) { return v + 1, nil })
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 2 || got[1] != 3 || got[2] != 4 {
			t.Fatalf("got %v", got)
		}
	}
}

func TestSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := Seed(7, i)
		if s2 := Seed(7, i); s2 != s {
			t.Fatalf("Seed(7,%d) not deterministic: %d vs %d", i, s, s2)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("Seed(7,%d) collides with Seed(7,%d)", i, prev)
		}
		seen[s] = i
	}
	if Seed(1, 0) == Seed(2, 0) {
		t.Fatal("different bases produced the same seed")
	}
}

func TestMapPanicBecomesPositionedError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, workers := range []int{1, 4} {
		_, err := Map(nil, workers, items, func(i, v int) (int, error) {
			if i == 3 {
				panic("poisoned item")
			}
			return v, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 3 || pe.Value != "poisoned item" {
			t.Fatalf("workers=%d: panic attributed to item %d (%v), want 3", workers, pe.Index, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: no stack recorded", workers)
		}
	}
}

func TestMapPanicLowestIndexWins(t *testing.T) {
	// Item 0 always runs; its panic must win over later items' errors.
	items := make([]int, 16)
	_, err := Map(nil, 4, items, func(i, v int) (int, error) {
		if i == 0 {
			panic(fmt.Sprintf("item %d", i))
		}
		return 0, fmt.Errorf("item %d failed", i)
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 0 {
		t.Fatalf("err = %v, want item 0's panic", err)
	}
}

func TestMapContextCancelBoundedDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	items := make([]int, 1000)
	// Item 0, the first claimed, cancels; every other item returns only
	// after the cancellation, so no item can finish before it and each
	// worker claims at most one item before it sees the context done.
	_, err := Map(ctx, 2, items, func(i, v int) (int, error) {
		ran.Add(1)
		if i == 0 {
			cancel()
		} else {
			<-ctx.Done()
		}
		return v, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Bounded drain: at most one item per worker ran.
	if n := ran.Load(); n > 2 {
		t.Fatalf("%d items ran, want at most one per worker", n)
	}
}

func TestMapContextItemErrorStillWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	items := make([]int, 100)
	_, err := Map(ctx, 2, items, func(i, v int) (int, error) {
		if i == 0 {
			cancel()
			return 0, fmt.Errorf("item 0: %w", boom)
		}
		return v, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want item 0's error over context.Canceled", err)
	}
}

func TestMapContextCompletedSweepIgnoresLateCancel(t *testing.T) {
	// Cancelling after every item completed must not discard the results.
	ctx, cancel := context.WithCancel(context.Background())
	var left atomic.Int64
	left.Store(10)
	items := make([]int, 10)
	got, err := Map(ctx, 2, items, func(i, v int) (int, error) {
		if left.Add(-1) == 0 {
			cancel()
		}
		return i, nil
	})
	if err != nil {
		t.Fatalf("err = %v, want nil: all items completed", err)
	}
	if len(got) != 10 {
		t.Fatalf("got %d results, want 10", len(got))
	}
}

// TestLimiterAcquireRespectsContext pins the deadline behaviour the
// serve layer leans on: a request waiting for budget must give up the
// moment its deadline expires, and an already-expired context must lose
// even when a slot is free.
func TestLimiterAcquireRespectsContext(t *testing.T) {
	lim := NewLimiter(1)
	if err := lim.Acquire(nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := lim.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire on exhausted limiter with cancelled ctx = %v, want context.Canceled", err)
	}
	lim.Release()
	// Slot free, context already done: the context still wins.
	if err := lim.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire with pre-cancelled ctx = %v, want context.Canceled", err)
	}
}
