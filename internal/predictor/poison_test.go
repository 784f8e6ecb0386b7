package predictor

// Regression tests for two serve-layer prerequisites: a pooled
// evaluator whose prediction fails must never be repooled in unknown
// session state, and Config.Ctx must abort a replay between steps.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"loggpsim/internal/blockops"
	"loggpsim/internal/cost"
	"loggpsim/internal/faults"
	"loggpsim/internal/loggp"
)

// lossyConfig returns a configuration whose first dropped message
// exhausts its zero-retry budget mid-replay: Predict fails with a
// *faults.LossError after the sessions have already advanced.
func lossyConfig(p int) Config {
	return Config{
		Params: loggp.MeikoCS2(p),
		Cost:   cost.DefaultAnalytic(),
		Seed:   3,
		Faults: faults.Plan{Seed: 5, Drop: faults.Drop{Prob: 0.9, RTO: 10, MaxRetries: 0}},
	}
}

// TestFailedPredictionDoesNotRepoolEvaluator drives the package-level
// Predict through a mid-replay failure on a private pool and asserts the
// poisoned evaluator was dropped: the next Get must construct a fresh
// evaluator (nil sessions), not hand back the one whose sessions the
// failed replay left mid-program.
func TestFailedPredictionDoesNotRepoolEvaluator(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // keep the pool's per-P caches to one
	old := evalPool
	evalPool = &sync.Pool{New: func() any { return NewEvaluator() }}
	defer func() { evalPool = old }()

	pr := geProgram(t, 96, 8, 4)
	if _, err := Predict(pr, lossyConfig(4)); err == nil {
		t.Fatal("lossy prediction unexpectedly succeeded; raise the drop probability")
	} else {
		var le *faults.LossError
		if !errors.As(err, &le) {
			t.Fatalf("lossy prediction failed with %v, want *faults.LossError", err)
		}
	}
	if e := evalPool.Get().(*Evaluator); e.eng != nil {
		t.Fatal("pool returned a used evaluator after a failed prediction; it must have been dropped")
	}

	// The success path still repools: two predictions in a row reuse
	// one evaluator (its sessions are non-nil the second time around).
	// Not assertable under -race, where sync.Pool drops Puts at random
	// by design.
	good := Config{Params: loggp.MeikoCS2(4), Cost: cost.DefaultAnalytic(), Seed: 3}
	if _, err := Predict(pr, good); err != nil {
		t.Fatal(err)
	}
	if !raceEnabled {
		e := evalPool.Get().(*Evaluator)
		if e.eng == nil {
			t.Fatal("pool lost the evaluator of a successful prediction")
		}
		evalPool.Put(e)
	}
}

// TestPanickedPredictionDoesNotRepoolEvaluator is the same invariant for
// the panic path: the deferred repool of the old implementation ran even
// while a panic was unwinding, re-circulating an evaluator abandoned
// mid-step.
func TestPanickedPredictionDoesNotRepoolEvaluator(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	old := evalPool
	evalPool = &sync.Pool{New: func() any { return NewEvaluator() }}
	defer func() { evalPool = old }()

	pr := geProgram(t, 96, 8, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("prediction with a panicking cost model did not panic")
			}
		}()
		_, _ = Predict(pr, Config{
			Params: loggp.MeikoCS2(4),
			Cost:   panicModel{},
			Seed:   3,
		})
	}()
	if e := evalPool.Get().(*Evaluator); e.eng != nil {
		t.Fatal("pool returned a used evaluator after a panicked prediction")
	}
}

// panicModel is a cost model that panics — a stand-in for any bug
// inside the replay loop.
type panicModel struct{}

func (m panicModel) Cost(op blockops.Op, b int) float64 {
	panic("cost model exploded")
}

func (m panicModel) Name() string { return "panic" }

// TestPooledPredictionsUnaffectedByInterleavedFailures is the
// satellite's end-to-end form: pooled predictions that share the pool
// with failing ones must keep producing exactly the results a fresh
// evaluator produces.
func TestPooledPredictionsUnaffectedByInterleavedFailures(t *testing.T) {
	pr := geProgram(t, 96, 8, 4)
	good := Config{Params: loggp.MeikoCS2(4), Cost: cost.DefaultAnalytic(), Seed: 3}
	want, err := NewEvaluator().Predict(pr, good)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		if _, err := Predict(pr, lossyConfig(4)); err == nil {
			t.Fatal("lossy prediction unexpectedly succeeded")
		}
		got, err := Predict(pr, good)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: pooled prediction diverged after interleaved failure:\n got %+v\nwant %+v", round, got, want)
		}
	}
}

// TestContextAbortsBetweenSteps pins the deadline contract: a context
// cancelled before the replay starts aborts at step 0, and the error
// wraps the context's error so callers can map it to a degraded
// response.
func TestContextAbortsBetweenSteps(t *testing.T) {
	pr := geProgram(t, 96, 8, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Params: loggp.MeikoCS2(4), Cost: cost.DefaultAnalytic(), Seed: 3, Ctx: ctx}
	_, err := Predict(pr, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Predict with cancelled ctx = %v, want wrapped context.Canceled", err)
	}

	// A live context changes nothing: same prediction as without one.
	cfg.Ctx = context.Background()
	got, err := Predict(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ctx = nil
	want, err := Predict(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live context changed the prediction:\n got %+v\nwant %+v", got, want)
	}
}
