// Package sweep is the repository's parallel fan-out engine. The paper's
// method replaces closed-form analysis by simulation, so every practical
// question — best block size, best layout, sensitivity to a LogGP
// parameter, scaling over processor counts — becomes a sweep of many
// independent predictions. This package runs such sweeps on a worker
// pool while keeping them indistinguishable from the serial loops they
// replace: results come back in input order, each item sees exactly the
// inputs the serial code would give it, and a deterministic per-item
// seed derivation is provided for callers that want independent random
// streams per candidate.
//
// The engine itself introduces no randomness and no ordering dependence:
// a sweep whose items are pure functions of their inputs produces
// byte-identical output at any worker count, which the equivalence tests
// in the consuming packages assert.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Limiter is a budgeted-submission gate: a counting semaphore bounding
// the combined concurrency of the work that shares it (the serve layer's
// request workers hold one slot each).
type Limiter struct {
	slots chan struct{}
}

// NewLimiter returns a limiter admitting up to n concurrent holders.
// Values below 1 select 1.
func NewLimiter(n int) *Limiter {
	if n < 1 {
		n = 1
	}
	return &Limiter{slots: make(chan struct{}, n)}
}

// Acquire blocks until a slot is free or ctx is done, returning ctx's
// error in the latter case. A nil ctx blocks indefinitely.
func (l *Limiter) Acquire(ctx context.Context) error {
	if ctx == nil {
		l.slots <- struct{}{}
		return nil
	}
	// A context that is already done must win even when a slot is also
	// free, so a deadline-expired request never starts late work.
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case l.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken by Acquire.
func (l *Limiter) Release() { <-l.slots }

// Seed derives a deterministic per-item seed from a base seed and an
// item index, using a SplitMix64-style finalizer so that consecutive
// indices yield statistically independent streams. Item i always gets
// the same seed regardless of worker count or completion order.
func Seed(base int64, index int) int64 {
	z := uint64(base) + uint64(index+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// PanicError is the error Map reports when fn panics: the panic is
// recovered inside the worker — one poisoned item must not kill a
// process holding hours of sweep progress — converted into a positioned
// error, and propagated through the ordinary lowest-index error path.
type PanicError struct {
	// Index is the input position of the item whose evaluation panicked.
	Index int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: item %d panicked: %v", e.Index, e.Value)
}

// runItem evaluates one item, converting a panic in fn into a
// *PanicError attributed to the item's index.
func runItem[T, R any](fn func(i int, item T) (R, error), i int, item T) (r R, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i, item)
}

// Map evaluates fn over every item on a pool of workers and returns the
// results in input order. fn receives the item's index and value; it must
// be safe for concurrent use when more than one worker is configured.
// workers below 1 select runtime.GOMAXPROCS(0).
//
// On failure Map cancels the sweep — workers stop picking up new items —
// and returns the error of the lowest-indexed failed item among those
// that ran (with one worker this is exactly the serial loop's first
// error). A panic in fn counts as that item failing with a *PanicError
// rather than crashing the process. Which later items still execute
// after a failure is unspecified; their results are discarded.
//
// Cancelling ctx stops workers from claiming new items; items already
// running finish (bounded drain), so fn should watch ctx itself if an
// item must stop sooner. A cancelled Map returns the context's error —
// unless some item had already failed, in which case the lowest-index
// item error still wins, or every item had already completed, in which
// case the full results are returned. A nil ctx never cancels.
func Map[T, R any](ctx context.Context, workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, nil
	}
	if workers > len(items) {
		workers = len(items)
	}

	var (
		mu     sync.Mutex
		next   int // next unclaimed item index
		done   int
		errIdx = -1 // lowest failed index seen
		first  error
	)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx != nil && ctx.Err() != nil {
					return
				}
				mu.Lock()
				if errIdx >= 0 || next >= len(items) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				r, err := runItem(fn, i, items[i])

				mu.Lock()
				if err != nil {
					if errIdx < 0 || i < errIdx {
						errIdx, first = i, err
					}
				} else {
					results[i] = r
					done++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	if ctx != nil && done < len(items) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return results, nil
}
