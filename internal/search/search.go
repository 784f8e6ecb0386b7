// Package search implements the paper's proposed future work: finding
// the optimal block size (and layout) automatically from the predicted
// running times. The paper notes this "reduces to a search problem and
// therefore some heuristics have to be used"; the package provides the
// exhaustive sweep plus two cheaper heuristics — a discrete ternary
// search exploiting the roughly unimodal shape of the time-versus-block-
// size curve, and a local hill climb for sawtooth-shaped curves where
// unimodality only holds approximately. The exhaustive sweep can fan out
// over a worker pool (SweepParallel) with results identical to the
// serial loop; the heuristics are inherently sequential and memoize
// their probes serially.
package search

import (
	"context"
	"errors"
	"fmt"

	"loggpsim/internal/sweep"
)

// Objective evaluates one candidate block size, returning the predicted
// running time in microseconds. Evaluations are expensive (a full
// program generation plus simulation), so the heuristics minimize them.
type Objective func(blockSize int) (float64, error)

// Result reports a finished search.
type Result struct {
	// Best is the block size with the smallest observed objective.
	Best int
	// Value is the objective at Best.
	Value float64
	// Evaluations counts objective calls (after memoization, distinct
	// block sizes evaluated).
	Evaluations int
}

// ErrNoCandidates is returned when the candidate list is empty.
var ErrNoCandidates = errors.New("search: no candidate block sizes")

// memo is the heuristics' serial memo: a repeated probe of one block
// size costs nothing, and len(vals) counts the distinct sizes
// evaluated. A failed evaluation is not cached, so a later probe of the
// same size evaluates again. Not safe for concurrent use.
type memo struct {
	f    Objective
	vals map[int]float64
}

func newMemo(f Objective) *memo { return &memo{f: f, vals: map[int]float64{}} }

func (m *memo) eval(b int) (float64, error) {
	if v, ok := m.vals[b]; ok {
		return v, nil
	}
	v, err := m.f(b)
	if err != nil {
		return 0, err
	}
	m.vals[b] = v
	return v, nil
}

// SweepParallel evaluates every candidate and returns the global
// minimum — the paper's baseline strategy — on a worker pool (workers < 1
// selects runtime.GOMAXPROCS(0)). The objective must be safe for
// concurrent use when more than one worker is configured. Duplicate
// candidates are dropped before the pool starts, so each distinct
// block size is evaluated once. The result is identical at every worker
// count: the distinct sizes keep their first-occurrence order, values
// are collected in that order and the minimum scan runs serially, so
// ties resolve to the earliest candidate exactly as in a serial loop
// over the input (a duplicate's value equals its first occurrence's,
// so it can never win).
func SweepParallel(sizes []int, f Objective, workers int) (Result, error) {
	if len(sizes) == 0 {
		return Result{}, ErrNoCandidates
	}
	seen := make(map[int]bool, len(sizes))
	distinct := make([]int, 0, len(sizes))
	for _, b := range sizes {
		if !seen[b] {
			seen[b] = true
			distinct = append(distinct, b)
		}
	}
	vals, err := sweep.Map(context.TODO(), workers, distinct, func(_, b int) (float64, error) {
		v, err := f(b)
		if err != nil {
			return 0, fmt.Errorf("search: evaluating block size %d: %w", b, err)
		}
		return v, nil
	})
	if err != nil {
		return Result{}, err
	}
	best := Result{Best: -1, Evaluations: len(distinct)}
	for i, v := range vals {
		if best.Best < 0 || v < best.Value {
			best.Best, best.Value = distinct[i], v
		}
	}
	return best, nil
}

// Ternary performs a discrete ternary search over the candidate list,
// assuming the objective is unimodal in the list order. It needs
// O(log n) evaluations; on non-unimodal (sawtooth) curves it returns a
// good local optimum rather than the global one.
func Ternary(sizes []int, f Objective) (Result, error) {
	if len(sizes) == 0 {
		return Result{}, ErrNoCandidates
	}
	m := newMemo(f)
	lo, hi := 0, len(sizes)-1
	for hi-lo > 2 {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		v1, err := m.eval(sizes[m1])
		if err != nil {
			return Result{}, err
		}
		v2, err := m.eval(sizes[m2])
		if err != nil {
			return Result{}, err
		}
		if v1 < v2 {
			hi = m2 - 1
		} else {
			lo = m1 + 1
		}
	}
	best := Result{Best: -1}
	for i := lo; i <= hi; i++ {
		v, err := m.eval(sizes[i])
		if err != nil {
			return Result{}, err
		}
		if best.Best < 0 || v < best.Value {
			best.Best, best.Value = sizes[i], v
		}
	}
	best.Evaluations = len(m.vals)
	return best, nil
}

// HillClimb walks from the candidate at startIdx to a local minimum in
// list order, probing immediate neighbours until neither improves. On a
// unimodal curve it finds the global optimum; on a sawtooth it finds the
// local optimum of the starting basin.
func HillClimb(sizes []int, f Objective, startIdx int) (Result, error) {
	if len(sizes) == 0 {
		return Result{}, ErrNoCandidates
	}
	if startIdx < 0 || startIdx >= len(sizes) {
		return Result{}, fmt.Errorf("search: start index %d outside [0,%d)", startIdx, len(sizes))
	}
	m := newMemo(f)
	cur := startIdx
	curVal, err := m.eval(sizes[cur])
	if err != nil {
		return Result{}, err
	}
	for {
		bestN, bestV := -1, curVal
		for _, n := range []int{cur - 1, cur + 1} {
			if n < 0 || n >= len(sizes) {
				continue
			}
			v, err := m.eval(sizes[n])
			if err != nil {
				return Result{}, err
			}
			if v < bestV {
				bestN, bestV = n, v
			}
		}
		if bestN < 0 {
			return Result{Best: sizes[cur], Value: curVal, Evaluations: len(m.vals)}, nil
		}
		cur, curVal = bestN, bestV
	}
}

// Argmin evaluates n alternatives by index (e.g. candidate layouts) and
// returns the index with the smallest value.
func Argmin(n int, eval func(i int) (float64, error)) (int, float64, error) {
	if n <= 0 {
		return 0, 0, ErrNoCandidates
	}
	bestI, bestV := -1, 0.0
	for i := 0; i < n; i++ {
		v, err := eval(i)
		if err != nil {
			return 0, 0, err
		}
		if bestI < 0 || v < bestV {
			bestI, bestV = i, v
		}
	}
	return bestI, bestV, nil
}
