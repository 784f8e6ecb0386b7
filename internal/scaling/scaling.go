// Package scaling analyzes the scaling behaviour of predicted running
// times — the second use the paper's introduction names for its method
// ("the prediction of running times is also useful for analyzing the
// scaling behavior of parallel programs"). Given a prediction function,
// it produces speedup and efficiency curves over processor counts and
// searches for iso-efficient problem sizes.
package scaling

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"loggpsim/internal/sweep"
)

// Point is one processor count of a scaling sweep.
type Point struct {
	// P is the processor count.
	P int
	// Time is the predicted running time.
	Time float64
	// Speedup is Time(base)·base.P/ (Time·1) normalized so that the
	// baseline point has Speedup == base.P (for a baseline of one
	// processor this is the classic T(1)/T(P)).
	Speedup float64
	// Efficiency is Speedup / P, in (0, 1] for well-behaved programs.
	Efficiency float64
}

// ErrNoPoints is returned for empty sweeps.
var ErrNoPoints = errors.New("scaling: no processor counts")

// Sweep predicts the running time for every processor count (sorted
// ascending; the smallest is the baseline) and derives speedups and
// efficiencies. It is SweepParallel with one worker.
func Sweep(procs []int, predict func(p int) (float64, error)) ([]Point, error) {
	return SweepParallel(procs, predict, 1)
}

// SweepParallel is Sweep with the per-processor-count predictions fanned
// out over a worker pool (workers < 1 selects runtime.GOMAXPROCS(0)).
// predict must be safe for concurrent use when more than one worker is
// configured; the curve is identical to the serial Sweep at every worker
// count, since speedups and efficiencies are derived serially from the
// ordered prediction results.
func SweepParallel(procs []int, predict func(p int) (float64, error), workers int) ([]Point, error) {
	if len(procs) == 0 {
		return nil, ErrNoPoints
	}
	ps := append([]int(nil), procs...)
	sort.Ints(ps)
	if ps[0] <= 0 {
		return nil, fmt.Errorf("scaling: invalid processor count %d", ps[0])
	}
	points, err := sweep.Map(context.TODO(), workers, ps, func(_ int, p int) (Point, error) {
		t, err := predict(p)
		if err != nil {
			return Point{}, fmt.Errorf("scaling: predicting P=%d: %w", p, err)
		}
		if t <= 0 {
			return Point{}, fmt.Errorf("scaling: non-positive time %g at P=%d", t, p)
		}
		return Point{P: p, Time: t}, nil
	})
	if err != nil {
		return nil, err
	}
	base := points[0]
	for i := range points {
		points[i].Speedup = base.Time * float64(base.P) / points[i].Time
		points[i].Efficiency = points[i].Speedup / float64(points[i].P)
	}
	return points, nil
}

// FindIsoefficientSize returns the smallest candidate problem size whose
// predicted efficiency at p processors (relative to baseP processors on
// the same size) reaches target — the iso-efficiency question "how much
// must the problem grow to keep P processors busy?". Candidates are
// tried in ascending order; ErrNoPoints is returned if none qualifies.
func FindIsoefficientSize(sizes []int, p, baseP int, target float64,
	predict func(n, procs int) (float64, error)) (int, error) {
	if len(sizes) == 0 {
		return 0, ErrNoPoints
	}
	if p <= 0 || baseP <= 0 || baseP > p {
		return 0, fmt.Errorf("scaling: invalid processor counts base=%d target=%d", baseP, p)
	}
	ns := append([]int(nil), sizes...)
	sort.Ints(ns)
	for _, n := range ns {
		tBase, err := predict(n, baseP)
		if err != nil {
			return 0, fmt.Errorf("scaling: predicting n=%d P=%d: %w", n, baseP, err)
		}
		tP, err := predict(n, p)
		if err != nil {
			return 0, fmt.Errorf("scaling: predicting n=%d P=%d: %w", n, p, err)
		}
		if tBase <= 0 || tP <= 0 {
			return 0, fmt.Errorf("scaling: non-positive prediction at n=%d", n)
		}
		eff := tBase * float64(baseP) / (tP * float64(p))
		if eff >= target {
			return n, nil
		}
	}
	return 0, fmt.Errorf("scaling: no candidate size reaches efficiency %.2f at P=%d: %w",
		target, p, ErrNoPoints)
}
