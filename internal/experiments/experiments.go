// Package experiments regenerates every figure of the paper's evaluation
// (Figures 3–9) from the repository's own substrates: the predictor
// supplies the "simulated" curves and the machine emulator supplies the
// "measured" curves. cmd/experiments prints the tables; the root test
// suite asserts the paper's qualitative claims on the same data.
package experiments

import (
	"context"
	"fmt"

	"loggpsim/internal/cost"
	"loggpsim/internal/faults"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/machine"
	"loggpsim/internal/predictor"
	"loggpsim/internal/sim"
	"loggpsim/internal/stats"
	"loggpsim/internal/sweep"
	"loggpsim/internal/timeline"
	"loggpsim/internal/trace"
	"loggpsim/internal/worstcase"
)

// BlockSizes is the reconstructed set of 14 block sizes (the paper's
// set, OCR-degraded, ranged from roughly 10×10 to 120×120 on a 960×960
// matrix).
var BlockSizes = []int{8, 10, 12, 16, 20, 24, 30, 32, 40, 48, 60, 80, 96, 120}

// Config parameterizes the Gaussian-elimination experiment.
type Config struct {
	// N is the matrix size (the paper's 960).
	N int
	// P is the processor count (the paper's 8).
	P int
	// Sizes are the block sizes to sweep; non-divisors of N are skipped.
	Sizes []int
	// Params is the LogGP machine.
	Params loggp.Params
	// Model prices the basic operations.
	Model cost.Model
	// Seed drives all randomized components.
	Seed int64
	// Workers bounds the goroutines the sweeps fan out over; values
	// below 1 select runtime.GOMAXPROCS(0). Every block size is an
	// independent prediction seeded identically to the serial loop, so
	// the output is byte-identical at any worker count.
	Workers int

	// Faults, when enabled, injects the plan into every prediction (see
	// predictor.Config.Faults). The emulated "measured" columns stay
	// fault-free: the plan models machine misbehaviour the predictions
	// should anticipate, so comparing faulty predictions against clean
	// measurements is the point of the exercise.
	Faults faults.Plan

	// Journal, when non-nil, checkpoints each finished Point so an
	// interrupted sweep resumes from completed block sizes with
	// byte-identical output (see sweep.MapResume). Keys are scoped by
	// Scope and the layout name, so one journal serves both layouts.
	Journal *sweep.Journal
	// Scope namespaces the journal keys; empty means "experiments".
	Scope string
	// Ctx, when non-nil, cancels the sweeps: they claim no new cell
	// once it is done, and each prediction polls it once per program
	// step (predictor.Config.Ctx) and stops there; the emulator's
	// replay does not poll it. The returned error wraps ctx.Err().
	Ctx context.Context
}

// Default returns the paper-scale configuration: a 960×960 matrix on the
// reconstructed 8-processor Meiko CS-2.
func Default() Config {
	return Config{
		N:      960,
		P:      8,
		Sizes:  BlockSizes,
		Params: loggp.MeikoCS2(8),
		Model:  cost.DefaultAnalytic(),
		Seed:   1,
	}
}

// Layouts returns the two layouts the paper compares, for an nb×nb grid.
func (c Config) Layouts(nb int) []layout.Layout {
	return []layout.Layout{
		layout.Diagonal(c.P, nb),
		layout.RowCyclic(c.P),
	}
}

// Point is one (layout, block size) cell of the sweep, carrying every
// series of Figures 7, 8 and 9. All values are seconds (the paper's
// figures use seconds).
type Point struct {
	Layout string
	B      int

	// Figure 7 series.
	MeasuredWithCache    float64 // measured - w. caching
	MeasuredWithoutCache float64 // measured - w/o. caching
	SimStandard          float64 // simulated - standard
	SimWorst             float64 // simulated - worst case

	// Figure 8 series (communication time).
	CommMeasured float64
	CommStandard float64
	CommWorst    float64

	// Figure 9 series (computation time).
	CompMeasured  float64
	CompSimulated float64

	// Supporting detail.
	CacheWarm float64
	Misses    int
}

const secPerMicro = 1e-6

// RunGE sweeps one layout over the block sizes and returns one Point per
// size, fanning the independent (block size → prediction + emulation)
// cells out over cfg.Workers goroutines. Each cell builds its own
// program, engines and caches and is seeded with cfg.Seed exactly as
// the serial loop was, so the returned slice is byte-identical at any
// worker count. The layout is identified by lay's Name.
func RunGE(cfg Config, makeLayout func(nb int) layout.Layout) ([]Point, error) {
	var usable []int
	for _, b := range cfg.Sizes {
		if cfg.N%b == 0 {
			usable = append(usable, b)
		}
	}
	scope := cfg.Scope
	if scope == "" {
		scope = "experiments"
	}
	if cfg.Journal != nil && len(usable) > 0 {
		// Key the journal by layout name so one journal file serves a
		// both-layouts run without collisions.
		if g, err := ge.NewGrid(cfg.N, usable[0]); err == nil {
			scope += "/" + makeLayout(g.NB).Name()
		}
	}
	return sweep.MapResume(cfg.Ctx, cfg.Workers, cfg.Journal, scope, usable, func(_ int, b int) (Point, error) {
		g, err := ge.NewGrid(cfg.N, b)
		if err != nil {
			return Point{}, err
		}
		lay := makeLayout(g.NB)
		pr, err := ge.BuildProgram(g, lay)
		if err != nil {
			return Point{}, err
		}
		pred, err := predictor.Predict(pr, predictor.Config{
			Params: cfg.Params, Cost: cfg.Model, Seed: cfg.Seed, Faults: cfg.Faults, Ctx: cfg.Ctx,
		})
		if err != nil {
			return Point{}, err
		}
		mcfg := machine.Default(cfg.Params, cfg.Model)
		mcfg.Seed = cfg.Seed
		mcfg.AssignedBlocks = layout.BlockCounts(lay, g.NB)
		meas, err := machine.Run(pr, mcfg)
		if err != nil {
			return Point{}, err
		}
		return Point{
			Layout:               lay.Name(),
			B:                    b,
			MeasuredWithCache:    meas.Total * secPerMicro,
			MeasuredWithoutCache: meas.TotalNoCache * secPerMicro,
			SimStandard:          pred.Total * secPerMicro,
			SimWorst:             pred.TotalWorst * secPerMicro,
			CommMeasured:         meas.Comm * secPerMicro,
			CommStandard:         pred.Comm * secPerMicro,
			CommWorst:            pred.CommWorst * secPerMicro,
			CompMeasured:         meas.Comp * secPerMicro,
			CompSimulated:        pred.Comp * secPerMicro,
			CacheWarm:            meas.CacheWarm * secPerMicro,
			Misses:               meas.Misses,
		}, nil
	})
}

// RunBothLayouts runs the sweep for the paper's two layouts, keyed by
// layout name.
func RunBothLayouts(cfg Config) (map[string][]Point, error) {
	out := map[string][]Point{}
	for _, mk := range []func(nb int) layout.Layout{
		func(nb int) layout.Layout { return layout.Diagonal(cfg.P, nb) },
		func(nb int) layout.Layout { return layout.RowCyclic(cfg.P) },
	} {
		pts, err := RunGE(cfg, mk)
		if err != nil {
			return nil, err
		}
		if len(pts) == 0 {
			continue
		}
		out[pts[0].Layout] = pts
	}
	return out, nil
}

// Figure4 renders the Figure-3 sample pattern's timeline under the
// standard algorithm (the paper's Figure 4), returning the Gantt chart
// and the completion time in microseconds.
func Figure4(params loggp.Params, width int) (string, float64, error) {
	r, err := sim.Run(trace.Figure3(), sim.Config{Params: params, Seed: 1})
	if err != nil {
		return "", 0, err
	}
	return timeline.Gantt(r.Timeline, params, width), r.Finish, nil
}

// Figure5 is Figure4 under the overestimation algorithm (the paper's
// Figure 5).
func Figure5(params loggp.Params, width int) (string, float64, error) {
	r, err := worstcase.Run(trace.Figure3(), worstcase.Config{Params: params, Seed: 1})
	if err != nil {
		return "", 0, err
	}
	return timeline.Gantt(r.Timeline, params, width), r.Finish, nil
}

// Figure6Table tabulates the basic-operation costs per block size (the
// paper's Figure 6), in microseconds.
func Figure6Table(model cost.Model, sizes []int) *stats.Table {
	t := stats.NewTable("block", "Op1", "Op2", "Op3", "Op4")
	series := cost.Series(model, sizes)
	for i, b := range sizes {
		t.AddRow(b, series[0][i], series[1][i], series[2][i], series[3][i])
	}
	return t
}

// Figure7Table tabulates total running times for one layout's points.
func Figure7Table(points []Point) *stats.Table {
	t := stats.NewTable("block", "measured-w/o-caching", "measured-w-caching",
		"simulated-standard", "simulated-worst")
	for _, p := range points {
		t.AddRow(p.B, p.MeasuredWithoutCache, p.MeasuredWithCache, p.SimStandard, p.SimWorst)
	}
	return t
}

// Figure8Table tabulates communication times for one layout's points.
func Figure8Table(points []Point) *stats.Table {
	t := stats.NewTable("block", "measured", "simulated-standard", "simulated-worst")
	for _, p := range points {
		t.AddRow(p.B, p.CommMeasured, p.CommStandard, p.CommWorst)
	}
	return t
}

// Figure9Table tabulates computation times for one layout's points.
func Figure9Table(points []Point) *stats.Table {
	t := stats.NewTable("block", "measured", "simulated")
	for _, p := range points {
		t.AddRow(p.B, p.CompMeasured, p.CompSimulated)
	}
	return t
}

// Claim is one of the paper's qualitative findings checked against the
// generated data.
type Claim struct {
	Name   string
	Pass   bool
	Detail string
}

// argminB returns the block size minimizing f over the points.
func argminB(points []Point, f func(Point) float64) int {
	best := points[0]
	for _, p := range points[1:] {
		if f(p) < f(best) {
			best = p
		}
	}
	return best.B
}

// indexOfB returns the position of block size b in the points.
func indexOfB(points []Point, b int) int {
	for i, p := range points {
		if p.B == b {
			return i
		}
	}
	return -1
}

// CheckClaims evaluates the paper's Section-6.3 findings on a finished
// sweep (both layouts).
func CheckClaims(byLayout map[string][]Point) []Claim {
	diag, row := byLayout["diagonal"], byLayout["row-cyclic"]
	var claims []Claim
	add := func(name string, pass bool, detail string) {
		claims = append(claims, Claim{Name: name, Pass: pass, Detail: detail})
	}

	for _, pts := range [][]Point{diag, row} {
		if len(pts) < 4 {
			add("enough data", false, "sweep too small")
			return claims
		}
	}

	// 1. The predicted curve has an interior optimum (the nonlinear
	// dependence on block size the paper highlights).
	for _, pts := range [][]Point{diag, row} {
		b := argminB(pts, func(p Point) float64 { return p.SimStandard })
		i := indexOfB(pts, b)
		add(fmt.Sprintf("%s: interior predicted optimum", pts[0].Layout),
			i > 0 && i < len(pts)-1,
			fmt.Sprintf("optimum at b=%d (index %d of %d)", b, i, len(pts)))
	}

	// 2. The predicted optimum is near the measured optimum (within two
	// grid positions), and the measured time at the predicted optimum is
	// close to the measured minimum — the paper's "roughly predicted
	// best sizes yield real running times not far from the real minimum".
	for _, pts := range [][]Point{diag, row} {
		pb := argminB(pts, func(p Point) float64 { return p.SimStandard })
		mb := argminB(pts, func(p Point) float64 { return p.MeasuredWithCache })
		pi, mi := indexOfB(pts, pb), indexOfB(pts, mb)
		dist := pi - mi
		if dist < 0 {
			dist = -dist
		}
		measAtPred := pts[pi].MeasuredWithCache
		measMin := pts[mi].MeasuredWithCache
		add(fmt.Sprintf("%s: predicted optimum near measured", pts[0].Layout),
			dist <= 2 && measAtPred <= 1.15*measMin,
			fmt.Sprintf("predicted b=%d, measured b=%d, measured@predicted %.3fs vs min %.3fs",
				pb, mb, measAtPred, measMin))
	}

	// 3. The diagonal mapping beats row-stripped cyclic, especially for
	// large blocks (both predicted and measured over the largest block
	// sizes — near the crossover in the middle of the range either
	// layout can win, exactly as in the paper's Figure 7).
	largeWins, largeTotal := 0, 0
	start := len(diag) - 5
	if start < 0 {
		start = 0
	}
	for i := start; i < len(diag); i++ {
		j := indexOfB(row, diag[i].B)
		if j < 0 {
			continue
		}
		largeTotal++
		if diag[i].SimStandard < row[j].SimStandard &&
			diag[i].MeasuredWithCache < row[j].MeasuredWithCache {
			largeWins++
		}
	}
	add("diagonal beats row-cyclic at large blocks",
		largeTotal > 0 && largeWins == largeTotal,
		fmt.Sprintf("%d/%d large sizes", largeWins, largeTotal))

	// 4. Measured communication falls between the standard and worst-case
	// simulations (Figure 8). The lower bound holds everywhere (the
	// emulator only adds costs the standard prediction skips); the upper
	// bound holds for the overwhelming majority of points — at the very
	// largest blocks the local copies and jitter, which no LogGP
	// prediction contains, can push the measurement slightly past the
	// worst case.
	okLower, okBracket, nComm := 0, 0, 0
	for _, pts := range [][]Point{diag, row} {
		for _, p := range pts {
			nComm++
			if p.CommMeasured >= p.CommStandard-1e-9 {
				okLower++
				if p.CommMeasured <= p.CommWorst+1e-9 {
					okBracket++
				}
			}
		}
	}
	add("measured comm above the standard prediction",
		okLower == nComm, fmt.Sprintf("%d/%d points", okLower, nComm))
	add("measured comm bracketed by standard and worst case",
		okBracket*10 >= nComm*9, fmt.Sprintf("%d/%d points", okBracket, nComm))

	// 5. The computation prediction underestimates the measurement, most
	// at the smallest blocks (Figure 9: the iteration overhead).
	for _, pts := range [][]Point{diag, row} {
		under := true
		for _, p := range pts {
			if p.CompSimulated > p.CompMeasured+1e-9 {
				under = false
			}
		}
		first := pts[0]
		last := pts[len(pts)-1]
		relFirst := (first.CompMeasured - first.CompSimulated) / first.CompMeasured
		relLast := (last.CompMeasured - last.CompSimulated) / last.CompMeasured
		add(fmt.Sprintf("%s: computation underestimated, most at small blocks", pts[0].Layout),
			under && relFirst > relLast,
			fmt.Sprintf("relative gap %.3f at b=%d vs %.3f at b=%d",
				relFirst, first.B, relLast, last.B))
	}

	// 6. Cache effects: the with-caching measurement exceeds the
	// without-caching one, and the relative cache cost shrinks as blocks
	// grow (Figure 7's small-block divergence).
	for _, pts := range [][]Point{diag, row} {
		mono := true
		for _, p := range pts {
			if p.MeasuredWithCache < p.MeasuredWithoutCache-1e-9 {
				mono = false
			}
		}
		first, last := pts[0], pts[len(pts)-1]
		relFirst := first.CacheWarm / first.MeasuredWithCache
		relLast := last.CacheWarm / last.MeasuredWithCache
		add(fmt.Sprintf("%s: cache penalty concentrated at small blocks", pts[0].Layout),
			mono && relFirst > relLast,
			fmt.Sprintf("relative warm %.3f at b=%d vs %.3f at b=%d",
				relFirst, first.B, relLast, last.B))
	}

	return claims
}
