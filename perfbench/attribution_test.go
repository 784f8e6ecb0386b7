package main

import (
	"testing"
	"time"

	"loggpsim/internal/experiments"
	"loggpsim/internal/predictor"
)

// TestSelfTimes: a span's self time excludes the union of its children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps 2, as a hedged leg would
		{ID: 4, Parent: 3, Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 60, 2: 20, 3: 10, 4: 20} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
}

// TestSlowedLayerAttribution slows one layer from outside the program —
// a fixed sleep inside the benchmark's span around ge.BuildProgram — and
// checks that the traced sweep attributes it. ge.build_s and the sweep's
// wall time must grow by the injected total. predictor.predict_s and
// machine.run_s, measured by the spans around the next two calls of the
// same cells, must stay within the spread of the undisturbed passes. The
// injected total is several times either neighbour's own time, so a
// neighbour that absorbed it would land far outside that spread.
func TestSlowedLayerAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve traced passes over part of the Figure-7 sweep")
	}
	const (
		delay  = 10 * time.Millisecond
		passes = 6
	)
	// The cheapest cells of the sweep, both layouts.
	sizes := experiments.BlockSizes[len(experiments.BlockSizes)-4:]
	inject := time.Duration(len(fig7Layouts)*len(sizes)) * delay
	pass := func(slow bool) (layers, float64) {
		d := map[string]time.Duration{}
		if slow {
			d[spanBuild] = delay
		}
		tr := newTracer(d)
		tr.on.Store(true)
		pp := &predictPass{tr: tr, ev: predictor.NewEvaluator()}
		var wall time.Duration
		for _, name := range fig7Layouts {
			for _, b := range sizes {
				var err error
				wall += timeCell(func() { _, _, err = tracedCell(pp, b, fig7Layout(name)) })
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		l := layers{}
		spanLayers(tr.snapshot(), l)
		return l, wall.Seconds()
	}
	// Alternate the passes so that drift in the host's speed reaches
	// both kinds alike.
	var base, slowed []layers
	var baseWall, slowWall []float64
	for i := 0; i < passes; i++ {
		l, w := pass(false)
		base, baseWall = append(base, l), append(baseWall, w)
		l, w = pass(true)
		slowed, slowWall = append(slowed, l), append(slowWall, w)
	}
	med := func(ls []layers, name string) float64 {
		var xs []float64
		for _, l := range ls {
			xs = append(xs, l[name])
		}
		return median(xs)
	}

	want := inject.Seconds()
	if got := med(slowed, "ge.build_s") - med(base, "ge.build_s"); got < 0.9*want || got > 1.5*want {
		t.Errorf("ge.build_s moved by %.4fs, want about %.4fs", got, want)
	}
	if got := median(slowWall) - median(baseWall); got < 0.9*want {
		t.Errorf("sweep wall time moved by %.4fs, want about %.4fs", got, want)
	}
	for _, name := range []string{"predictor.predict_s", "machine.run_s"} {
		var xs []float64
		for _, l := range base {
			xs = append(xs, l[name])
		}
		xs = sorted(xs)
		lo, hi := xs[0], xs[len(xs)-1]
		if v := med(slowed, name); v < lo || v > hi {
			t.Errorf("%s = %.4fs with ge.BuildProgram slowed, outside the undisturbed passes' [%.4f, %.4f]s", name, v, lo, hi)
		}
		if own := med(base, name); want < 3*own {
			t.Errorf("%s is %.4fs per pass: the injected %.4fs is too small to tell a leak from noise", name, own, want)
		}
	}
}
