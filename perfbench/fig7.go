package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"loggpsim/internal/experiments"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/machine"
	"loggpsim/internal/predictor"
	"loggpsim/internal/program"
	"loggpsim/internal/robust"
	"loggpsim/internal/trace"
)

// The fig7 workload is the paper's experiment as a library call: the
// two-layout block-size sweep (prediction and emulation per cell) and the
// diagonal-layout Monte-Carlo envelope, one worker each. One operation
// is one round: a whole sweep and a whole envelope, the experiment a
// research user runs. (Per-cell latencies would mix cells 3000x apart
// in cost, and their median would jump between cell sizes.)

// The paper's anchors: Figure 4 and Figure 5 completion times of the
// Figure-3 pattern, in microseconds.
const (
	figure4Micros = 61.555
	figure5Micros = 73.11
)

var fig7Params = loggp.MeikoCS2(fig7P)

func fig7Layout(name string) func(nb int) layout.Layout {
	if name == "diagonal" {
		return func(nb int) layout.Layout { return layout.Diagonal(fig7P, nb) }
	}
	return func(int) layout.Layout { return layout.RowCyclic(fig7P) }
}

func sweepConfig(b int) experiments.Config {
	cfg := experiments.Default()
	cfg.Seed = fig7Seed
	cfg.Workers = 1
	cfg.Sizes = []int{b}
	return cfg
}

func envelopeConfig(b int, seed int64) robust.Config {
	return robust.Config{
		N: fig7N, P: fig7P, Sizes: []int{b}, Params: fig7Params, Model: model,
		Samples: fig7Samples, Seed: seed, Perturb: fig7Perturb, Workers: 1,
	}
}

// fig7Setup checks the Figure 4/5 anchors and warms the sweep and
// envelope code paths on the cheapest cell of each.
func fig7Setup(seed int64, tl *tally) error {
	fig3 := loggp.MeikoCS2(trace.Figure3().P)
	_, f4, err := experiments.Figure4(fig3, 80)
	if err != nil {
		return err
	}
	tl.note(anchor("Figure 4", f4, figure4Micros))
	_, f5, err := experiments.Figure5(fig3, 80)
	if err != nil {
		return err
	}
	tl.note(anchor("Figure 5", f5, figure5Micros))
	last := experiments.BlockSizes[len(experiments.BlockSizes)-1]
	for _, name := range fig7Layouts {
		if _, err := experiments.RunGE(sweepConfig(last), fig7Layout(name)); err != nil {
			return err
		}
	}
	_, err = robust.Run(envelopeConfig(last, seed))
	return err
}

func anchor(name string, got, want float64) error {
	if math.Abs(got-want) > 1e-9 {
		return fmt.Errorf("%s completion %gµs, want %gµs", name, got, want)
	}
	return nil
}

// timeCell times one cell together with a full collection before it.
// Each cell then pays for its predecessor's garbage in full, the same way
// on every run, rather than for a share that varies with GC pacing; a
// round pays for all the garbage its cells leave (the last cell's at the
// next round's start), so allocation cost shows in the round's time. A
// segment's wall time counts cells only (cellWall). A round's time is the
// sum of its cells'.
func timeCell(fn func()) time.Duration {
	return elapsed(func() {
		runtime.GC()
		fn()
	})
}

// cellWall sets a fig7 segment's timed wall time: the sum of its rounds.
func cellWall(m *measure) { m.wall = time.Duration(sum(m.lat) * float64(time.Millisecond)) }

// round is one finished sweep and envelope.
type round struct {
	points      map[string][]experiments.Point
	envs        []robust.Envelope
	sweep, envl time.Duration
}

// total is the round's timed wall time: its cells, summed.
func (rd round) total() time.Duration { return rd.sweep + rd.envl }

// libraryRound runs the round through the library's entry points,
// experiments.RunGE and robust.Run, one cell per call so every cell is
// timed.
func libraryRound(seed int64) (round, error) {
	rd := round{points: map[string][]experiments.Point{}}
	for _, name := range fig7Layouts {
		for _, b := range experiments.BlockSizes {
			var pts []experiments.Point
			var err error
			d := timeCell(func() { pts, err = experiments.RunGE(sweepConfig(b), fig7Layout(name)) })
			if err != nil {
				return rd, err
			}
			rd.sweep += d
			rd.points[name] = append(rd.points[name], pts...)
		}
	}
	for _, b := range experiments.BlockSizes {
		var envs []robust.Envelope
		var err error
		d := timeCell(func() { envs, err = robust.Run(envelopeConfig(b, seed)) })
		if err != nil {
			return rd, err
		}
		rd.envl += d
		rd.envs = append(rd.envs, envs...)
	}
	return rd, nil
}

// tracedRound makes the sweep's per-cell calls itself, exactly as
// experiments.RunGE does, so that ge.BuildProgram, PredictInto and
// machine.Run each get a span; the envelope is spanned per robust.Run
// call. It also returns the sweep programs for the probe pass.
func tracedRound(seed int64, pp *predictPass) (round, []walkCase, error) {
	rd := round{points: map[string][]experiments.Point{}}
	var walks []walkCase
	for _, name := range fig7Layouts {
		mk := fig7Layout(name)
		for _, b := range experiments.BlockSizes {
			var pt experiments.Point
			var pr *program.Program
			var err error
			d := timeCell(func() { pt, pr, err = tracedCell(pp, b, mk) })
			if err != nil {
				return rd, nil, err
			}
			rd.sweep += d
			rd.points[name] = append(rd.points[name], pt)
			walks = append(walks, walkCase{pr: pr, params: fig7Params, seed: fig7Seed})
		}
	}
	for _, b := range experiments.BlockSizes {
		var envs []robust.Envelope
		var err error
		d := timeCell(func() { envs, err = pp.envelope(envelopeConfig(b, seed)) })
		if err != nil {
			return rd, nil, err
		}
		rd.envl += d
		rd.envs = append(rd.envs, envs...)
	}
	return rd, walks, nil
}

// tracedCell is one RunGE cell body with each layer call spanned.
func tracedCell(pp *predictPass, b int, mk func(int) layout.Layout) (experiments.Point, *program.Program, error) {
	g, err := ge.NewGrid(fig7N, b)
	if err != nil {
		return experiments.Point{}, nil, err
	}
	lay := mk(g.NB)
	pr, err := pp.build(g, lay)
	if err != nil {
		return experiments.Point{}, nil, err
	}
	var pred predictor.Prediction
	if err := pp.predict(&pred, pr, predictor.Config{Params: fig7Params, Cost: model, Seed: fig7Seed}); err != nil {
		return experiments.Point{}, nil, err
	}
	mcfg := machine.Default(fig7Params, model)
	mcfg.Seed = fig7Seed
	mcfg.AssignedBlocks = layout.BlockCounts(lay, g.NB)
	meas, err := pp.emulate(pr, mcfg)
	if err != nil {
		return experiments.Point{}, nil, err
	}
	const secPerMicro = 1e-6
	return experiments.Point{
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
	}, pr, nil
}

// checkRound counts the round as an operation, applies the §6.3
// claims to the sweep, and checks every envelope: its quantiles are
// ordered, and its nominal certificate brackets its nominal prediction.
// (The nominal certificate does not bound p5: p5 comes from samples with
// perturbed, often faster, machines — robust.Run already checks each
// sample against its own certificate.)
func checkRound(rd round, tl *tally) {
	tl.note(nil)
	for _, c := range experiments.CheckClaims(rd.points) {
		var err error
		if !c.Pass {
			err = fmt.Errorf("claim %q failed: %s", c.Name, c.Detail)
		}
		tl.note(err)
	}
	for _, e := range rd.envs {
		var err error
		switch {
		case !(e.Total.P5 <= e.Total.P50 && e.Total.P50 <= e.Total.P95):
			err = fmt.Errorf("envelope b=%d: quantiles out of order: %+v", e.B, e.Total)
		case !(e.CertLower <= e.Nominal && e.Nominal <= e.CertUpper):
			err = fmt.Errorf("envelope b=%d: nominal %g outside its certificate [%g, %g]",
				e.B, e.Nominal, e.CertLower, e.CertUpper)
		}
		tl.note(err)
	}
}

// runFig7 runs rounds until the segment's time is spent; a traced run
// follows an untraced segment with a traced one, then the probe pass.
func runFig7(o options) (*outcome, error) {
	out := &outcome{layers: layers{}}
	for rep := 0; rep < o.setupReps; rep++ {
		var err error
		d := elapsed(func() { err = fig7Setup(o.seed, &out.tally) })
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, d.Seconds())
	}
	plainSeg := o.seconds
	if o.traced {
		plainSeg /= 2
	}
	var sweeps, envls []float64
	var ref round
	m := startMeter()
	for first := true; first || m.since() < plainSeg; first = false {
		rd, err := libraryRound(o.seed)
		if err != nil {
			return nil, err
		}
		checkRound(rd, &out.tally)
		out.timed.lat = append(out.timed.lat, ms(rd.total()))
		sweeps, envls = append(sweeps, rd.sweep.Seconds()), append(envls, rd.envl.Seconds())
		ref = rd
	}
	m.stop(&out.timed)
	cellWall(&out.timed)
	out.extra = []metricEntry{
		{"sweep_s", value{Value: median(sweeps), Unit: "s", Spread: sampleSpread(sweeps)}},
		{"envelope_s", value{Value: median(envls), Unit: "s", Spread: sampleSpread(envls)}},
	}
	if !o.traced {
		return out, nil
	}

	tr := o.tracer
	pp := &predictPass{tr: tr, ev: predictor.NewEvaluator()}
	var walks []walkCase
	tr.on.Store(true)
	defer tr.on.Store(false)
	m = startMeter()
	for first := true; first || m.since() < o.seconds-plainSeg; first = false {
		rd, w, err := tracedRound(o.seed, pp)
		if err != nil {
			return nil, err
		}
		checkRound(rd, &out.tally)
		var same error
		if !reflect.DeepEqual(rd.points, ref.points) || !reflect.DeepEqual(rd.envs, ref.envs) {
			same = fmt.Errorf("traced round differs from experiments.RunGE/robust.Run")
		}
		out.note(same)
		out.traced.lat = append(out.traced.lat, ms(rd.total()))
		walks = w
	}
	m.stop(&out.traced)
	cellWall(&out.traced)
	runtimeLayers(out, out.layers)
	pp.report(out.layers)
	if err := fig7Probe(o.seed, walks, out.layers); err != nil {
		out.note(err)
	}
	return out, nil
}

// fig7Probe runs the probe pass: the schedulers on the sweep programs,
// certificate and lanes on the envelope programs.
func fig7Probe(seed int64, walks []walkCase, l layers) error {
	if err := walkProbe(walks, l); err != nil {
		return err
	}
	var envs []envCase
	for _, b := range experiments.BlockSizes {
		g, err := ge.NewGrid(fig7N, b)
		if err != nil {
			return err
		}
		pr, err := ge.BuildProgram(g, layout.Diagonal(fig7P, g.NB))
		if err != nil {
			return err
		}
		envs = append(envs, envCase{pr: pr, params: fig7Params, perturb: fig7Perturb, samples: fig7Samples, seed: seed})
	}
	return envProbe(envs, l)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
