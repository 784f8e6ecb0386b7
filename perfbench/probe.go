package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"loggpsim/internal/analyze"
	"loggpsim/internal/cost"
	"loggpsim/internal/ge"
	"loggpsim/internal/lanes"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/machine"
	"loggpsim/internal/predictor"
	"loggpsim/internal/program"
	"loggpsim/internal/resultcache"
	"loggpsim/internal/ring"
	"loggpsim/internal/robust"
	"loggpsim/internal/serve"
	"loggpsim/internal/sim"
	"loggpsim/internal/worstcase"
)

// The probe pass reaches layers that the workload only enters through
// another layer's public call, by calling their public functions
// directly on the workload's own programs, bodies and keys. It runs
// after the timed segments and is excluded from trace.overhead_ratio.

// layers collects per-layer metric values by name.
type layers map[string]float64

var model = cost.DefaultAnalytic()

// probeSamples is the minimum sample count the micro-probes (decode,
// cache, ring) collect, cycling over their inputs.
const probeSamples = 1024

func passes(n int) int {
	if n == 0 {
		return 0
	}
	return (probeSamples + n - 1) / n
}

func elapsed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// codecProbe times the predictd handler's front half on the run's
// bodies: the strict decode, Validate, CanonicalKey, and the
// json.Marshal of each body's served response. It returns each body's
// canonical key.
func codecProbe(bodies, served [][]byte, l layers) ([]resultcache.Key, error) {
	keys := make([]resultcache.Key, len(bodies))
	reqs := make([]*serve.Request, len(bodies))
	var dec, val, key, enc []float64
	for p := 0; p < passes(len(bodies)); p++ {
		for i, b := range bodies {
			var err error
			dec = append(dec, us(elapsed(func() { reqs[i], err = decodeRequest(b) })))
			if err != nil {
				return nil, fmt.Errorf("probe decode: %w", err)
			}
			val = append(val, us(elapsed(func() { err = reqs[i].Validate(serve.DefaultLimits()) })))
			if err != nil {
				return nil, fmt.Errorf("probe validate: %w", err)
			}
			key = append(key, us(elapsed(func() { keys[i], err = serve.CanonicalKey(reqs[i]) })))
			if err != nil {
				return nil, fmt.Errorf("probe canonical key: %w", err)
			}
			if i >= len(served) || served[i] == nil {
				continue
			}
			var resp serve.Response
			if err := json.Unmarshal(served[i], &resp); err != nil {
				return nil, fmt.Errorf("probe response: %w", err)
			}
			enc = append(enc, us(elapsed(func() { _, err = json.Marshal(&resp) })))
			if err != nil {
				return nil, fmt.Errorf("probe encode: %w", err)
			}
		}
	}
	l["serve.decode.p50_us"] = median(dec)
	l["serve.validate.p50_us"] = median(val)
	l["serve.canonical_key.p50_us"] = median(key)
	l["serve.encode.p50_us"] = median(enc)
	return keys, nil
}

// cacheProbe puts every key into a cache at the server's budget with the
// run's entry sizes (evicting once the budget is full), then gets every
// key back.
func cacheProbe(keys []resultcache.Key, sizes []int, cfg resultcache.Config, l layers) {
	c := resultcache.New[[]byte](cfg)
	var put, get []float64
	n := passes(len(keys))
	for p := 0; p < n; p++ {
		for i, k := range keys {
			meta := resultcache.Meta{Size: sizes[i%len(sizes)], Cost: 1, Store: true}
			put = append(put, ns(elapsed(func() { c.Put(k, nil, meta) })))
		}
	}
	for p := 0; p < n; p++ {
		for _, k := range keys {
			get = append(get, ns(elapsed(func() { c.Get(k) })))
		}
	}
	l["resultcache.get.p50_ns"] = median(get)
	l["resultcache.put.p50_ns"] = median(put)
}

// ringProbe times the owner lookup the router makes per request
// (MaxAttempts = 3 owners) over the run's keys.
func ringProbe(keys []resultcache.Key, members []string, l layers) error {
	rg, err := ring.New(members, ring.Config{})
	if err != nil {
		return fmt.Errorf("probe ring: %w", err)
	}
	var owners []float64
	for p := 0; p < passes(len(keys)); p++ {
		for _, k := range keys {
			owners = append(owners, ns(elapsed(func() { rg.Owners(k[:], 3) })))
		}
	}
	l["ring.owners.p50_ns"] = median(owners)
	return nil
}

// walkCase is one program the scheduler probe walks.
type walkCase struct {
	pr     *program.Program
	params loggp.Params
	seed   int64
}

// walkProbe replays each program step by step through a standard and a
// worst-case session, as BenchmarkNetworkContention walks a cell, and
// times the communication phases.
func walkProbe(cases []walkCase, l layers) error {
	var simT, wcT time.Duration
	msgs := 0
	for _, c := range cases {
		s, err := sim.NewSession(c.pr.P, sim.Config{Params: c.params, Seed: c.seed, NoTimeline: true})
		if err != nil {
			return fmt.Errorf("probe sim: %w", err)
		}
		w, err := worstcase.NewSession(c.pr.P, worstcase.Config{Params: c.params, Seed: c.seed, NoTimeline: true})
		if err != nil {
			return fmt.Errorf("probe worstcase: %w", err)
		}
		durs := make([]float64, c.pr.P)
		var sr sim.Result
		var wr worstcase.Result
		for _, step := range c.pr.Steps {
			for proc := range durs {
				d := 0.0
				for _, call := range step.Comp[proc] {
					d += model.Cost(call.Op, call.BlockSize)
				}
				durs[proc] = d
			}
			if err := s.Compute(durs); err != nil {
				return fmt.Errorf("probe sim: %w", err)
			}
			if err := w.Compute(durs); err != nil {
				return fmt.Errorf("probe worstcase: %w", err)
			}
			simT += elapsed(func() { err = s.CommunicateInto(&sr, step.Comm) })
			if err != nil {
				return fmt.Errorf("probe sim: %w", err)
			}
			wcT += elapsed(func() { err = w.CommunicateInto(&wr, step.Comm) })
			if err != nil {
				return fmt.Errorf("probe worstcase: %w", err)
			}
			for _, m := range step.Comm.Msgs {
				if m.Src != m.Dst {
					msgs++
				}
			}
		}
	}
	l["sim.communicate_s"] = simT.Seconds()
	l["sim.msgs_per_s"] = ratio(float64(msgs), simT.Seconds())
	l["worstcase.communicate_s"] = wcT.Seconds()
	l["worstcase.msgs_per_s"] = ratio(float64(msgs), wcT.Seconds())
	return nil
}

// envCase is one envelope program the certificate and lanes probes
// price and replay.
type envCase struct {
	pr      *program.Program
	params  loggp.Params
	perturb robust.Perturb
	samples int
	seed    int64
}

// laneSet draws one lane per sample with each LogGP parameter scaled
// uniformly within the perturbation, seeded from the case.
func (c envCase) laneSet() []lanes.Lane {
	r := rand.New(rand.NewSource(c.seed))
	scale := func(v, spread float64) float64 { return v * (1 + spread*(2*r.Float64()-1)) }
	ls := make([]lanes.Lane, c.samples)
	for s := range ls {
		p := c.params
		p.L, p.O = scale(p.L, c.perturb.L), scale(p.O, c.perturb.O)
		p.Gap, p.G = scale(p.Gap, c.perturb.Gap), scale(p.G, c.perturb.G)
		ls[s] = lanes.Lane{Params: p, Seed: c.seed + int64(s)}
	}
	return ls
}

// envProbe builds each envelope program's certificate shape, prices it
// under the nominal and every lane's parameters, and runs the lanes
// through one lockstep engine.
func envProbe(cases []envCase, l layers) error {
	var shapeT, lanesT time.Duration
	var bounds []float64
	laneSteps := 0
	eng := new(lanes.Engine)
	for _, c := range cases {
		var shape *analyze.ProgramShape
		var err error
		shapeT += elapsed(func() { shape, err = analyze.NewProgramShape(c.pr, model) })
		if err != nil {
			return fmt.Errorf("probe shape: %w", err)
		}
		pricer := shape.Pricer()
		ls := c.laneSet()
		for _, p := range append([]loggp.Params{c.params}, lanesParams(ls)...) {
			bounds = append(bounds, us(elapsed(func() { _, err = pricer.Bound(p) })))
			if err != nil {
				return fmt.Errorf("probe bound: %w", err)
			}
		}
		lanesT += elapsed(func() { _, err = eng.Run(c.pr, lanes.Config{Cost: model}, ls) })
		if err != nil {
			return fmt.Errorf("probe lanes: %w", err)
		}
		laneSteps += len(ls) * len(c.pr.Steps)
	}
	l["analyze.shape_s"] = shapeT.Seconds()
	l["analyze.bound.p50_us"] = median(bounds)
	l["analyze.bounds"] = float64(len(bounds))
	l["lanes.run_s"] = lanesT.Seconds()
	l["lanes.lane_steps_per_s"] = ratio(float64(laneSteps), lanesT.Seconds())
	return nil
}

func lanesParams(ls []lanes.Lane) []loggp.Params {
	ps := make([]loggp.Params, len(ls))
	for i, la := range ls {
		ps[i] = la.Params
	}
	return ps
}

// predictPass is the sweep's per-cell chain — build, predict, emulate —
// made through the benchmark's own spans, with the allocations of each
// prediction counted (one goroutine, so the count is attributable).
type predictPass struct {
	tr     *tracer
	ev     *predictor.Evaluator
	calls  int
	allocs uint64
}

func (pp *predictPass) build(g ge.Grid, lay layout.Layout) (pr *program.Program, err error) {
	pp.tr.call(spanBuild, func() { pr, err = ge.BuildProgram(g, lay) })
	return pr, err
}

func (pp *predictPass) predict(pred *predictor.Prediction, pr *program.Program, cfg predictor.Config) (err error) {
	before := mallocs()
	pp.tr.call(spanPredict, func() { err = pp.ev.PredictInto(pred, pr, cfg) })
	pp.allocs += mallocs() - before
	pp.calls++
	return err
}

func (pp *predictPass) emulate(pr *program.Program, cfg machine.Config) (res *machine.Result, err error) {
	pp.tr.call(spanMachine, func() { res, err = machine.Run(pr, cfg) })
	return res, err
}

func (pp *predictPass) envelope(cfg robust.Config) (envs []robust.Envelope, err error) {
	pp.tr.call(spanRobust, func() { envs, err = robust.Run(cfg) })
	return envs, err
}

// report adds the predictor's counts; the span totals come from the
// trace.
func (pp *predictPass) report(l layers) {
	l["predictor.calls"] = float64(pp.calls)
	l["predictor.allocs_per_call"] = ratio(float64(pp.allocs), float64(pp.calls))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }
