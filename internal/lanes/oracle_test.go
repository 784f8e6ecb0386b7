package lanes_test

// The one-lane oracle: the per-step session loop predictor.PredictInto
// ran before the predictor became one lane of the engine. It drives a
// sim and a worstcase session through every option a prediction has —
// send priority, global order, overlap, cache charges, step profiles,
// contention fabrics, fault plans — one program step at a time, and is
// the readable specification every lane result answers to bit for bit.

import (
	"fmt"

	"loggpsim/internal/cache"
	"loggpsim/internal/predictor"
	"loggpsim/internal/program"
	"loggpsim/internal/sim"
	"loggpsim/internal/worstcase"
)

// sessionReplay owns the two sessions and the scratch of one replay
// pipeline; the zero value is ready.
type sessionReplay struct {
	sim *sim.Session
	wc  *worstcase.Session

	durs, commStd, commWC []float64
	beforeStd, beforeWC   []float64
	afterStd, afterWC     []float64
	stepStd               sim.Result
	stepWC                worstcase.Result
}

// grow resizes buf to n entries, reusing its backing when possible, and
// zeroes it.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// PredictInto replays the program under cfg, writing the prediction
// over *out.
func (e *sessionReplay) PredictInto(out *predictor.Prediction, pr *program.Program, cfg predictor.Config) error {
	if cfg.Cost == nil {
		return fmt.Errorf("predictor: no cost model")
	}
	if err := pr.Validate(); err != nil {
		return err
	}

	// A disabled plan yields a nil injector and nil hooks, keeping the
	// zero-fault path identical to a build without fault support.
	injector, err := cfg.Faults.Injector(cfg.Params)
	if err != nil {
		return fmt.Errorf("predictor: %w", err)
	}
	var fault func(step, msgIndex, src, dst, bytes int, start float64) (float64, float64, error)
	if injector != nil {
		fault = injector.SendOutcome
	}

	// The predictor only reads finish times and clocks, never the
	// timelines, so both replays run in quiet mode: no timeline records,
	// no per-step result slices (a large constant factor on sweeps that
	// evaluate hundreds of candidate programs).
	simCfg := sim.Config{
		Params:       cfg.Params,
		Seed:         cfg.Seed,
		SendPriority: cfg.SendPriority,
		GlobalOrder:  cfg.GlobalOrder,
		Network:      cfg.Network,
		Fault:        fault,
		NoTimeline:   true,
	}
	wcCfg := worstcase.Config{
		Params: cfg.Params, Seed: cfg.Seed, Fault: fault, NoTimeline: true,
	}
	if e.sim == nil {
		e.sim, err = sim.NewSession(pr.P, simCfg)
	} else {
		err = e.sim.Reconfigure(pr.P, simCfg)
	}
	if err != nil {
		return err
	}
	full := e.sim
	if e.wc == nil {
		e.wc, err = worstcase.NewSession(pr.P, wcCfg)
	} else {
		err = e.wc.Reconfigure(pr.P, wcCfg)
	}
	if err != nil {
		return err
	}
	wcFull := e.wc

	p := out
	*p = predictor.Prediction{
		CompPerProc: grow(p.CompPerProc, pr.P),
		Steps:       len(pr.Steps),
		PerStep:     p.PerStep[:0],
	}
	if !cfg.CollectSteps {
		p.PerStep = nil
	}
	// Cache-aware mode: the emulator's cache model. Cache behaviour
	// depends only on the program's touch order, not on simulated
	// timing, so one replay serves both the standard and the worst-case
	// run.
	var warming *cache.Warming
	if cfg.CacheBytes > 0 {
		warming = cache.Warm(pr, cfg.CacheBytes, cfg.MissFixed, cfg.MissPerByte)
		p.CacheWarm = warming.Max
	}
	e.durs = grow(e.durs, pr.P)
	e.commStd = grow(e.commStd, pr.P)
	e.commWC = grow(e.commWC, pr.P)
	// Clock scratch buffers, reused across steps: pre-grown to P entries
	// here so the ClocksInto calls below never reallocate.
	e.beforeStd = grow(e.beforeStd, pr.P)
	e.beforeWC = grow(e.beforeWC, pr.P)
	e.afterStd = grow(e.afterStd, pr.P)
	e.afterWC = grow(e.afterWC, pr.P)
	durs, commStd, commWC := e.durs, e.commStd, e.commWC
	beforeStd, beforeWC, afterStd, afterWC := e.beforeStd, e.beforeWC, e.afterStd, e.afterWC
	for i, step := range pr.Steps {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return fmt.Errorf("predictor: step %d of %d: %w", i, len(pr.Steps), err)
			}
		}
		for proc := range durs {
			d := 0.0
			for _, call := range step.Comp[proc] {
				d += cfg.Cost.Cost(call.Op, call.BlockSize)
			}
			if injector != nil {
				// Slowdown, jitter and straggler factors inflate the charge
				// (never below the fault-free cost) and flow into the
				// computation decomposition: a straggler's extra time is
				// computation time, not waiting.
				d = injector.PerturbCompute(i, proc, d)
			}
			durs[proc] = d
			p.CompPerProc[proc] += d
			if warming != nil {
				durs[proc] += warming.Charges[i][proc]
			}
		}
		if !cfg.Overlap {
			if err := full.Compute(durs); err != nil {
				return fmt.Errorf("predictor: step %d: %w", i, err)
			}
			if err := wcFull.Compute(durs); err != nil {
				return fmt.Errorf("predictor: step %d: %w", i, err)
			}
		}
		beforeStd, beforeWC = full.ClocksInto(beforeStd), wcFull.ClocksInto(beforeWC)
		if err := full.CommunicateInto(&e.stepStd, step.Comm); err != nil {
			return fmt.Errorf("predictor: step %d: %w", i, err)
		}
		if err := wcFull.CommunicateInto(&e.stepWC, step.Comm); err != nil {
			return fmt.Errorf("predictor: step %d: %w", i, err)
		}
		if cfg.Overlap {
			// Busy-time bound: the processor still executes its
			// computation and the o of each of its communication
			// operations serially.
			in, out := step.Comm.InDegrees(), step.Comm.OutDegrees()
			for proc := 0; proc < pr.P; proc++ {
				busy := beforeStd[proc] + durs[proc] + float64(in[proc]+out[proc])*cfg.Params.O
				if err := full.AdvanceTo(proc, busy); err != nil {
					return err
				}
				busyWC := beforeWC[proc] + durs[proc] + float64(in[proc]+out[proc])*cfg.Params.O
				if err := wcFull.AdvanceTo(proc, busyWC); err != nil {
					return err
				}
			}
		}
		afterStd, afterWC = full.ClocksInto(afterStd), wcFull.ClocksInto(afterWC)
		for proc := 0; proc < pr.P; proc++ {
			commStd[proc] += afterStd[proc] - beforeStd[proc]
			commWC[proc] += afterWC[proc] - beforeWC[proc]
		}
		if cfg.CollectSteps {
			prof := predictor.StepProfile{Finish: full.Finish()}
			for proc := 0; proc < pr.P; proc++ {
				if durs[proc] > prof.Comp {
					prof.Comp = durs[proc]
				}
				if adv := afterStd[proc] - beforeStd[proc]; adv > prof.CommAdvance {
					prof.CommAdvance = adv
				}
			}
			p.PerStep = append(p.PerStep, prof)
		}
	}
	p.Total = full.Finish()
	p.TotalWorst = wcFull.Finish()
	for proc := 0; proc < pr.P; proc++ {
		if p.CompPerProc[proc] > p.Comp {
			p.Comp = p.CompPerProc[proc]
		}
		if commStd[proc] > p.Comm {
			p.Comm = commStd[proc]
		}
		if commWC[proc] > p.CommWorst {
			p.CommWorst = commWC[proc]
		}
	}
	return nil
}
