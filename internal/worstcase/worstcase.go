// Package worstcase implements the paper's overestimation simulation
// algorithm (Section 4.2): every processor first waits for all the
// messages it has to receive — tracked by a messages-to-receive counter —
// and only afterwards starts transmitting its own. The algorithm cannot
// occur in a real Split-C execution (processors do not know their receive
// counts and programmers send eagerly); it exists purely to give an upper
// bound on the communication time under the LogGP model.
//
// On communication patterns whose processor graph contains cycles the
// strategy deadlocks — every processor in a cycle waits forever — so,
// as the paper prescribes, the algorithm performs some message
// transmissions at random to break the deadlock.
//
// The package is the algorithm's entry point: its Session is sim's, in
// the Config.WorstCase mode (the time-ordered loop with the gate on).
// Its tests hold it to an independent oracle, the rescanning reference
// session of reference_test.go, which shares no code with sim.
package worstcase

import (
	"loggpsim/internal/loggp"
	"loggpsim/internal/sim"
	"loggpsim/internal/trace"
)

// Config controls a worst-case simulation.
type Config struct {
	// Params is the LogGP machine description.
	Params loggp.Params
	// Ready optionally gives per-processor start clocks (see sim.Config).
	// Every entry must be finite and non-negative.
	Ready []float64
	// Seed drives the random choice of which blocked processor releases
	// a message when a deadlock must be broken.
	Seed int64
	// NoTimeline enables the quiet fast path (see sim.Config.NoTimeline):
	// Communicate skips timeline recording and the ProcFinish allocation,
	// leaving Result.Timeline and Result.ProcFinish nil while computing
	// the identical schedule.
	NoTimeline bool
	// Fault, when non-nil, injects deterministic communication faults
	// (see sim.Config.Fault): called once per committed send — forced
	// deadlock releases included — returning extra sender occupancy,
	// extra arrival delay, and an error for a lost message. The same
	// hook drives both schedulers so a fault plan perturbs the standard
	// and the worst-case prediction coherently. Fault delays break the
	// static bound certificates' upper bound (internal/analyze).
	Fault func(step, msgIndex, src, dst, bytes int, start float64) (busy, delay float64, err error)
}

// simConfig is the sim session configuration that runs the algorithm.
func (c Config) simConfig() sim.Config {
	return sim.Config{Params: c.Params, Ready: c.Ready, Seed: c.Seed,
		NoTimeline: c.NoTimeline, Fault: c.Fault, WorstCase: true}
}

// Result is the outcome of one worst-case communication step; its
// DeadlocksBroken counts the forced sends made to escape cyclic waits.
type Result = sim.Result

// Session chains alternating computation and communication steps under
// the worst-case strategy. Every method but Reconfigure is sim.Session's.
type Session struct{ sim.Session }

// NewSession returns a session over procs processors.
func NewSession(procs int, cfg Config) (*Session, error) {
	s := &Session{}
	if err := s.Reconfigure(procs, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reconfigure re-aims the session at a new machine description and
// processor count, reusing all internal storage, and resets it. A
// reconfigured session is indistinguishable from a fresh NewSession with
// the same arguments.
func (s *Session) Reconfigure(procs int, cfg Config) error {
	return s.Session.Reconfigure(procs, cfg.simConfig())
}

// Run simulates a single communication step with fresh state.
func Run(pt *trace.Pattern, cfg Config) (*Result, error) {
	return sim.Run(pt, cfg.simConfig())
}

// Completion is a convenience wrapper returning only the completion time
// with all processors ready at time zero.
func Completion(pt *trace.Pattern, params loggp.Params) (float64, error) {
	r, err := Run(pt, Config{Params: params})
	if err != nil {
		return 0, err
	}
	return r.Finish, nil
}
