// Package analyze is the static program analyzer of the repository: it
// certifies, WITHOUT running a simulator, that a communication pattern or
// an oblivious block program is well-formed for the paper's prediction
// method, and computes closed-form LogGP bound certificates that are
// guaranteed to sandwich the event-driven simulators' results.
//
// The paper's method only accepts a restricted program class — oblivious
// algorithms, block-structured data, computation and communication steps
// strictly alternating (its Section 2). Historically the repository
// checked conformance dynamically and partially: an ill-formed pattern
// could reach the schedulers before failing, one violation at a time, and
// nothing certified that a simulated time was even plausible. Kwasniewski
// et al. (PAPERS.md) make the case that exactly this program class admits
// tight static analysis; this package follows through:
//
//   - Check/CheckProgram perform structural validation with multi-error
//     reporting: every violation is collected, not just the first, and
//     deadlock analysis produces a minimal witness cycle (the processors
//     that really are mutually waiting) instead of a bare boolean.
//
//   - PatternBounds/BoundProgram compute per-step and per-program LogGP
//     bound certificates: a critical-path lower bound (send/receive gap
//     chains and o/g/G/L charges along the longest dependency path) and
//     a serialization-based upper bound. For every pattern, machine and
//     seed, Lower ≤ standard simulation ≤ worst-case simulation ≤ Upper
//     — a property test sweeps the differential corpus to keep the
//     guarantee honest. See bounds.go for the derivations; every
//     certificate is priced from a ProgramShape (shape.go).
//
// The bound certificates assume the flat LogGP network of the paper
// (sim.Config.Network and Jitter nil): a contention fabric may deliver
// messages faster than L and a jitter hook may delay them arbitrarily,
// either of which invalidates the corresponding side of the sandwich.
package analyze

import (
	"errors"
	"fmt"

	"loggpsim/internal/blockops"
	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
	"loggpsim/internal/trace"
)

// Severity grades an Issue.
type Severity int

const (
	// Warning marks a suspicious but legal construct.
	Warning Severity = iota
	// Error marks a violation of the program class: the schedulers (or
	// the predictor) would reject or mis-handle the input.
	Error
)

// String returns "warning" or "error".
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// MarshalText implements encoding.TextMarshaler so JSON reports carry
// "error"/"warning" rather than bare integers.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler (the inverse of
// MarshalText, so reports round-trip through JSON).
func (s *Severity) UnmarshalText(b []byte) error {
	switch string(b) {
	case "error":
		*s = Error
	case "warning":
		*s = Warning
	default:
		return fmt.Errorf("analyze: unknown severity %q", b)
	}
	return nil
}

// Issue is one finding of the structural analysis.
type Issue struct {
	// Code identifies the check that fired (stable, machine-matchable).
	Code string `json:"code"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Step is the program step the finding concerns, or -1 for a bare
	// pattern / whole-program finding.
	Step int `json:"step"`
	// Msg is the index of the offending message in its pattern, or -1.
	Msg int `json:"msg,omitempty"`
	// Text is the human-readable description.
	Text string `json:"text"`
}

func (i Issue) String() string {
	where := ""
	if i.Step >= 0 {
		where = fmt.Sprintf("step %d: ", i.Step)
	}
	if i.Msg >= 0 {
		where += fmt.Sprintf("msg %d: ", i.Msg)
	}
	return fmt.Sprintf("%s: %s%s [%s]", i.Severity, where, i.Text, i.Code)
}

// Issues is a list of findings with error conversion.
type Issues []Issue

// Errs returns the subset with Error severity.
func (is Issues) Errs() Issues {
	var out Issues
	for _, i := range is {
		if i.Severity == Error {
			out = append(out, i)
		}
	}
	return out
}

// Err joins every Error-severity finding into one error (nil if none);
// warnings never make it fail.
func (is Issues) Err() error {
	var errs []error
	for _, i := range is {
		if i.Severity == Error {
			errs = append(errs, errors.New(i.String()))
		}
	}
	return errors.Join(errs...)
}

// PatternReport is the static certificate of one communication step.
type PatternReport struct {
	// P is the processor count.
	P int `json:"p"`
	// NetworkMessages, LocalMessages and NetworkBytes summarize the
	// step's traffic (self messages never cross the network).
	NetworkMessages int `json:"network_messages"`
	LocalMessages   int `json:"local_messages"`
	NetworkBytes    int `json:"network_bytes"`
	// MaxInDegree and MaxOutDegree are the busiest receiver's and
	// sender's network message counts — the serialization hotspots.
	MaxInDegree  int `json:"max_in_degree"`
	MaxOutDegree int `json:"max_out_degree"`
	// DeadlockFree certifies the processor dependency graph acyclic: the
	// worst-case scheduler commits every operation without random
	// deadlock breaking.
	DeadlockFree bool `json:"deadlock_free"`
	// WitnessCycle is a minimal cycle (processor indices, in order) when
	// DeadlockFree is false; nil otherwise.
	WitnessCycle []int `json:"witness_cycle,omitempty"`
	// Issues lists the structural findings; bounds are only computed
	// when no Error-severity issue exists.
	Issues Issues `json:"issues,omitempty"`
	// Bounds is the LogGP bound certificate for the step (all
	// processors ready at time zero); nil when the structure is invalid
	// or no machine was supplied.
	Bounds *Bounds `json:"bounds,omitempty"`
}

// Check statically analyzes one communication pattern: structural
// validity with multi-error reporting, deadlock analysis with a minimal
// witness cycle, degree/volume summary, and — when params describes a
// usable machine and the structure is sound — the LogGP bound
// certificate with all processors ready at time zero.
func Check(pt *trace.Pattern, params loggp.Params) *PatternReport {
	r := checkPattern(pt)
	if certifiable(r, pt, params) {
		b := patternBounds(pt, params)
		r.Bounds = &b
	}
	return r
}

// certifiable reports whether a pattern with report r admits a bound
// certificate on params: sound structure on a valid machine at least as
// wide.
func certifiable(r *PatternReport, pt *trace.Pattern, params loggp.Params) bool {
	return len(r.Issues.Errs()) == 0 && pt.P <= params.P && params.Validate() == nil
}

// checkPattern is Check without the bound certificate.
func checkPattern(pt *trace.Pattern) *PatternReport {
	r := &PatternReport{P: pt.P}
	r.Issues = append(r.Issues, patternIssues(pt, -1)...)
	if pt.P <= 0 {
		return r
	}
	// Traffic summary, computed defensively: unlike trace.InDegrees and
	// friends this must not panic on the very range violations the
	// analyzer exists to report.
	in := make([]int, pt.P)
	out := make([]int, pt.P)
	for _, m := range pt.Msgs {
		if m.Src == m.Dst {
			r.LocalMessages++
			continue
		}
		r.NetworkMessages++
		r.NetworkBytes += m.Bytes
		if m.Src >= 0 && m.Src < pt.P {
			out[m.Src]++
		}
		if m.Dst >= 0 && m.Dst < pt.P {
			in[m.Dst]++
		}
	}
	for q := 0; q < pt.P; q++ {
		r.MaxInDegree = max(r.MaxInDegree, in[q])
		r.MaxOutDegree = max(r.MaxOutDegree, out[q])
	}
	for _, i := range r.Issues {
		if i.Code == "src-range" || i.Code == "dst-range" {
			// Cycle analysis needs in-range endpoints; the verdict stays
			// false (uncertified) alongside the range errors.
			return r
		}
	}
	if cyc := pt.FindCycle(); cyc != nil {
		r.WitnessCycle = cyc
		r.Issues = append(r.Issues, Issue{
			Code: "deadlock", Severity: Warning, Step: -1, Msg: -1,
			Text: fmt.Sprintf("pattern deadlocks the worst-case scheduler (broken randomly at simulation time): witness cycle %s", trace.FormatCycle(cyc)),
		})
	} else {
		r.DeadlockFree = true
	}
	return r
}

// patternIssues runs the per-message structural checks of
// trace.Pattern.Validate, reporting every violation as an Issue. step is
// recorded on each finding (-1 for a bare pattern).
func patternIssues(pt *trace.Pattern, step int) Issues {
	var is Issues
	if pt == nil {
		return Issues{{Code: "nil-comm", Severity: Error, Step: step, Msg: -1,
			Text: "step has no communication pattern: computation and communication phases must alternate (an empty pattern stands in for a silent phase)"}}
	}
	if pt.P <= 0 {
		return Issues{{Code: "procs", Severity: Error, Step: step, Msg: -1,
			Text: fmt.Sprintf("pattern has no processors (P=%d)", pt.P)}}
	}
	for i, m := range pt.Msgs {
		if m.Src < 0 || m.Src >= pt.P {
			is = append(is, Issue{Code: "src-range", Severity: Error, Step: step, Msg: i,
				Text: fmt.Sprintf("src %d out of range [0,%d)", m.Src, pt.P)})
		}
		if m.Dst < 0 || m.Dst >= pt.P {
			is = append(is, Issue{Code: "dst-range", Severity: Error, Step: step, Msg: i,
				Text: fmt.Sprintf("dst %d out of range [0,%d)", m.Dst, pt.P)})
		}
		if m.Bytes < 1 {
			is = append(is, Issue{Code: "bytes", Severity: Error, Step: step, Msg: i,
				Text: fmt.Sprintf("size %d bytes; must be >= 1", m.Bytes)})
		}
		if m.Src == m.Dst && !pt.AllowLocal {
			is = append(is, Issue{Code: "self-send", Severity: Error, Step: step, Msg: i,
				Text: fmt.Sprintf("self message %d->%d without AllowLocal; declare intentional local transfers with AddLocal or WithLocalTransfers", m.Src, m.Dst)})
		}
	}
	return is
}

// ProgramReport is the static certificate of a whole program.
type ProgramReport struct {
	// P is the processor count; Steps the number of steps.
	P     int `json:"p"`
	Steps int `json:"steps"`
	// Issues lists every structural finding across all steps.
	Issues Issues `json:"issues,omitempty"`
	// DeadlockFree certifies every step's pattern acyclic.
	DeadlockFree bool `json:"deadlock_free"`
	// StepReports carries the per-step certificates.
	StepReports []PatternReport `json:"step_reports,omitempty"`
	// Bounds is the whole-program bound certificate (computation phases
	// charged from the cost model, clocks chained across steps); nil
	// when the structure is invalid or no machine/model was supplied.
	Bounds *Bounds `json:"bounds,omitempty"`
}

// CheckProgram statically analyzes an oblivious block program: the
// restricted-class invariants (step alternation, per-processor
// computation lists, known basic operations, positive block sizes),
// every step's communication pattern, per-step deadlock verdicts with
// witness cycles, and — when model is non-nil and the structure is sound
// — the whole-program bound certificate.
func CheckProgram(pr *program.Program, params loggp.Params, model costModel) *ProgramReport {
	r := &ProgramReport{P: pr.P, Steps: len(pr.Steps), DeadlockFree: true}
	if pr.P <= 0 {
		r.Issues = append(r.Issues, Issue{Code: "procs", Severity: Error, Step: -1, Msg: -1,
			Text: fmt.Sprintf("program has no processors (P=%d)", pr.P)})
		r.DeadlockFree = false
		return r
	}
	for si, s := range pr.Steps {
		// Computation phase: the oblivious block-program invariants.
		if len(s.Comp) != pr.P {
			r.Issues = append(r.Issues, Issue{Code: "comp-width", Severity: Error, Step: si, Msg: -1,
				Text: fmt.Sprintf("%d computation lists for P=%d processors", len(s.Comp), pr.P)})
		}
		for q, calls := range s.Comp {
			for c, call := range calls {
				if call.Op < 0 || call.Op >= blockops.NumOps {
					r.Issues = append(r.Issues, Issue{Code: "op-range", Severity: Error, Step: si, Msg: -1,
						Text: fmt.Sprintf("proc %d call %d: unknown basic operation %d (block programs use only the finite operation set)", q, c, int(call.Op))})
				}
				if call.BlockSize < 1 {
					r.Issues = append(r.Issues, Issue{Code: "block-size", Severity: Error, Step: si, Msg: -1,
						Text: fmt.Sprintf("proc %d call %d: block size %d; blocks are b×b with b >= 1", q, c, call.BlockSize)})
				}
			}
		}
		// Communication phase: pattern structure, width, deadlocks.
		if s.Comm == nil {
			r.Issues = append(r.Issues, patternIssues(nil, si)...)
			r.DeadlockFree = false
			r.StepReports = append(r.StepReports, PatternReport{})
			continue
		}
		if s.Comm.P != pr.P {
			r.Issues = append(r.Issues, Issue{Code: "comm-width", Severity: Error, Step: si, Msg: -1,
				Text: fmt.Sprintf("communication is over %d processors, program over %d", s.Comm.P, pr.P)})
		}
		sr := checkPattern(s.Comm)
		for i := range sr.Issues {
			sr.Issues[i].Step = si
		}
		r.Issues = append(r.Issues, sr.Issues...)
		if !sr.DeadlockFree {
			r.DeadlockFree = false
		}
		hasWork := len(s.Comm.Msgs) > 0
		for _, calls := range s.Comp {
			if len(calls) > 0 {
				hasWork = true
			}
		}
		if !hasWork {
			r.Issues = append(r.Issues, Issue{Code: "empty-step", Severity: Warning, Step: si, Msg: -1,
				Text: "step performs no computation and no communication"})
		}
		r.StepReports = append(r.StepReports, *sr)
	}
	// Step reports carry standalone certificates (every processor ready
	// at time zero); ProgramReport.Bounds.PerStep has the chained ones.
	// A program with errors certifies each sound step on its own; a
	// sound one prices every certificate from one shape in one walk.
	if len(r.Issues.Errs()) > 0 {
		for i, s := range pr.Steps {
			if sr := &r.StepReports[i]; s.Comm != nil && certifiable(sr, s.Comm, params) {
				b := patternBounds(s.Comm, params)
				sr.Bounds = &b
			}
		}
		return r
	}
	if pr.P <= params.P && params.Validate() == nil {
		// One walk prices each step's standalone certificate and, with
		// a model, the chained program certificate.
		pc := programShape(pr, model).Pricer()
		pc.price([]loggp.Params{params})
		var certs []*Bounds
		if model != nil {
			r.Bounds = &Bounds{PerStep: make([]StepBounds, len(pr.Steps))}
			certs = []*Bounds{r.Bounds}
		}
		alone := make([]Bounds, len(pr.Steps))
		pc.walk(certs, alone)
		for i := range r.StepReports {
			r.StepReports[i].Bounds = &alone[i]
		}
	}
	return r
}

// costModel is the subset of cost.Model the analyzer needs; declared
// locally so analyze does not import package cost (keeping the analyzer
// usable from the cost package's own tests if ever needed).
type costModel interface {
	Cost(op blockops.Op, b int) float64
}
