// Package program represents the restricted class of parallel programs
// the paper's prediction method accepts (its Section 2): oblivious
// algorithms whose communication pattern does not depend on the input,
// whose data is divided into equal-sized basic blocks operated on only
// by a finite set of basic operations, and whose computation and
// communication steps alternate without overlapping.
//
// A Program is a sequence of Steps; each Step has a computation phase
// (per-processor lists of basic-operation invocations) followed by a
// communication phase (a trace.Pattern). The predictor charges the
// computation phase from a cost model and replays the communication
// phase through the LogGP simulators.
package program

import (
	"fmt"

	"loggpsim/internal/blockops"
	"loggpsim/internal/trace"
)

// OpCall is one basic-operation invocation on a b×b block.
type OpCall struct {
	// Op is the basic operation performed.
	Op blockops.Op
	// BlockSize is the block's side length b.
	BlockSize int
	// Block identifies the owned block the operation writes, an opaque
	// id used by the cache model (package cache); any uint64 is a valid
	// id. Operand data that arrives by message is charged per message
	// instead.
	Block uint64
}

// Step is one computation phase followed by one communication phase.
type Step struct {
	// Comp[p] lists the operations processor p performs, in order.
	Comp [][]OpCall
	// Comm is the communication phase; it may carry no messages.
	Comm *trace.Pattern
}

// Program is an oblivious block program over P processors.
type Program struct {
	// P is the processor count.
	P int
	// Steps alternate computation and communication implicitly: each
	// step's computation precedes its communication.
	Steps []*Step
}

// New returns an empty program over p processors.
func New(p int) *Program {
	return &Program{P: p}
}

// AddStep appends and returns a fresh step.
func (pr *Program) AddStep() *Step {
	s := &Step{
		Comp: make([][]OpCall, pr.P),
		Comm: trace.New(pr.P),
	}
	pr.Steps = append(pr.Steps, s)
	return s
}

// AddOp appends an operation to processor p's computation phase.
func (s *Step) AddOp(p int, op blockops.Op, blockSize int) {
	s.Comp[p] = append(s.Comp[p], OpCall{Op: op, BlockSize: blockSize})
}

// AddOpOn is AddOp with an explicit owned-block id for the cache
// model.
func (s *Step) AddOpOn(p int, op blockops.Op, blockSize int, block uint64) {
	s.Comp[p] = append(s.Comp[p], OpCall{Op: op, BlockSize: blockSize, Block: block})
}

// Validate checks processor bounds, operation identities and block
// sizes, and every step's communication pattern.
func (pr *Program) Validate() error {
	if pr.P <= 0 {
		return fmt.Errorf("program: no processors (P=%d)", pr.P)
	}
	for i, s := range pr.Steps {
		if len(s.Comp) != pr.P {
			return fmt.Errorf("program: step %d has %d computation lists for P=%d", i, len(s.Comp), pr.P)
		}
		for p, calls := range s.Comp {
			for c, call := range calls {
				if call.Op < 0 || call.Op >= blockops.NumOps {
					return fmt.Errorf("program: step %d proc %d call %d: unknown op %d", i, p, c, int(call.Op))
				}
				if call.BlockSize < 1 {
					return fmt.Errorf("program: step %d proc %d call %d: block size %d", i, p, c, call.BlockSize)
				}
			}
		}
		if s.Comm.P != pr.P {
			return fmt.Errorf("program: step %d communication is over %d processors, program over %d", i, s.Comm.P, pr.P)
		}
		if err := s.Comm.Validate(); err != nil {
			return fmt.Errorf("program: step %d: %w", i, err)
		}
	}
	return nil
}

// Stats summarizes a program.
type Stats struct {
	// Steps is the number of steps.
	Steps int
	// Ops counts basic-operation invocations per operation.
	Ops [blockops.NumOps]int
	// Flops is the total floating-point work implied by the ops.
	Flops float64
	// NetworkMessages and NetworkBytes count traffic that crosses the
	// network; LocalMessages counts self messages (local transfers).
	NetworkMessages int
	NetworkBytes    int
	LocalMessages   int
}

// Summarize computes program statistics.
func (pr *Program) Summarize() Stats {
	st := Stats{Steps: len(pr.Steps)}
	for _, s := range pr.Steps {
		for _, calls := range s.Comp {
			for _, call := range calls {
				st.Ops[call.Op]++
				st.Flops += blockops.Flops(call.Op, call.BlockSize)
			}
		}
		st.NetworkMessages += s.Comm.NetworkMessages()
		st.NetworkBytes += s.Comm.TotalBytes()
		st.LocalMessages += len(s.Comm.Msgs) - s.Comm.NetworkMessages()
	}
	return st
}

// String summarizes the program in one line.
func (pr *Program) String() string {
	st := pr.Summarize()
	return fmt.Sprintf("program{P=%d steps=%d ops=%v netMsgs=%d netBytes=%d localMsgs=%d}",
		pr.P, st.Steps, st.Ops, st.NetworkMessages, st.NetworkBytes, st.LocalMessages)
}
