// Package capture records an oblivious program by following the control
// flow of SPMD-style Go code — the paper's framing made executable:
// "simulate the program execution by following the control flow of the
// original program". Instead of hand-building a program.Program, an
// application is written once against the Proc API (Compute, Send,
// Sync); Capture runs it per processor, records every basic operation
// and message, and assembles the alternating computation/communication
// steps for the predictor.
//
// Because the recorded class is oblivious — the communication pattern
// may not depend on the data — the per-processor functions need no real
// data exchange and are replayed sequentially and deterministically.
// Sync marks the end of a step (the global alternation boundary); every
// processor must pass the same number of Syncs.
package capture

import (
	"fmt"

	"loggpsim/internal/blockops"
	"loggpsim/internal/program"
)

// Proc is one processor's recording context.
type Proc struct {
	id    int
	procs int
	steps []stepRecord
	cur   stepRecord
}

type stepRecord struct {
	comp []program.OpCall
	msgs []msgRecord
}

type msgRecord struct {
	dst, bytes int
}

// ID returns the processor's index in [0, P).
func (p *Proc) ID() int { return p.id }

// P returns the processor count.
func (p *Proc) P() int { return p.procs }

// Compute records one basic operation in the current step's computation
// phase.
func (p *Proc) Compute(op blockops.Op, blockSize int) {
	p.ComputeOn(op, blockSize, 0)
}

// ComputeOn is Compute with an explicit owned-block id for the cache
// model. Any uint64 is a valid block id (see program.OpCall.Block).
func (p *Proc) ComputeOn(op blockops.Op, blockSize int, block uint64) {
	p.cur.comp = append(p.cur.comp, program.OpCall{Op: op, BlockSize: blockSize, Block: block})
}

// Send records one message in the current step's communication phase.
// Sends to the processor itself are recorded as self messages (local
// transfers).
func (p *Proc) Send(dst, bytes int) {
	p.cur.msgs = append(p.cur.msgs, msgRecord{dst: dst, bytes: bytes})
}

// Sync ends the current step. All processors must Sync the same number
// of times; the work between two Syncs (or before the first, or after
// the last) forms one step.
func (p *Proc) Sync() {
	p.steps = append(p.steps, p.cur)
	p.cur = stepRecord{}
}

// Capture replays fn for every processor and assembles the recorded
// program. A trailing step is flushed implicitly if any processor
// recorded work after its last Sync.
func Capture(procs int, fn func(p *Proc)) (*program.Program, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("capture: need at least one processor, got %d", procs)
	}
	recs := make([]*Proc, procs)
	for i := range recs {
		recs[i] = &Proc{id: i, procs: procs}
		fn(recs[i])
		if len(recs[i].cur.comp) > 0 || len(recs[i].cur.msgs) > 0 {
			recs[i].Sync()
		}
	}
	steps := len(recs[0].steps)
	for i, r := range recs {
		if len(r.steps) != steps {
			return nil, fmt.Errorf("capture: processor %d recorded %d steps, processor 0 recorded %d (unequal Sync counts)",
				i, len(r.steps), steps)
		}
	}
	pr := program.New(procs)
	for s := 0; s < steps; s++ {
		step := pr.AddStep()
		// Captured sends to the recording processor itself are local
		// transfers by definition (see Processor.Send).
		step.Comm.WithLocalTransfers()
		for proc, r := range recs {
			step.Comp[proc] = append(step.Comp[proc], r.steps[s].comp...)
			for _, m := range r.steps[s].msgs {
				step.Comm.Add(proc, m.dst, m.bytes)
			}
		}
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	return pr, nil
}
