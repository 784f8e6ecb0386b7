// Package collectives provides closed-form LogGP running times and
// matching communication structures for the regular operations that
// prior work analyzed with explicit formulas (broadcast, scatter,
// gather, all-gather; Karp et al.'s optimal broadcast). The paper's
// pitch is that its simulator handles *irregular* patterns where such
// formulas break down; these regular cases are where formula and
// simulation must agree, so the package doubles as an analytic
// validation oracle for the simulator (see the tests) and as the
// baseline the paper contrasts itself with.
//
// Collectives that forward data (binomial broadcast, ring all-gather)
// cannot be a single communication step in the paper's program class —
// a pattern carries no intra-step data dependencies — so they are
// expressed as sequences of steps to be replayed through a sim.Session.
// All formulas use the same operation-interval semantics as the
// simulator (loggp.Params.Interval), i.e. the paper's Figure-1 gap
// rules, with clocks and gap state carried across steps.
package collectives

import (
	"loggpsim/internal/loggp"
	"loggpsim/internal/trace"
)

// PointToPointTime returns the end-to-end LogGP time of one message:
// o + (k-1)G + L + o.
func PointToPointTime(p loggp.Params, bytes int) float64 {
	return p.PointToPoint(bytes)
}

// LinearBroadcastPattern returns the one-step pattern in which the root
// sends the payload directly to every other processor.
func LinearBroadcastPattern(procs, root, bytes int) *trace.Pattern {
	return trace.Scatter(procs, root, bytes)
}

// LinearBroadcastTime returns the completion time of the linear
// broadcast: the root issues P-1 sends spaced by the send-send interval;
// the last leaf finishes one arrival delay plus o after the last send.
func LinearBroadcastTime(p loggp.Params, procs, bytes int) float64 {
	if procs <= 1 {
		return 0
	}
	iv := p.Interval(loggp.Send, loggp.Send, bytes)
	lastSend := float64(procs-2) * iv
	return lastSend + p.ArrivalDelay(bytes) + p.O
}

// GatherPattern returns the one-step pattern in which every non-root
// processor sends one message to the root.
func GatherPattern(procs, root, bytes int) *trace.Pattern {
	return trace.Gather(procs, root, bytes)
}

// GatherTime returns the completion time of the gather: all messages
// arrive together at o+(k-1)G+L; the root then drains them spaced by the
// receive-receive interval.
func GatherTime(p loggp.Params, procs, bytes int) float64 {
	if procs <= 1 {
		return 0
	}
	iv := p.Interval(loggp.Recv, loggp.Recv, bytes)
	return p.ArrivalDelay(bytes) + float64(procs-2)*iv + p.O
}

// BinomialBroadcastSteps returns the rounds of the binomial-tree
// broadcast over procs processors rooted at 0: in round r every
// processor i with i < 2^r forwards to i + 2^r. Each round is its own
// communication step because forwarding depends on the previous round's
// receive.
func BinomialBroadcastSteps(procs, bytes int) []*trace.Pattern {
	var steps []*trace.Pattern
	for stride := 1; stride < procs; stride *= 2 {
		pt := trace.New(procs)
		for i := 0; i < stride && i+stride < procs; i++ {
			pt.Add(i, i+stride, bytes)
		}
		steps = append(steps, pt)
	}
	return steps
}

// BinomialBroadcastTime returns the completion time of the binomial
// broadcast by direct recurrence over the tree, using the same interval
// rules and state-carrying semantics as replaying
// BinomialBroadcastSteps through a sim.Session.
func BinomialBroadcastTime(p loggp.Params, procs, bytes int) float64 {
	if procs <= 1 {
		return 0
	}
	children := make([][]int, procs) // in contact order
	for stride := 1; stride < procs; stride *= 2 {
		for i := 0; i < stride && i+stride < procs; i++ {
			children[i] = append(children[i], i+stride)
		}
	}
	finish := 0.0
	// walk propagates: proc received at recvStart (roots use firstSend
	// directly) and forwards to its children.
	var walk func(proc int, recvStart float64, isRoot bool)
	walk = func(proc int, recvStart float64, isRoot bool) {
		var next float64 // earliest start of proc's first send
		if isRoot {
			next = 0
		} else {
			if end := recvStart + p.O; end > finish {
				finish = end
			}
			next = recvStart + p.Interval(loggp.Recv, loggp.Send, bytes)
		}
		for i, c := range children[proc] {
			if i > 0 {
				next += p.Interval(loggp.Send, loggp.Send, bytes)
			}
			walk(c, next+p.ArrivalDelay(bytes), false)
		}
	}
	walk(0, 0, true)
	return finish
}

// OptimalBroadcast computes Karp et al.'s greedy broadcast schedule:
// every processor that holds the datum keeps transmitting it to
// uninformed processors as fast as the gap rules allow, and each new
// transmission is assigned to the processor that can deliver it
// earliest. Under LogP this greedy schedule is optimal; under the
// paper's extended gap rules it remains the natural generalization. It
// returns the schedule as a forest of (sender, time) assignments encoded
// in a pattern (for inspection; the pattern is a schedule, not a single
// replayable step) and the predicted completion time.
func OptimalBroadcast(p loggp.Params, procs, bytes int) (*trace.Pattern, float64) {
	pt := trace.New(procs)
	if procs <= 1 {
		return pt, 0
	}
	type sender struct {
		proc     int
		nextSend float64
	}
	senders := []sender{{proc: 0, nextSend: 0}}
	finish := 0.0
	for informed := 1; informed < procs; informed++ {
		best := 0
		bestArr := senders[0].nextSend + p.ArrivalDelay(bytes)
		for i := 1; i < len(senders); i++ {
			if arr := senders[i].nextSend + p.ArrivalDelay(bytes); arr < bestArr {
				best, bestArr = i, arr
			}
		}
		s := &senders[best]
		pt.Add(s.proc, informed, bytes)
		recvStart := bestArr // the receiver is idle, so it receives on arrival
		if end := recvStart + p.O; end > finish {
			finish = end
		}
		s.nextSend += p.Interval(loggp.Send, loggp.Send, bytes)
		senders = append(senders, sender{
			proc:     informed,
			nextSend: recvStart + p.Interval(loggp.Recv, loggp.Send, bytes),
		})
	}
	return pt, finish
}

// RingAllGatherSteps returns the P-1 communication steps of the ring
// all-gather: in every step each processor forwards a block to its
// successor.
func RingAllGatherSteps(procs, bytes int) []*trace.Pattern {
	if procs <= 1 {
		return nil
	}
	steps := make([]*trace.Pattern, procs-1)
	for r := range steps {
		steps[r] = trace.Ring(procs, bytes)
	}
	return steps
}

// RingAllGatherTime returns the completion time of the ring all-gather
// by recurrence: all processors are symmetric, so each round reduces to
// one send time and one receive-start time.
func RingAllGatherTime(p loggp.Params, procs, bytes int) float64 {
	if procs <= 1 {
		return 0
	}
	ivSS := p.Interval(loggp.Send, loggp.Send, bytes)
	ivSR := p.Interval(loggp.Send, loggp.Recv, bytes)
	ivRS := p.Interval(loggp.Recv, loggp.Send, bytes)
	ivRR := p.Interval(loggp.Recv, loggp.Recv, bytes)
	ad := p.ArrivalDelay(bytes)
	send := 0.0
	recvStart := max(send+ad, send+ivSR)
	for r := 1; r < procs-1; r++ {
		send = max(send+ivSS, recvStart+ivRS)
		recvStart = max(max(send+ad, send+ivSR), recvStart+ivRR)
	}
	return recvStart + p.O
}
