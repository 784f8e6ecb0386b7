package analyze_test

// Satellite fuzz test: the static deadlock verdict must agree with what
// the schedulers actually do. The worst-case scheduler blocks every send
// behind the processor's pending receives (Section 4.2), so a cycle in
// the deduplicated src→dst graph forces at least one released send —
// and without one, none: the verdict must predict DeadlocksBroken
// exactly. The standard scheduler never blocks sends, so a deadlock-free
// verdict additionally promises every operation commits there too.

import (
	"testing"

	"loggpsim/internal/analyze"
	"loggpsim/internal/loggp"
	"loggpsim/internal/sim"
	"loggpsim/internal/trace"
	"loggpsim/internal/worstcase"
)

// fuzzPattern decodes a fuzz input into a pattern and machine, mirroring
// the sim and worstcase decoders so the fuzzers share corpus shapes.
func fuzzPattern(data []byte) (*trace.Pattern, loggp.Params, int64, bool) {
	if len(data) < 8 {
		return nil, loggp.Params{}, 0, false
	}
	procs := int(data[0]%15) + 2
	params := loggp.Params{
		L:   float64(data[1]%50) + 1,
		O:   float64(data[2]%20) + 1,
		Gap: float64(data[3] % 40),
		G:   float64(data[4]%10) / 100,
		P:   procs,
	}
	seed := int64(data[5])
	pt := trace.New(procs).WithLocalTransfers() // fuzz inputs may legitimately contain self messages
	for i := 6; i+3 < len(data); i += 4 {
		src := int(data[i]) % procs
		dst := int(data[i+1]) % procs
		bytes := int(data[i+2])<<4 + int(data[i+3]) + 1
		pt.Add(src, dst, bytes)
	}
	return pt, params, seed, true
}

func FuzzDeadlockVerdict(f *testing.F) {
	f.Add([]byte{8, 9, 2, 16, 1, 1, 0, 1, 0, 112, 1, 2, 0, 112})         // acyclic chain
	f.Add([]byte{2, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1})              // two-cycle
	f.Add([]byte{15, 49, 19, 39, 9, 255, 0, 0, 0, 255})                  // self message
	f.Add([]byte{3, 9, 2, 16, 1, 7, 0, 1, 0, 8, 1, 2, 0, 8, 2, 0, 0, 8}) // three-cycle
	f.Fuzz(func(t *testing.T, data []byte) {
		pt, params, seed, ok := fuzzPattern(data)
		if !ok {
			return
		}
		rep := analyze.Check(pt, params)
		if err := rep.Issues.Err(); err != nil {
			t.Fatalf("decoder produced invalid pattern: %v", err)
		}
		if rep.DeadlockFree != (pt.FindCycle() == nil) {
			t.Fatalf("verdict %v disagrees with FindCycle %v", rep.DeadlockFree, pt.FindCycle())
		}
		if rep.DeadlockFree != (pt.ValidateDeadlockFree() == nil) {
			t.Fatalf("verdict %v disagrees with ValidateDeadlockFree", rep.DeadlockFree)
		}

		worst, err := worstcase.Run(pt, worstcase.Config{Params: params, Seed: seed})
		if err != nil {
			t.Fatalf("worstcase: %v", err)
		}
		if rep.DeadlockFree && worst.DeadlocksBroken != 0 {
			t.Fatalf("verdict deadlock-free, but scheduler broke %d deadlocks", worst.DeadlocksBroken)
		}
		if !rep.DeadlockFree && worst.DeadlocksBroken == 0 {
			t.Fatalf("verdict found witness cycle %v, but scheduler never deadlocked", rep.WitnessCycle)
		}

		// Either way every operation must commit: deadlock-free runs
		// drain naturally, cyclic ones through forced releases; and the
		// standard scheduler (global-order mode here) never blocks sends,
		// so it completes regardless of the verdict.
		net := pt.NetworkMessages()
		if worst.Timeline.Sends() != net || worst.Timeline.Recvs() != net {
			t.Fatalf("worstcase delivered %d/%d of %d",
				worst.Timeline.Sends(), worst.Timeline.Recvs(), net)
		}
		std, err := sim.Run(pt, sim.Config{Params: params, Seed: seed, GlobalOrder: true})
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		if std.Timeline.Sends() != net || std.Timeline.Recvs() != net {
			t.Fatalf("global order delivered %d/%d of %d",
				std.Timeline.Sends(), std.Timeline.Recvs(), net)
		}
	})
}
