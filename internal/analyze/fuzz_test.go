package analyze_test

// Satellite fuzz test: the static deadlock verdict must agree with what
// the schedulers actually do. The worst-case scheduler blocks every send
// behind the processor's pending receives (Section 4.2), so a cycle in
// the deduplicated src→dst graph forces at least one released send —
// and without one, none: the verdict must predict DeadlocksBroken
// exactly. The standard scheduler never blocks sends, so a deadlock-free
// verdict additionally promises every operation commits there too. The
// same inputs fuzz the bound certificate: Check's must equal the walk
// oracle's bit for bit, and both schedulers must finish inside it.

import (
	"reflect"
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
	// Mixed sizes, standard above worst case: processor 4 receives the
	// 4033-byte 3->4 first and waits out its gap in the standard run
	// (712.12µs), but the smaller 0->4 first in the worst case, where 3
	// sends only after its own receive (652.52µs).
	f.Add([]byte("10000009070X\xc8011009X\xf90"))
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
		if rep.Bounds == nil {
			t.Fatal("no certificate for a sound pattern")
		}
		if want := analyze.WalkPattern(pt, params); !reflect.DeepEqual(*rep.Bounds, want) {
			t.Fatalf("certificate diverges from the walk:\nwant %+v\ngot  %+v", want, *rep.Bounds)
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

		// The certificate bounds every schedule of either scheduler. The
		// overestimation need not bound the standard run (see the
		// mixed-size seed), so the two are not compared with each other.
		paper, err := sim.Run(pt, sim.Config{Params: params, Seed: seed, NoTimeline: true})
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		lo, hi := rep.Bounds.Lower, rep.Bounds.Upper
		for _, run := range []struct {
			name   string
			finish float64
		}{{"sim", paper.Finish}, {"global order", std.Finish}, {"worstcase", worst.Finish}} {
			if run.finish < lo-eps || run.finish > hi+eps {
				t.Fatalf("%s finishes at %v, outside the certificate [%v, %v]", run.name, run.finish, lo, hi)
			}
		}
	})
}
