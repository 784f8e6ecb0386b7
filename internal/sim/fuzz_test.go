package sim

import (
	"testing"

	"loggpsim/internal/loggp"
	"loggpsim/internal/trace"
)

// patternFromBytes decodes a fuzz input into a communication pattern and
// machine: the first bytes pick the machine shape, the rest become
// messages.
func patternFromBytes(data []byte) (*trace.Pattern, loggp.Params, int64, bool) {
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

// FuzzSimulationAlgorithms throws arbitrary patterns and machines at
// both simulation algorithms and checks the full LogGP verifier plus
// message conservation on every run.
func FuzzSimulationAlgorithms(f *testing.F) {
	f.Add([]byte{8, 9, 2, 16, 1, 1, 0, 1, 0, 112, 1, 2, 0, 112})
	f.Add([]byte{2, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1}) // two-cycle
	f.Add([]byte{15, 49, 19, 39, 9, 255, 0, 0, 0, 255})     // self message
	f.Fuzz(func(t *testing.T, data []byte) {
		pt, params, seed, ok := patternFromBytes(data)
		if !ok {
			return
		}
		net := pt.NetworkMessages()

		r, err := Run(pt, Config{Params: params, Seed: seed})
		if err != nil {
			t.Fatalf("standard: %v", err)
		}
		if err := r.Timeline.Verify(params); err != nil {
			t.Fatalf("standard timeline: %v", err)
		}
		if r.Timeline.Sends() != net || r.Timeline.Recvs() != net {
			t.Fatalf("standard delivered %d/%d of %d", r.Timeline.Sends(), r.Timeline.Recvs(), net)
		}

		w, err := Run(pt, Config{Params: params, Seed: seed, WorstCase: true})
		if err != nil {
			t.Fatalf("worstcase: %v", err)
		}
		if err := w.Timeline.Verify(params); err != nil {
			t.Fatalf("worstcase timeline: %v", err)
		}
		if w.Timeline.Sends() != net || w.Timeline.Recvs() != net {
			t.Fatalf("worstcase delivered %d/%d of %d", w.Timeline.Sends(), w.Timeline.Recvs(), net)
		}

		// The global-order ablation must satisfy the same invariants.
		g, err := Run(pt, Config{Params: params, Seed: seed, GlobalOrder: true})
		if err != nil {
			t.Fatalf("global order: %v", err)
		}
		if err := g.Timeline.Verify(params); err != nil {
			t.Fatalf("global-order timeline: %v", err)
		}

		// The indexed scheduler cores must be bit-identical to the
		// reference scans on every fuzz input, in every mode: same
		// operations, same order, same starts, same tie-breaks.
		for _, mode := range []struct {
			name         string
			sendPriority bool
			globalOrder  bool
		}{
			{"paper", false, false},
			{"sendpri", true, false},
			{"globalorder", false, true},
			{"globalorder_sendpri", true, true},
		} {
			cfg := Config{
				Params:       params,
				Seed:         seed,
				SendPriority: mode.sendPriority,
				GlobalOrder:  mode.globalOrder,
			}
			indexed, err := Run(pt, cfg)
			if err != nil {
				t.Fatalf("%s indexed: %v", mode.name, err)
			}
			reference, err := simulateReference(pt, cfg)
			if err != nil {
				t.Fatalf("%s reference: %v", mode.name, err)
			}
			if indexed.Finish != reference.Finish {
				t.Fatalf("%s Finish: indexed %v, reference %v", mode.name, indexed.Finish, reference.Finish)
			}
			ia, ra := indexed.Timeline.Ops, reference.Timeline.Ops
			if len(ia) != len(ra) {
				t.Fatalf("%s timeline length: indexed %d, reference %d", mode.name, len(ia), len(ra))
			}
			for i := range ia {
				if ia[i] != ra[i] {
					t.Fatalf("%s op %d: indexed %+v, reference %+v", mode.name, i, ia[i], ra[i])
				}
			}
		}
	})
}
