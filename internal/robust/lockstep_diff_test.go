package robust

import (
	"reflect"
	"testing"

	"loggpsim/internal/faults"
	"loggpsim/internal/loggp"
)

// lockstepCases is the differential corpus: machine presets (including
// the ablated no-cross-gap machine and a rendezvous threshold that
// splits the message sizes across both protocols) crossed with fault
// plans exercising every divergence source — retransmit charges, lost
// lanes, computation jitter, stragglers, and degradation windows.
func lockstepCases() map[string]Config {
	noCross := loggp.MeikoCS2(8)
	noCross.NoCrossGap = true
	rendez := loggp.Cluster(8)
	rendez.S = 600 // b=8 payloads stay eager, larger blocks rendezvous

	cases := map[string]Config{
		"meiko":       testConfig(),
		"no-crossgap": testConfig(),
		"rendezvous":  testConfig(),
		"low-overhead": {
			N: 96, P: 8, Sizes: []int{8, 16, 24}, Params: loggp.LowOverhead(8),
			Model: testConfig().Model, Samples: 10, Seed: 3,
			Perturb: Perturb{L: 0.3, O: 0.05, Gap: 0.25, G: 0.1},
		},
	}
	c := cases["no-crossgap"]
	c.Params = noCross
	cases["no-crossgap"] = c
	c = cases["rendezvous"]
	c.Params = rendez
	cases["rendezvous"] = c

	c = testConfig()
	c.Faults = faults.Plan{
		Drop:    faults.Drop{Prob: 0.08},
		Compute: faults.Compute{Jitter: 0.3, Stragglers: 2, Factor: 2.5},
	}
	cases["jitter-stragglers"] = c

	c = testConfig()
	c.Faults = faults.Plan{
		Drop:    faults.Drop{Prob: 0.12},
		Degrade: []faults.Degrade{{Start: 50, End: 900, GScale: 3, LScale: 2}},
	}
	cases["degrade"] = c

	// Drop-heavy with a tight retry budget: some lanes must lose a
	// message and be masked out (asserted below), the rest survive.
	c = testConfig()
	c.Samples = 16
	c.Sizes = []int{16, 24}
	c.Faults = faults.Plan{Drop: faults.Drop{Prob: 0.2, MaxRetries: 3}}
	cases["drop-lossy"] = c
	return cases
}

// TestLockstepMatchesScalar is the differential suite the lockstep
// engine answers to: for every corpus case and at every worker count,
// the batched path must reproduce the scalar reference envelopes of
// runScalar byte-for-byte — every quantile, Samples, Lost, and the
// nominal point, which the batched path runs as one more lane.
func TestLockstepMatchesScalar(t *testing.T) {
	sawLost := false
	for name, cfg := range lockstepCases() {
		t.Run(name, func(t *testing.T) {
			want, err := runScalar(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range want {
				if e.Lost > 0 {
					sawLost = true
				}
			}
			for _, workers := range []int{1, 4} {
				lcfg := cfg
				lcfg.Workers = workers
				got, err := Run(lcfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: lockstep envelopes diverge from scalar:\nscalar   %+v\nlockstep %+v",
						workers, want, got)
				}
			}
		})
	}
	if !sawLost {
		t.Fatal("no corpus case lost a lane; the masking path went untested")
	}
}
