package worstcase

// Stress benchmarks for the worst-case scheduler: the production
// session (sim's tournament core) against the reference session's full
// rescan, on the large-P workloads and on the paper's own Figure-7
// programs at P=8 (see the sim package's stress benchmarks; `make bench`
// records both).

import (
	"fmt"
	"testing"

	"loggpsim/internal/faults"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/trace"
)

// benchCommunicate measures repeated quiet-mode simulation of a step
// sequence on a reused session: Reset, then CommunicateInto per step,
// per iteration. reference swaps in the reference session of
// reference_test.go.
func benchCommunicate(b *testing.B, cfg Config, reference bool, steps ...*trace.Pattern) {
	b.Helper()
	sess, err := NewSession(steps[0].P, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := newRefSession(steps[0].P, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var r Result
	msgs := 0
	for _, pt := range steps {
		msgs += pt.NetworkMessages()
	}
	pass := func() {
		if reference {
			ref.reset()
		} else if err := sess.Reset(nil); err != nil {
			b.Fatal(err)
		}
		for _, pt := range steps {
			if reference {
				err = ref.communicate(&r, pt)
			} else {
				err = sess.CommunicateInto(&r, pt)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	// One untimed pass grows the session's send arena and receive heaps
	// to the workload, so the timed loop measures the steady state.
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(msgs)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkWorstcaseFaultHook mirrors the sim package's fault-hook
// overhead benchmark on the worst-case scheduler: "nilhook" is the
// zero-fault production path that must stay within 2% of the pre-fault
// BenchmarkWorstcaseScheduler numbers, "noop" isolates the indirect-call
// cost, "injector" runs a live drop+degrade plan. Run by `make bench`.
func BenchmarkWorstcaseFaultHook(b *testing.B) {
	for name, pt := range map[string]*trace.Pattern{
		"alltoall":  trace.AllToAll(64, 64),
		"butterfly": trace.Butterfly(6, 64),
	} {
		params := loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: pt.P}
		in, err := (faults.Plan{
			Seed:    11,
			Drop:    faults.Drop{Prob: 0.02},
			Degrade: []faults.Degrade{{Start: 20, End: 400, GScale: 2, LScale: 1.5}},
		}).Injector(params)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			hook func(step, msgIndex, src, dst, bytes int, start float64) (float64, float64, error)
		}{
			{"nilhook", nil},
			{"noop", func(int, int, int, int, int, float64) (float64, float64, error) { return 0, 0, nil }},
			{"injector", in.SendOutcome},
		} {
			b.Run(fmt.Sprintf("%s/P%d/%s", name, pt.P, mode.name), func(b *testing.B) {
				benchCommunicate(b, Config{Params: params, NoTimeline: true, Fault: mode.hook}, false, pt)
			})
		}
	}
}

// geSteps returns the communication steps of the Figure-7 GE program
// (diagonal layout) for an n×n matrix in b×b blocks on p processors.
func geSteps(b *testing.B, n, blk, p int) []*trace.Pattern {
	b.Helper()
	grid, err := ge.NewGrid(n, blk)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := ge.BuildProgram(grid, layout.Diagonal(p, grid.NB))
	if err != nil {
		b.Fatal(err)
	}
	steps := make([]*trace.Pattern, len(pr.Steps))
	for i, s := range pr.Steps {
		steps[i] = s.Comm
	}
	return steps
}

var schedulerCores = []struct {
	name      string
	reference bool
}{{"indexed", false}, {"reference", true}}

// BenchmarkWorstcaseScheduler is the indexed-vs-reference comparison
// across workloads and machine sizes. The ge-b* cases replay every
// communication step of the Figure-7 GE program (N=960, P=8, Meiko
// CS-2) per iteration, at the smallest, middle and largest block sizes
// of the sweep.
func BenchmarkWorstcaseScheduler(b *testing.B) {
	for _, size := range []struct{ p, dims int }{{64, 6}, {256, 8}} {
		patterns := map[string]*trace.Pattern{
			"alltoall":  trace.AllToAll(size.p, 64),
			"butterfly": trace.Butterfly(size.dims, 64),
			"random":    trace.Random(size.p, 16*size.p, 1024, 1),
		}
		for name, pt := range patterns {
			for _, core := range schedulerCores {
				b.Run(fmt.Sprintf("%s/P%d/%s", name, size.p, core.name), func(b *testing.B) {
					cfg := Config{Params: loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: pt.P}, NoTimeline: true}
					benchCommunicate(b, cfg, core.reference, pt)
				})
			}
		}
	}
	for _, blk := range []int{8, 48, 120} {
		steps := geSteps(b, 960, blk, 8)
		for _, core := range schedulerCores {
			b.Run(fmt.Sprintf("ge-b%d/P8/%s", blk, core.name), func(b *testing.B) {
				cfg := Config{Params: loggp.MeikoCS2(8), NoTimeline: true}
				benchCommunicate(b, cfg, core.reference, steps...)
			})
		}
	}
}
