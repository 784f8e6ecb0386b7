package sim

// Stress benchmarks for the scheduler core: the tournament-served
// indexed cores against the reference linear scans, on the large-P
// workloads where the scans' O(P) per-operation cost bites and on the
// paper's own Figure-7 programs at P=8. Run via `make bench`; the
// headline numbers live in EXPERIMENTS.md.

import (
	"fmt"
	"testing"

	"loggpsim/internal/faults"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/trace"
)

func stressParams(p int) loggp.Params {
	return loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: p}
}

// stressPatterns returns the large-P workloads: dense symmetric
// (all-to-all, P-1 messages per processor and a Θ(P) equal-min set for
// most of the run), log-depth symmetric (butterfly), and irregular
// (random, 16 messages per processor on average).
func stressPatterns(p, dims int) map[string]*trace.Pattern {
	return map[string]*trace.Pattern{
		"alltoall":  trace.AllToAll(p, 64),
		"butterfly": trace.Butterfly(dims, 64),
		"random":    trace.Random(p, 16*p, 1024, 1),
	}
}

// benchCommunicate measures repeated quiet-mode simulation of a step
// sequence on a reused session: Reset, then CommunicateInto per step,
// per iteration — the sweep engine's steady state. reference swaps in
// the reference cores of reference_test.go.
func benchCommunicate(b *testing.B, cfg Config, reference bool, steps ...*trace.Pattern) {
	b.Helper()
	sess, err := NewSession(steps[0].P, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var r Result
	msgs := 0
	for _, pt := range steps {
		msgs += pt.NetworkMessages()
	}
	pass := func() {
		if err := sess.Reset(nil); err != nil {
			b.Fatal(err)
		}
		for _, pt := range steps {
			if reference {
				err = sess.communicateReference(&r, pt)
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

// BenchmarkScheduler is the indexed-vs-reference comparison across
// workloads and machine sizes. The acceptance target of the scheduler-
// core rework is >=2x throughput on all-to-all or butterfly at P>=64.
// The ge-b* cases replay every communication step of the Figure-7 GE
// program (N=960, P=8, Meiko CS-2) per iteration, at the smallest,
// middle and largest block sizes of the sweep.
func BenchmarkScheduler(b *testing.B) {
	for _, size := range []struct{ p, dims int }{{64, 6}, {256, 8}} {
		for name, pt := range stressPatterns(size.p, size.dims) {
			for _, core := range schedulerCores {
				b.Run(fmt.Sprintf("%s/P%d/%s", name, size.p, core.name), func(b *testing.B) {
					cfg := Config{Params: stressParams(pt.P), NoTimeline: true}
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

// BenchmarkSchedulerGlobalOrder compares the incremental tournament
// commit loop against the full-rescan reference on the ablation path.
func BenchmarkSchedulerGlobalOrder(b *testing.B) {
	pt := trace.AllToAll(64, 64)
	for _, core := range schedulerCores {
		b.Run(core.name, func(b *testing.B) {
			cfg := Config{Params: stressParams(64), GlobalOrder: true, NoTimeline: true}
			benchCommunicate(b, cfg, core.reference, pt)
		})
	}
}

// BenchmarkFaultHook measures what the fault plumbing costs on the
// stress workloads: "nilhook" is the zero-fault production path (one
// nil check per message, must stay within 2% of the pre-fault-layer
// BenchmarkScheduler numbers in EXPERIMENTS.md), "noop" pays the
// indirect call with zero charges, and "injector" runs a live
// drop+degrade plan. Run by `make bench`.
func BenchmarkFaultHook(b *testing.B) {
	for name, pt := range map[string]*trace.Pattern{
		"alltoall":  trace.AllToAll(64, 64),
		"butterfly": trace.Butterfly(6, 64),
	} {
		params := stressParams(pt.P)
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

// BenchmarkSessionReuse is the allocation acceptance check in benchmark
// form: steady-state quiet-mode candidate evaluation on a reused session
// must report 0 allocs/op under -benchmem.
func BenchmarkSessionReuse(b *testing.B) {
	pt := trace.Butterfly(6, 512)
	cfg := Config{Params: stressParams(64), NoTimeline: true}
	benchCommunicate(b, cfg, false, pt)
}

// BenchmarkSessionFresh is the old cost for contrast: a new session per
// candidate, as every sweep driver paid before session reuse.
func BenchmarkSessionFresh(b *testing.B) {
	pt := trace.Butterfly(6, 512)
	cfg := Config{Params: stressParams(64), NoTimeline: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sess, err := NewSession(pt.P, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Communicate(pt); err != nil {
			b.Fatal(err)
		}
	}
}
