package worstcase

// Large-P stress benchmarks for the worst-case commit loop: the
// incremental tournament core against the reference full rescan (see
// the sim package's stress benchmarks; `make bench` records both).

import (
	"fmt"
	"testing"

	"loggpsim/internal/faults"
	"loggpsim/internal/loggp"
	"loggpsim/internal/trace"
)

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
				sess, err := NewSession(pt.P, Config{Params: params, NoTimeline: true, Fault: mode.hook})
				if err != nil {
					b.Fatal(err)
				}
				var r Result
				msgs := pt.NetworkMessages()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sess.Reset(nil); err != nil {
						b.Fatal(err)
					}
					if err := sess.CommunicateInto(&r, pt); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(msgs)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
			})
		}
	}
}

func BenchmarkWorstcaseScheduler(b *testing.B) {
	for _, size := range []struct{ p, dims int }{{64, 6}, {256, 8}} {
		patterns := map[string]*trace.Pattern{
			"alltoall":  trace.AllToAll(size.p, 64),
			"butterfly": trace.Butterfly(size.dims, 64),
			"random":    trace.Random(size.p, 16*size.p, 1024, 1),
		}
		for name, pt := range patterns {
			for _, core := range []struct {
				name      string
				reference bool
			}{{"indexed", false}, {"reference", true}} {
				b.Run(fmt.Sprintf("%s/P%d/%s", name, size.p, core.name), func(b *testing.B) {
					cfg := Config{Params: loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: pt.P}, NoTimeline: true}
					sess, err := NewSession(pt.P, cfg)
					if err != nil {
						b.Fatal(err)
					}
					var r Result
					msgs := pt.NetworkMessages()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := sess.Reset(nil); err != nil {
							b.Fatal(err)
						}
						if core.reference {
							err = sess.communicateReference(&r, pt)
						} else {
							err = sess.CommunicateInto(&r, pt)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(msgs)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
				})
			}
		}
	}
}
