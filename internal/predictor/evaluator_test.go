package predictor

// Tests for the reusable Evaluator: predictions from a reused evaluator
// must be identical to fresh ones, across programs of different shapes,
// and the steady-state PredictInto path must not allocate.

import (
	"reflect"
	"testing"

	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
	"loggpsim/internal/trace"
)

func geProgram(t *testing.T, n, b, procs int) *program.Program {
	t.Helper()
	g, err := ge.NewGrid(n, b)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ge.BuildProgram(g, layout.RowCyclic(procs))
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestEvaluatorMatchesFreshPredict drives one evaluator through programs
// of different processor counts, step counts and machines — the access
// pattern of a sweep — and checks every prediction equals a fresh
// evaluator's, field for field.
func TestEvaluatorMatchesFreshPredict(t *testing.T) {
	meiko4 := loggp.MeikoCS2(4)
	shapes := []struct {
		pr  *program.Program
		cfg Config
	}{
		{geProgram(t, 96, 12, 8), Config{Params: meiko, Cost: model}},
		{geProgram(t, 48, 8, 4), Config{Params: meiko4, Cost: model}},
		{geProgram(t, 96, 24, 8), Config{Params: meiko, Cost: model, GlobalOrder: true}},
		{geProgram(t, 96, 12, 8), Config{Params: meiko, Cost: model, SendPriority: true, Seed: 5}},
		{geProgram(t, 96, 12, 8), Config{Params: meiko, Cost: model, CollectSteps: true}},
		{geProgram(t, 96, 12, 8), Config{Params: meiko, Cost: model, Overlap: true}},
		{geProgram(t, 48, 8, 4), Config{Params: meiko4, Cost: model,
			CacheBytes: 1 << 16, MissFixed: 0.5, MissPerByte: 0.005}},
	}
	e := NewEvaluator()
	for i, sh := range shapes {
		got, err := e.Predict(sh.pr, sh.cfg)
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		want, err := NewEvaluator().Predict(sh.pr, sh.cfg)
		if err != nil {
			t.Fatalf("shape %d fresh: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shape %d: reused evaluator diverged:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
}

// TestPooledPredictMatchesEvaluator checks the package-level Predict
// (pooled evaluators) equals an explicit evaluator run.
func TestPooledPredictMatchesEvaluator(t *testing.T) {
	pr := geProgram(t, 96, 12, 8)
	cfg := Config{Params: meiko, Cost: model}
	a, err := Predict(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEvaluator().Predict(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("pooled Predict diverged:\ngot  %+v\nwant %+v", a, b)
	}
}

// TestPredictIntoAllocationFree is the acceptance check for the session-
// reuse tentpole: with cache mode and CollectSteps off, a steady-state
// candidate evaluation performs zero heap allocations.
func TestPredictIntoAllocationFree(t *testing.T) {
	pr := geProgram(t, 96, 12, 8)
	cfg := Config{Params: meiko, Cost: model}
	e := NewEvaluator()
	var out Prediction
	if err := e.PredictInto(&out, pr, cfg); err != nil {
		t.Fatal(err) // warm-up sizes every buffer
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.PredictInto(&out, pr, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state PredictInto allocated %v times per run", allocs)
	}
}

// BenchmarkPredictReuse measures steady-state sweep candidate evaluation
// — one reused evaluator, PredictInto per candidate — which must report
// 0 allocs/op under -benchmem (the session-reuse acceptance target).
func BenchmarkPredictReuse(b *testing.B) {
	g, err := ge.NewGrid(96, 12)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := ge.BuildProgram(g, layout.RowCyclic(8))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Params: meiko, Cost: model}
	e := NewEvaluator()
	var out Prediction
	if err := e.PredictInto(&out, pr, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.PredictInto(&out, pr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictFresh is the pre-reuse cost for contrast: sessions and
// buffers rebuilt for every candidate.
func BenchmarkPredictFresh(b *testing.B) {
	g, err := ge.NewGrid(96, 12)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := ge.BuildProgram(g, layout.RowCyclic(8))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Params: meiko, Cost: model}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewEvaluator().Predict(pr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPredictIntoReusesOutputSlices checks PredictInto overwrites — not
// appends to — a recycled Prediction.
func TestPredictIntoReusesOutputSlices(t *testing.T) {
	big, small := geProgram(t, 96, 12, 8), geProgram(t, 48, 8, 4)
	cfg := Config{Params: meiko, Cost: model}
	cfg4 := Config{Params: loggp.MeikoCS2(4), Cost: model}
	e := NewEvaluator()
	var out Prediction
	if err := e.PredictInto(&out, big, cfg); err != nil {
		t.Fatal(err)
	}
	if err := e.PredictInto(&out, small, cfg4); err != nil {
		t.Fatal(err)
	}
	want, err := Predict(small, cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&out, want) {
		t.Fatalf("recycled Prediction diverged:\ngot  %+v\nwant %+v", &out, want)
	}
	if len(out.CompPerProc) != small.P {
		t.Fatalf("CompPerProc kept %d entries for a %d-processor program",
			len(out.CompPerProc), small.P)
	}
}

// BenchmarkPredictLargeP times one reused evaluator on single-step
// high-in-degree patterns: all-to-all, where every receiver merges
// arrivals from P-1 senders, and butterfly exchanges, at P=64 and P=256.
func BenchmarkPredictLargeP(b *testing.B) {
	for _, bc := range []struct {
		name string
		pt   *trace.Pattern
	}{
		{"alltoall/P64", trace.AllToAll(64, 512)},
		{"alltoall/P256", trace.AllToAll(256, 512)},
		{"butterfly/P64", trace.Butterfly(6, 512)},
		{"butterfly/P256", trace.Butterfly(8, 512)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pr := program.New(bc.pt.P)
			pr.AddStep().Comm = bc.pt
			cfg := Config{Params: loggp.MeikoCS2(bc.pt.P), Cost: model, Seed: 1}
			e := NewEvaluator()
			var out Prediction
			if err := e.PredictInto(&out, pr, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.PredictInto(&out, pr, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
