package robust

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"loggpsim/internal/cost"
	"loggpsim/internal/faults"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/sweep"
)

func testConfig() Config {
	return Config{
		N:       96,
		P:       8,
		Sizes:   []int{8, 12, 16, 24},
		Params:  loggp.MeikoCS2(8),
		Model:   cost.DefaultAnalytic(),
		Samples: 12,
		Seed:    7,
		Perturb: Perturb{L: 0.2, O: 0.1, Gap: 0.2, G: 0.15},
	}
}

// TestRunDeterministicAcrossWorkers pins the seed-derivation scheme:
// the envelope of every block size must be byte-identical whether the
// sweep runs serially or fanned out.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	parallel, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("envelopes depend on worker count:\nserial   %+v\nparallel %+v", serial, parallel)
	}
	if len(serial) != 4 {
		t.Fatalf("got %d envelopes, want 4", len(serial))
	}
}

// TestEnvelopeShape checks the structural invariants of a pure
// parameter-uncertainty run: quantiles ordered, every sample counted,
// and the envelope consistent with the nominal certificate (Run itself
// asserts each sample against its own perturbed certificate).
func TestEnvelopeShape(t *testing.T) {
	envs, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range envs {
		if e.Samples != 12 || e.Lost != 0 {
			t.Fatalf("b=%d: %d samples, %d lost; want 12, 0", e.B, e.Samples, e.Lost)
		}
		if !(e.Total.P5 <= e.Total.P50 && e.Total.P50 <= e.Total.P95) {
			t.Fatalf("b=%d: total quantiles unordered: %+v", e.B, e.Total)
		}
		if !(e.Worst.P5 <= e.Worst.P50 && e.Worst.P50 <= e.Worst.P95) {
			t.Fatalf("b=%d: worst quantiles unordered: %+v", e.B, e.Worst)
		}
		if e.CertLower <= 0 || e.CertUpper < e.CertLower {
			t.Fatalf("b=%d: degenerate certificate [%g, %g]", e.B, e.CertLower, e.CertUpper)
		}
		if e.Nominal < e.CertLower || e.Nominal > e.CertUpper {
			t.Fatalf("b=%d: nominal %g outside its certificate [%g, %g]",
				e.B, e.Nominal, e.CertLower, e.CertUpper)
		}
	}
}

// TestFaultsShiftEnvelopeUp compares a fault-free sweep against one
// with drops and a straggler: faults only add time, so every quantile
// must move up (and the median strictly, or the plan did nothing).
func TestFaultsShiftEnvelopeUp(t *testing.T) {
	cfg := testConfig()
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = faults.Plan{
		Drop:    faults.Drop{Prob: 0.05},
		Compute: faults.Compute{Stragglers: 1, Factor: 2},
	}
	faulty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	strict := false
	for i := range clean {
		c, f := clean[i], faulty[i]
		if f.Total.P5 < c.Total.P5 || f.Total.P50 < c.Total.P50 || f.Total.P95 < c.Total.P95 {
			t.Fatalf("b=%d: faults deflated the envelope: %+v -> %+v", c.B, c.Total, f.Total)
		}
		if f.Total.P50 > c.Total.P50 {
			strict = true
		}
	}
	if !strict {
		t.Fatal("fault plan left every median unchanged")
	}
}

// TestResumeByteIdentical runs the sweep three ways — no journal, a
// fresh journal, and a resume against the finished journal — and
// demands identical envelopes; the resume must recompute nothing.
func TestResumeByteIdentical(t *testing.T) {
	cfg := testConfig()
	cfg.Sizes = []int{8, 12}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "robust.journal")
	j, err := sweep.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := sweep.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	cfg.Journal = j2
	// Poison the model so any recomputation would diverge loudly: the
	// resumed run must be served from the journal alone.
	cfg.Model = nil
	resumed, err := Run(cfg)
	if err == nil || resumed != nil {
		// cfg.Model==nil fails fast before the sweep; restore it and
		// verify the cached path instead.
		t.Fatalf("nil model accepted: (%v, %v)", resumed, err)
	}
	cfg.Model = cost.DefaultAnalytic()
	resumed, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, first) || !reflect.DeepEqual(want, resumed) {
		t.Fatalf("resume diverged:\nwant    %+v\nfresh   %+v\nresumed %+v", want, first, resumed)
	}
	if j2.Len() != 2 {
		t.Fatalf("journal holds %d entries, want 2", j2.Len())
	}
}

// TestParsePerturb covers the flag syntax.
func TestParsePerturb(t *testing.T) {
	u, err := Parse("l=0.2, o=0.1, gap=0.05, g=0.3")
	if err != nil {
		t.Fatal(err)
	}
	if (u != Perturb{L: 0.2, O: 0.1, Gap: 0.05, G: 0.3}) {
		t.Fatalf("parsed %+v", u)
	}
	if u, err := Parse(""); err != nil || u.Enabled() {
		t.Fatalf("empty spec: (%+v, %v)", u, err)
	}
	for _, spec := range []string{"l", "l=x", "q=0.1", "l=1.5", "o=-0.1", "l=NaN"} {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("spec %q parsed", spec)
		}
	}
}

// TestCtxAbortsBetweenSamples pins the per-sample deadline contract the
// prediction service leans on: a context cancelled mid-envelope aborts
// before the next sample starts and surfaces as a wrapped ctx error,
// and a live context leaves the envelopes byte-identical.
func TestCtxAbortsBetweenSamples(t *testing.T) {
	cfg := testConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx
	if _, err := Run(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with cancelled ctx = %v, want wrapped context.Canceled", err)
	}

	cfg = testConfig()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ctx = context.Background()
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live context changed the envelopes:\n got %+v\nwant %+v", got, want)
	}
}

// TestCtxCancelMidSweepStopsEarly cancels after the first envelope
// completes — when the single worker asks for the second one's layout —
// and checks the sweep reports cancellation rather than running every
// remaining sample.
func TestCtxCancelMidSweepStopsEarly(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Samples = 4
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Ctx = ctx
	started := 0
	cfg.Layout = func(nb int) layout.Layout {
		started++
		if started == 2 {
			cancel()
		}
		return layout.Diagonal(cfg.P, nb)
	}
	_, err := Run(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if started == len(cfg.Sizes) {
		t.Fatalf("sweep started all %d envelopes despite cancellation", started)
	}
}
