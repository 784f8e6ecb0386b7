package serve

import (
	"fmt"
	"testing"

	"loggpsim/internal/resultcache"
)

// keyOfReq canonicalizes and hashes, failing the test on a request the
// caller believed valid.
func keyOfReq(t *testing.T, r Request) resultcache.Key {
	t.Helper()
	c, err := canonicalize(&r)
	if err != nil {
		t.Fatalf("canonicalize(%+v): %v", r, err)
	}
	return c.key()
}

func geRequest(mode string) Request {
	return Request{
		Mode:     mode,
		Workload: Workload{Kind: KindGE, Procs: 4, N: 96, Block: 8},
	}
}

func TestCanonicalKeyFillsDefaults(t *testing.T) {
	base := keyOfReq(t, geRequest(ModeSimulate))

	// Every spelling of the defaults shares the base key.
	for name, r := range map[string]Request{
		"empty mode":      geRequest(""),
		"explicit layout": {Mode: ModeSimulate, Workload: Workload{Kind: KindGE, Procs: 4, N: 96, Block: 8, Layout: "diagonal"}},
		"explicit preset": {Mode: ModeSimulate, Workload: Workload{Kind: KindGE, Procs: 4, N: 96, Block: 8}, Machine: Machine{Preset: "meiko-cs2"}},
		"explicit params": {Mode: ModeSimulate, Workload: Workload{Kind: KindGE, Procs: 4, N: 96, Block: 8}, Machine: Machine{L: 9, O: 2, Gap: 16, G: 0.005}},
	} {
		if keyOfReq(t, r) != base {
			t.Errorf("%s: key differs from the default spelling", name)
		}
	}

	// Envelope sample default: 0 and 32 are one request.
	e0, e32 := geRequest(ModeEnvelope), geRequest(ModeEnvelope)
	e32.Samples = 32
	if keyOfReq(t, e0) != keyOfReq(t, e32) {
		t.Error("envelope samples 0 and 32 keyed differently")
	}
}

func TestCanonicalKeyDropsIgnoredFields(t *testing.T) {
	// Deadline and budget never participate.
	a, b := geRequest(ModeSimulate), geRequest(ModeSimulate)
	b.DeadlineMS = 250
	b.Budget = 1e6
	if keyOfReq(t, a) != keyOfReq(t, b) {
		t.Error("deadline/budget leaked into the key")
	}

	// Samples and perturbation are envelope-only.
	c := geRequest(ModeSimulate)
	c.Samples = 64
	c.Perturb.L = 0.2
	if keyOfReq(t, a) != keyOfReq(t, c) {
		t.Error("envelope-only knobs leaked into a simulate key")
	}

	// The seed is dropped for seed-free analyze requests...
	d, e := geRequest(ModeAnalyze), geRequest(ModeAnalyze)
	e.Seed = 1234
	if keyOfReq(t, d) != keyOfReq(t, e) {
		t.Error("seed leaked into a seed-free analyze key")
	}
	// ...but kept when the workload construction reads it.
	f := Request{Mode: ModeAnalyze, Workload: Workload{Kind: KindPattern, Procs: 8, Pattern: "random", Bytes: 64}}
	g := f
	g.Seed = 1234
	if keyOfReq(t, f) == keyOfReq(t, g) {
		t.Error("seed ignored for a random-pattern analyze request")
	}

	// Faults are dropped in analyze mode, kept elsewhere.
	h := geRequest(ModeAnalyze)
	h.Faults = "drop=0.1,seed=3"
	if keyOfReq(t, geRequest(ModeAnalyze)) != keyOfReq(t, h) {
		t.Error("fault plan leaked into an analyze key")
	}
	i := geRequest(ModeSimulate)
	i.Faults = "drop=0.1,seed=3"
	if keyOfReq(t, geRequest(ModeSimulate)) == keyOfReq(t, i) {
		t.Error("fault plan ignored in a simulate key")
	}
}

func TestCanonicalKeyFaultSpecSpellings(t *testing.T) {
	specs := []string{
		"drop=0.1,rto=40,seed=3",
		" rto=40, drop=0.1 ,seed=3 ",                 // whitespace and order
		"drop=1e-1,rto=4e1,seed=3",                   // float spelling
		"drop=0.1,rto=40,seed=3,factor=2",            // factor unread without stragglers
		"drop=0.1,rto=40,seed=3,backoff=2,retries=8", // explicit defaults
	}
	var want resultcache.Key
	for n, spec := range specs {
		r := geRequest(ModeSimulate)
		r.Faults = spec
		k := keyOfReq(t, r)
		if n == 0 {
			want = k
		} else if k != want {
			t.Errorf("spec %q keyed differently from %q", spec, specs[0])
		}
	}

	// A genuinely different plan must not collide.
	r := geRequest(ModeSimulate)
	r.Faults = "drop=0.2,rto=40,seed=3"
	if keyOfReq(t, r) == want {
		t.Error("distinct fault plans collided")
	}

	// A disabled-but-spelled plan equals no plan at all.
	r = geRequest(ModeSimulate)
	r.Faults = "drop=0,seed=99"
	if keyOfReq(t, r) != keyOfReq(t, geRequest(ModeSimulate)) {
		t.Error("no-op fault spec keyed differently from an absent one")
	}
}

func TestCanonicalKeySeparatesModesAndWorkloads(t *testing.T) {
	seen := map[resultcache.Key]string{}
	distinct := []Request{
		geRequest(ModeSimulate),
		geRequest(ModeWorstCase),
		geRequest(ModeAnalyze),
		geRequest(ModeEnvelope),
		{Mode: ModeSimulate, Workload: Workload{Kind: KindGE, Procs: 8, N: 96, Block: 8}},
		{Mode: ModeSimulate, Workload: Workload{Kind: KindGE, Procs: 4, N: 192, Block: 8}},
		{Mode: ModeSimulate, Workload: Workload{Kind: KindGE, Procs: 4, N: 96, Block: 6}},
		{Mode: ModeSimulate, Workload: Workload{Kind: KindGE, Procs: 4, N: 96, Block: 8, Layout: "row"}},
		{Mode: ModeSimulate, Workload: Workload{Kind: KindPattern, Procs: 4, Pattern: "ring", Bytes: 64}},
		{Mode: ModeSimulate, Workload: Workload{Kind: KindPattern, Procs: 4, Pattern: "ring", Bytes: 128}},
		{Mode: ModeSimulate, Workload: Workload{Kind: KindPattern, Procs: 4, Pattern: "alltoall", Bytes: 64}},
		{Mode: ModeSimulate, Workload: Workload{Kind: KindGE, Procs: 4, N: 96, Block: 8}, Machine: Machine{Preset: "cluster"}},
		{Mode: ModeSimulate, Workload: Workload{Kind: KindGE, Procs: 4, N: 96, Block: 8}, Seed: 5},
	}
	for _, r := range distinct {
		k := keyOfReq(t, r)
		if prev, ok := seen[k]; ok {
			t.Errorf("requests collided: %+v vs %s", r, prev)
		}
		seen[k] = fmt.Sprintf("%+v", r)
	}
}

// FuzzCanonicalKey fuzzes the hash's two directions across the request
// space: semantically equal requests (defaults spelled out, ignored
// fields set, fault specs reordered) must share a key, and
// single-parameter changes must separate keys. It also checks the
// canonicalization round trip: re-spelling a request from its own
// canonical form is key-neutral.
func FuzzCanonicalKey(f *testing.F) {
	f.Add(uint8(0), 4, 96, 8, int64(0), 0, 0.0, 0.0, 0.0, 40.0, 0)
	f.Add(uint8(1), 8, 960, 8, int64(7), 16, 0.1, 0.05, 0.3, 0.0, 2)
	f.Add(uint8(2), 2, 32, 4, int64(-1), 0, 0.0, 0.5, 0.0, 12.5, 1)
	f.Add(uint8(3), 16, 192, 6, int64(99), 8, 0.25, 0.0, 0.1, 1e3, 3)

	modes := []string{ModeSimulate, ModeWorstCase, ModeAnalyze, ModeEnvelope}
	f.Fuzz(func(t *testing.T, modeSel uint8, procs, n, block int, seed int64,
		samples int, perturbL, dropProb, jitter, rto float64, stragglers int) {
		r := Request{
			Mode:     modes[int(modeSel)%len(modes)],
			Workload: Workload{Kind: KindGE, Procs: procs, N: n, Block: block},
			Seed:     seed,
			Samples:  samples,
		}
		r.Perturb.L = perturbL
		if dropProb != 0 || jitter != 0 || stragglers != 0 {
			r.Faults = fmt.Sprintf("drop=%v,rto=%v,jitter=%v,stragglers=%d,seed=9", dropProb, rto, jitter, stragglers)
		}
		if err := r.Validate(DefaultLimits()); err != nil {
			t.Skip()
		}
		base, err := canonicalize(&r)
		if err != nil {
			t.Skip()
		}
		key := base.key()

		// Determinism: canonicalizing twice is bit-stable.
		if again, _ := canonicalize(&r); again.key() != key {
			t.Fatal("canonicalize is not deterministic")
		}

		// Round trip: a request spelled from the canonical form (mode
		// and layout explicit, machine as resolved floats, envelope
		// defaults filled) keys identically.
		rt := r
		rt.Mode = base.Mode
		rt.Workload.Layout = base.Layout
		rt.Machine = Machine{L: base.L, O: base.O, Gap: base.Gap, G: base.G}
		if rt.Mode == ModeEnvelope {
			rt.Samples = base.Samples
		}
		if keyRT := keyOfReq(t, rt); keyRT != key {
			t.Fatalf("canonical round trip changed the key: %+v", base)
		}

		// Ignored fields never shift the key.
		ig := r
		ig.DeadlineMS = 123
		ig.Budget = 4.5e6
		if keyOfReq(t, ig) != key {
			t.Fatal("deadline/budget shifted the key")
		}
		if r.Faults != "" {
			sp := r
			sp.Faults = fmt.Sprintf(" seed=9 , stragglers=%d,jitter=%v,rto=%v,drop=%v", stragglers, jitter, rto, dropProb)
			if keyOfReq(t, sp) != key {
				t.Fatalf("fault spec reordering shifted the key: %q", sp.Faults)
			}
		}

		// Meaningful single-field changes always separate keys.
		mut := r
		mut.Workload.N += mut.Workload.Block
		if mut.Validate(DefaultLimits()) == nil {
			if keyOfReq(t, mut) == key {
				t.Fatal("different n collided")
			}
		}
		if seedMatters(base.Mode, r.Workload.Kind, r.Workload.Pattern) {
			ms := r
			ms.Seed++
			if keyOfReq(t, ms) == key {
				t.Fatal("different seed collided")
			}
		}
	})
}
