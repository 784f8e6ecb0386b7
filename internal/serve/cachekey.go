// Canonical cache keys for prediction requests. Every layer under the
// service is deterministic — hash-seeded faults, worker-count-
// independent sweeps, bit-identical lane replays — so a non-degraded
// response is a pure function of what a request *means*, and results
// are content-addressable with zero staleness risk. This file defines
// "means": a request is reduced to a normalized form (canonReq) and the
// form to a SHA-256 content hash, such that two requests produce equal
// keys if and only if they are semantically equal.
//
// Normalization rules (the ⟺ is fuzz-tested in cachekey_test.go):
//
//   - Defaults are filled: empty mode is simulate, empty layout is
//     diagonal, zero envelope samples is defaultSamples, the machine
//     resolves to its concrete LogGP parameters (so a preset and the
//     equivalent explicit parameters address one entry), and the fault
//     plan's zero-meaning-default fields are set to their effective
//     values.
//
//   - Fields a mode ignores are zeroed: samples and perturbation
//     outside envelope mode, the fault plan in analyze mode, the seed
//     when the computation never reads it (analyze mode of workloads
//     whose construction is seed-free), per-kind workload fields of
//     the other kind, and the parts of a fault plan its enabled models
//     never reach. deadline_ms and budget never participate: they
//     decide whether the service computes, not what the computation
//     returns — and degraded outcomes are never cached.
//
//   - Floats are hashed by canonicalized bit pattern (resultcache's
//     KeyBuilder), so 0.5 and 5e-1 — and a fault spec's reordered,
//     respaced fields — address one entry.
//
// Everything here runs before admission and must stay cheap: one
// faults.Parse plus one SHA-256 over ~200 bytes.
package serve

import (
	"loggpsim/internal/faults"
	"loggpsim/internal/resultcache"
)

// keyDomain versions the key space; bump it when the canonical form or
// the response semantics change, which orphans (not corrupts) old
// entries.
const keyDomain = "loggpsim/predict/v1"

// CanonicalKey reduces a validated request to its content address —
// the same key handlePredict caches under. Exported for the cluster
// router (internal/cluster): routing each canonical key to one owner
// peer is what makes N peer caches behave like one cache, so router
// and peer must agree byte-for-byte on what a request means. The
// request is not mutated.
func CanonicalKey(r *Request) (resultcache.Key, error) {
	c, err := canonicalize(r)
	if err != nil {
		return resultcache.Key{}, err
	}
	return c.key(), nil
}

// canonReq is the normalized request form. Two requests are defined to
// be semantically equal exactly when their canonReqs are equal; the
// content hash is computed over this form, never the wire form.
type canonReq struct {
	Mode string

	// Workload. Kind-specific fields of the other kind stay zero.
	Kind    string
	Procs   int
	N       int
	Block   int
	Layout  string
	Pattern string
	Bytes   int

	// Machine, resolved to concrete LogGP parameters.
	L, O, Gap, G float64

	// Seed, zeroed when no part of the computation reads it.
	Seed int64

	// Envelope-only knobs, zeroed elsewhere.
	Samples    int
	PerturbL   float64
	PerturbO   float64
	PerturbGap float64
	PerturbG   float64

	// Fault plan, normalized by canonicalPlan; zero in analyze mode.
	Faults faults.Plan
}

// canonicalize reduces a validated request to its normalized form. The
// only error source is machine-parameter resolution, which the caller
// reports as a 400 exactly as the pre-cache code did.
func canonicalize(r *Request) (canonReq, error) {
	mode := r.Mode
	if mode == "" {
		mode = ModeSimulate
	}
	w := &r.Workload
	c := canonReq{Mode: mode, Kind: w.Kind, Procs: w.Procs}
	switch w.Kind {
	case KindGE:
		c.N, c.Block = w.N, w.Block
		c.Layout = w.Layout
		if c.Layout == "" {
			c.Layout = "diagonal"
		}
	case KindPattern:
		c.Pattern, c.Bytes = w.Pattern, w.Bytes
	}
	params, err := r.Machine.params(w.Procs)
	if err != nil {
		return canonReq{}, err
	}
	c.L, c.O, c.Gap, c.G = params.L, params.O, params.Gap, params.G

	if seedMatters(mode, w.Kind, w.Pattern) {
		c.Seed = r.Seed
	}
	if mode == ModeEnvelope {
		c.Samples = r.samples()
		c.PerturbL, c.PerturbO = r.Perturb.L, r.Perturb.O
		c.PerturbGap, c.PerturbG = r.Perturb.Gap, r.Perturb.G
	}
	if mode != ModeAnalyze {
		// Validation already parsed this spec successfully.
		plan, err := faults.Parse(r.Faults)
		if err != nil {
			return canonReq{}, err
		}
		c.Faults = canonicalPlan(plan)
	}
	return c, nil
}

// seedMatters reports whether any part of the computation reads the
// request seed: the simulators' tie-breaks do (simulate, worstcase and
// envelope modes), and the "random" builtin pattern's construction does
// in every mode. Analyze mode of any other workload is seed-free.
func seedMatters(mode, kind, pattern string) bool {
	if mode != ModeAnalyze {
		return true
	}
	return kind == KindPattern && pattern == "random"
}

// canonicalPlan normalizes a parsed fault plan: zero-meaning-default
// fields are set to their effective values (the injector's defaults),
// and fields the enabled models never reach are zeroed, so "drop=0.1"
// and "drop=0.1,backoff=2,retries=8" — or a jitter-only plan with a
// stray straggler factor — address one entry.
func canonicalPlan(p faults.Plan) faults.Plan {
	if !p.Enabled() {
		return faults.Plan{}
	}
	if p.Drop.Prob == 0 {
		p.Drop = faults.Drop{} // no drops: RTO/backoff/retries unread
	} else {
		if p.Drop.Backoff == 0 {
			p.Drop.Backoff = 2
		}
		if p.Drop.MaxRetries == 0 {
			p.Drop.MaxRetries = 8
		}
	}
	if p.Compute.Jitter == 0 && p.Compute.Stragglers == 0 {
		p.Compute = faults.Compute{}
	} else if p.Compute.Stragglers == 0 {
		p.Compute.Factor = 0 // factor applies to stragglers only
	} else if p.Compute.Factor == 0 {
		p.Compute.Factor = 2
	}
	for i := range p.Degrade {
		if p.Degrade[i].GScale == 0 {
			p.Degrade[i].GScale = 1
		}
		if p.Degrade[i].LScale == 0 {
			p.Degrade[i].LScale = 1
		}
	}
	// The plan seed feeds drop, jitter and straggler decisions only;
	// degrade windows are deterministic.
	if p.Drop.Prob == 0 && p.Compute.Jitter == 0 && p.Compute.Stragglers == 0 {
		p.Seed = 0
	}
	return p
}

// key hashes the canonical form. Fields are written in one fixed order
// — every field, every time, so the encoding is position-unambiguous
// and equality of canonReqs coincides with equality of keys (up to
// SHA-256 collisions, which the fuzz test treats as impossible).
func (c *canonReq) key() resultcache.Key {
	b := resultcache.NewKeyBuilder(keyDomain)
	b.String(c.Mode)
	b.String(c.Kind)
	b.Int(int64(c.Procs))
	b.Int(int64(c.N))
	b.Int(int64(c.Block))
	b.String(c.Layout)
	b.String(c.Pattern)
	b.Int(int64(c.Bytes))
	b.Float(c.L)
	b.Float(c.O)
	b.Float(c.Gap)
	b.Float(c.G)
	b.Int(c.Seed)
	b.Int(int64(c.Samples))
	b.Float(c.PerturbL)
	b.Float(c.PerturbO)
	b.Float(c.PerturbGap)
	b.Float(c.PerturbG)
	p := &c.Faults
	b.Int(p.Seed)
	b.Float(p.Drop.Prob)
	b.Float(p.Drop.RTO)
	b.Float(p.Drop.Backoff)
	b.Int(int64(p.Drop.MaxRetries))
	b.Float(p.Compute.Jitter)
	b.Int(int64(p.Compute.Stragglers))
	b.Float(p.Compute.Factor)
	b.Int(int64(len(p.Degrade)))
	for i := range p.Degrade {
		d := &p.Degrade[i]
		b.Float(d.Start)
		b.Float(d.End)
		b.Float(d.GScale)
		b.Float(d.LScale)
	}
	return b.Sum()
}
