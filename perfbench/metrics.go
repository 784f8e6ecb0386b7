package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The lists below are the
// benchmark's contract with BENCHMARK.json (TestRegistryMatchesManifest
// holds the two equal): an untraced run reports every endToEnd metric,
// a traced run every perLayer metric, each on every workload.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the prediction stack sees. Every
// workload reports all of them; "operation" means one HTTP request on
// the serve workloads and one Figure-7 cell (a sweep cell or an
// envelope block size) on fig7.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"max_rss_mb", "MiB", "lower"},
}

// perLayer are the traced run's layer metrics. A layer the workload does
// not reach reports 0 (no spans, no probe input, no counter movement).
var perLayer = []metricDef{
	{"ge.build_s", "s", "lower"},
	{"predictor.predict_s", "s", "lower"},
	{"predictor.calls", "count", "higher"},
	{"predictor.allocs_per_call", "count", "lower"},
	{"machine.run_s", "s", "lower"},
	{"sim.communicate_s", "s", "lower"},
	{"sim.msgs_per_s", "1/s", "higher"},
	{"worstcase.communicate_s", "s", "lower"},
	{"worstcase.msgs_per_s", "1/s", "higher"},
	{"robust.run_s", "s", "lower"},
	{"lanes.run_s", "s", "lower"},
	{"lanes.lane_steps_per_s", "1/s", "higher"},
	{"analyze.shape_s", "s", "lower"},
	{"analyze.bound.p50_us", "us", "lower"},
	{"analyze.bounds", "count", "higher"},
	{"serve.hit.p50_us", "us", "lower"},
	{"serve.hit.p99_us", "us", "lower"},
	{"serve.miss.p50_us", "us", "lower"},
	{"serve.miss.p99_us", "us", "lower"},
	{"serve.decode.p50_us", "us", "lower"},
	{"serve.validate.p50_us", "us", "lower"},
	{"serve.canonical_key.p50_us", "us", "lower"},
	{"serve.encode.p50_us", "us", "lower"},
	{"net.loopback.p50_us", "us", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.degraded", "count", "lower"},
	{"serve.coalesced", "count", "higher"},
	{"serve.panics", "count", "lower"},
	{"resultcache.hit_ratio", "ratio", "higher"},
	{"resultcache.evictions", "count", "lower"},
	{"resultcache.bytes", "B", "lower"},
	{"resultcache.entries", "count", "higher"},
	{"resultcache.get.p50_ns", "ns", "lower"},
	{"resultcache.put.p50_ns", "ns", "lower"},
	{"cluster.router_self.p50_us", "us", "lower"},
	{"cluster.router_self.p99_us", "us", "lower"},
	{"cluster.forward.p50_us", "us", "lower"},
	{"cluster.owner_hit_ratio", "ratio", "higher"},
	{"cluster.failovers", "count", "lower"},
	{"cluster.hedges", "count", "lower"},
	{"cluster.load_reroutes", "count", "lower"},
	{"ring.owners.p50_ns", "ns", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.alloc_mb", "MiB", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// spread describes the samples behind a metric: how many, and their
// first and third quartiles (in the metric's unit). N alone is set for
// counts and ratios; nil means the metric is a single measurement.
type spread struct {
	N  int     `json:"n"`
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
}

// value is one measured metric.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread *spread `json:"spread,omitempty"`
}

// sampleSpread summarizes samples already scaled to the metric's unit.
func sampleSpread(xs []float64) *spread {
	s := sorted(xs)
	return &spread{N: len(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile of ascending xs by linear interpolation
// between closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return xs[n-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// pct is the q-quantile of unsorted samples scaled by k.
func pct(xs []float64, q, k float64) float64 {
	return quantile(sorted(xs), q) * k
}

func median(xs []float64) float64 { return pct(xs, 0.5, 1) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite maps NaN and ±Inf to 0 so every value encodes as JSON.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
