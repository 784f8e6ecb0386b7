// Command perfbench is the repository's benchmark: four workloads over
// the prediction stack, each measured end to end in an untraced run and
// layer by layer in a traced run. See README.md for the metric glossary.
//
// Usage:
//
//	perfbench --workload fig7|serve-zipf|serve-cold|cluster-zipf
//	          --seed N --seconds S --trace 0|1
//
// It prints a human-readable record, writes the record (and, when
// traced, the spans) under $CARGO_TARGET_DIR/perfbench (default
// .bench_build/perfbench), and ends with one JSON line: correct,
// attempted, failed and the metrics. Any failed operation or check
// makes the exit code 1.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options configure one run.
type options struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// setupReps is how many times the workload is set up; setup_s is
	// the median and the last setup serves the timed phase.
	setupReps int
	// tracer is installed in traced runs only.
	tracer *tracer
}

// measure is one timed segment: per-operation latencies in ms and, for
// closed-loop segments, completion times in seconds from the segment's
// start; wall and process CPU time; the Go runtime's GC cycles and bytes
// allocated.
type measure struct {
	lat, at   []float64
	wall, cpu time.Duration
	gc        uint32
	alloc     uint64
}

// window is the span over which a closed-loop segment's throughput and
// median latency are taken before their medians across windows are
// reported: a burst of interference from outside the process then moves
// a few windows, not the reported value.
const window = time.Second

// windowed returns the per-window completion rates and median latencies
// of a closed-loop segment's whole windows, and their 99th percentiles
// when every window holds at least minTail operations (so at least ten
// lie beyond each); none for a segment without completion times or
// shorter than three windows.
func windowed(m measure) (rates, p50s, p99s []float64) {
	n := int(m.wall / window)
	if len(m.at) == 0 || n < 3 {
		return nil, nil, nil
	}
	buckets := make([][]float64, n)
	for i, at := range m.at {
		if k := int(at / window.Seconds()); k < n {
			buckets[k] = append(buckets[k], m.lat[i])
		}
	}
	tails := true
	for _, b := range buckets {
		rates = append(rates, float64(len(b))/window.Seconds())
		p50s = append(p50s, median(b))
		p99s = append(p99s, pct(b, 0.99, 1))
		tails = tails && len(b) >= minTail
	}
	if !tails {
		p99s = nil
	}
	return rates, p50s, p99s
}

// minTail is the sample count at which a 99th percentile has ten
// samples beyond it.
const minTail = 1000

// perOp is the segment's wall time per operation, in seconds.
func perOp(m measure) float64 { return ratio(m.wall.Seconds(), float64(len(m.lat))) }

type meter struct {
	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
	return m
}

func (m *meter) since() time.Duration { return time.Since(m.t0) }

func (m *meter) stop(into *measure) {
	into.wall = time.Since(m.t0)
	into.cpu = cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	into.gc = ms.NumGC - m.ms0.NumGC
	into.alloc = ms.TotalAlloc - m.ms0.TotalAlloc
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS is the process's peak resident set in MiB (ru_maxrss is KiB on
// Linux).
func maxRSS() float64 { return float64(rusage().Maxrss) / 1024 }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// outcome is what a workload run produced.
type outcome struct {
	tally
	setups []float64 // seconds per setup repetition
	timed  measure   // the untraced timed phase
	traced measure   // the traced segment (traced runs only)
	// extra are workload-specific figures recorded beside the metrics.
	extra  []metricEntry
	layers layers // traced runs only
}

type workload struct {
	name, why string
	// setups is how many times a run sets the workload up: enough for a
	// steady median, few enough that setup stays a small part of a run.
	setups int
	run    func(options) (*outcome, error)
}

var workloads = []workload{
	{"fig7", "the Figure-7 sweep and envelope as library calls: the simulator layers do the work, serving does none", 9, runFig7},
	{"serve-zipf", "predictd's hot path: a warmed cache answers Zipf traffic, the simulator does nothing", 5, func(o options) (*outcome, error) {
		return runHTTP(o, func(tr *tracer, tl *tally) (*target, error) { return zipfTarget(o.seed, tr, tl) })
	}},
	{"serve-cold", "predictd's miss path: distinct keys evaluate and insert with eviction, hit ratio 0", 5, func(o options) (*outcome, error) {
		return runHTTP(o, func(tr *tracer, tl *tally) (*target, error) { return coldTarget(o.seed, o.seconds, tr, tl) })
	}},
	{"cluster-zipf", "serve-zipf through the router and two peers: the only workload reaching cluster and ring", 5, func(o options) (*outcome, error) {
		return runHTTP(o, func(tr *tracer, tl *tally) (*target, error) { return clusterTarget(o.seed, tr, tl) })
	}},
}

// runHTTP sets the target up setupReps times, then drives the last one
// in a closed loop. A traced run splits the time into an untraced and a
// traced segment, then runs the probe pass on the workload's requests.
func runHTTP(o options, boot func(*tracer, *tally) (*target, error)) (*outcome, error) {
	out := &outcome{layers: layers{}}
	var tg *target
	for rep := 0; rep < o.setupReps; rep++ {
		if tg != nil {
			tg.close()
		}
		var err error
		d := elapsed(func() { tg, err = boot(o.tracer, &out.tally) })
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, d.Seconds())
	}
	defer tg.close()
	c := newClient(tg.url, o.tracer)
	defer c.close()
	body := func(u int) []byte { return tg.bodies[u] }
	segment := func(d time.Duration, m *measure) (before, after counters) {
		before = tg.stats()
		mt := startMeter()
		m.lat, m.at = closedLoop(c, time.Now().Add(d), tg.next, body, tg.check, &out.tally)
		mt.stop(m)
		return before, tg.stats()
	}
	if !o.traced {
		segment(o.seconds, &out.timed)
		return out, nil
	}
	segment(o.seconds/2, &out.timed)
	o.tracer.on.Store(true)
	defer o.tracer.on.Store(false)
	before, after := segment(o.seconds-o.seconds/2, &out.traced)
	l := out.layers
	runtimeLayers(out, l)
	counterLayers(before, after, l)
	if err := probeHTTP(tg, l); err != nil {
		out.note(err)
	}
	return out, nil
}

// runtimeLayers reports the traced segment's cost against the untraced
// one and the Go runtime's work during it.
func runtimeLayers(out *outcome, l layers) {
	l["trace.overhead_ratio"] = ratio(perOp(out.traced), perOp(out.timed))
	l["runtime.gc_cycles"] = float64(out.traced.gc)
	l["runtime.alloc_mb"] = float64(out.traced.alloc) / (1 << 20)
}

// counterLayers turns the program's counter deltas across the traced
// segment into layer metrics.
func counterLayers(b, a counters, l layers) {
	l["serve.shed"] = float64(a.shed - b.shed)
	l["serve.degraded"] = float64(a.degraded - b.degraded)
	l["serve.coalesced"] = float64(a.coalesced - b.coalesced)
	l["serve.panics"] = float64(a.panics - b.panics)
	hits, misses := float64(a.hits-b.hits), float64(a.misses-b.misses)
	l["resultcache.hit_ratio"] = ratio(hits, hits+misses)
	l["resultcache.evictions"] = float64(a.evictions - b.evictions)
	l["resultcache.bytes"] = float64(a.bytes)
	l["resultcache.entries"] = float64(a.entries)
	l["cluster.owner_hit_ratio"] = ratio(float64(a.ownerHits-b.ownerHits), float64(a.completed-b.completed))
	l["cluster.failovers"] = float64(a.failovers - b.failovers)
	l["cluster.hedges"] = float64(a.hedges - b.hedges)
	l["cluster.load_reroutes"] = float64(a.reroutes - b.reroutes)
}

// keyCap bounds how many of a run's bodies are keyed for the cache and
// ring probes (serve-cold needs several times its cache budget).
const keyCap = 2048

// probeHTTP runs the probe pass on the requests the workload sent: the
// serve front half, the cache and, behind a router, the ring. The
// evaluation layers are not probed here: the HTTP workloads reach them
// only inside the program, where the benchmark has no spans, so they
// report 0.
func probeHTTP(tg *target, l layers) error {
	bodies, served := tg.bodies[:min(len(tg.bodies), keyCap)], tg.served
	keys, err := codecProbe(bodies, served, l)
	if err != nil {
		return err
	}
	var sizes []int
	for i, s := range served {
		if s != nil && i < len(bodies) {
			sizes = append(sizes, len(s)+len(bodies[i]))
		}
	}
	if len(sizes) == 0 {
		return fmt.Errorf("probe: no served answers to size cache entries")
	}
	cacheProbe(keys, sizes, tg.cache, l)
	if len(tg.peers) == 0 {
		return nil
	}
	return ringProbe(keys, tg.peers, l)
}

// spanLayers derives the span-based layer metrics.
func spanLayers(spans []span, l layers) {
	self := selfTimes(spans)
	var hit, miss, router, forward, loopback []float64
	total := map[string]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case spanServe:
			switch s.Tag {
			case "hit":
				hit = append(hit, us(s.dur()))
			case "miss":
				miss = append(miss, us(s.dur()))
			}
		case spanRouter:
			router = append(router, us(self[s.ID]))
		case spanForward:
			forward = append(forward, us(s.dur()))
		case spanClient:
			loopback = append(loopback, us(self[s.ID]))
		default:
			total[s.Name] += s.dur()
		}
	}
	l["ge.build_s"] = total[spanBuild].Seconds()
	l["predictor.predict_s"] = total[spanPredict].Seconds()
	l["machine.run_s"] = total[spanMachine].Seconds()
	l["robust.run_s"] = total[spanRobust].Seconds()
	l["serve.hit.p50_us"] = pct(hit, 0.5, 1)
	l["serve.hit.p99_us"] = pct(hit, 0.99, 1)
	l["serve.miss.p50_us"] = pct(miss, 0.5, 1)
	l["serve.miss.p99_us"] = pct(miss, 0.99, 1)
	l["cluster.router_self.p50_us"] = pct(router, 0.5, 1)
	l["cluster.router_self.p99_us"] = pct(router, 0.99, 1)
	l["cluster.forward.p50_us"] = pct(forward, 0.5, 1)
	l["net.loopback.p50_us"] = pct(loopback, 0.5, 1)
}

// provenance identifies what was measured and where.
type provenance struct {
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	// TraceOverheadRatio is measured by traced runs only.
	TraceOverheadRatio *float64 `json:"trace_overhead_ratio"`
}

// metricEntry is one metric in a record, in registry order.
type metricEntry struct {
	Name string `json:"name"`
	value
}

type record struct {
	Workload   string        `json:"workload"`
	Why        string        `json:"why"`
	Traced     bool          `json:"traced"`
	Provenance provenance    `json:"provenance"`
	Attempted  int           `json:"attempted"`
	Failed     int           `json:"failed"`
	FailRatio  float64       `json:"fail_ratio"`
	Failures   []string      `json:"failures,omitempty"`
	Metrics    []metricEntry `json:"metrics"`
	Extra      []metricEntry `json:"extra"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload to run: fig7, serve-zipf, serve-cold or cluster-zipf")
	seed := fset.Int64("seed", 1, "workload seed")
	seconds := fset.Int("seconds", 15, "timed-phase length in seconds")
	traced := fset.Int("trace", 0, "1 runs the traced run (per-layer metrics), 0 the untraced one")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (fig7, serve-zipf, serve-cold, cluster-zipf), --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1, setupReps: w.setups}
	if o.traced {
		o.tracer = newTracer(nil)
	}
	out, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	rec := newRecord(w, o, out)
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, *traced))
	if err := writeJSON(base+".json", rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if o.traced {
		if err := writeSpans(base+".spans.jsonl", o.tracer.snapshot()); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	printRecord(stdout, rec, base)
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

func newRecord(w *workload, o options, out *outcome) record {
	rec := record{
		Workload:  w.name,
		Why:       w.why,
		Traced:    o.traced,
		Attempted: out.attempted,
		Failed:    out.failed,
		FailRatio: ratio(float64(out.failed), float64(out.attempted)),
		Failures:  out.first,
		Provenance: provenance{
			Commit:       commit(),
			SourceSHA256: sourceDigest(),
			GoVersion:    runtime.Version(),
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			NumCPU:       runtime.NumCPU(),
			CPUModel:     cpuModel(),
			Seed:         o.seed,
			Seconds:      o.seconds.Seconds(),
		},
	}
	t := out.timed
	ops := float64(len(t.lat))
	rate := value{Value: ratio(ops, t.wall.Seconds()), Spread: &spread{N: len(t.lat)}}
	p50 := value{Value: pct(t.lat, 0.5, 1), Spread: sampleSpread(t.lat)}
	p99 := value{Value: pct(t.lat, 0.99, 1), Spread: sampleSpread(t.lat)}
	rates, p50s, p99s := windowed(t)
	if rates != nil {
		rate = value{Value: median(rates), Spread: sampleSpread(rates)}
		p50 = value{Value: median(p50s), Spread: sampleSpread(p50s)}
	}
	if p99s != nil {
		p99 = value{Value: median(p99s), Spread: sampleSpread(p99s)}
	}
	e2e := map[string]value{
		"setup_s":       {Value: median(out.setups), Spread: sampleSpread(out.setups)},
		"req_per_s":     rate,
		"p50_ms":        p50,
		"p99_ms":        p99,
		"cpu_ms_per_op": {Value: ratio(ms(t.cpu), ops), Spread: &spread{N: len(t.lat)}},
		"max_rss_mb":    {Value: maxRSS()},
	}
	rec.Extra = append(rec.Extra,
		metricEntry{"cpu_s", value{Value: t.cpu.Seconds(), Unit: "s"}},
		metricEntry{"fail_ratio", value{Value: rec.FailRatio, Unit: "ratio", Spread: &spread{N: out.attempted}}})
	rec.Extra = append(rec.Extra, out.extra...)
	defs, vals := endToEnd, e2e
	if o.traced {
		spanLayers(o.tracer.snapshot(), out.layers)
		ov := out.layers["trace.overhead_ratio"]
		rec.Provenance.TraceOverheadRatio = &ov
		defs, vals = perLayer, map[string]value{}
		for k, v := range out.layers {
			vals[k] = value{Value: v}
		}
	}
	for _, d := range defs {
		v := vals[d.name]
		v.Value, v.Unit = finite(v.Value), d.unit
		rec.Metrics = append(rec.Metrics, metricEntry{d.name, v})
	}
	return rec
}

// printRecord prints the record as a table, then the one-line result
// the benchmark contract asks for as the last line.
func printRecord(w io.Writer, rec record, base string) {
	p := rec.Provenance
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g traced=%v\n", rec.Workload, p.Seed, p.Seconds, rec.Traced)
	fmt.Fprintf(w, "commit=%s source=%s %s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		p.Commit, p.SourceSHA256[:12], p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.CPUModel)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	row := func(m metricEntry) {
		s := ""
		if m.Spread != nil {
			s = fmt.Sprintf("n=%d", m.Spread.N)
			if m.Spread.Q1 != 0 || m.Spread.Q3 != 0 {
				s += fmt.Sprintf(" q1=%.6g q3=%.6g", m.Spread.Q1, m.Spread.Q3)
			}
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, s)
	}
	for _, m := range rec.Metrics {
		row(m)
	}
	for _, m := range rec.Extra {
		row(m)
	}
	fmt.Fprintf(w, "record %s.json\n", base)
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jv, len(rec.Metrics))
	for _, m := range rec.Metrics {
		metrics[m.Name] = jv{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

func outDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "perfbench")
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commit is the checked-out commit, or "unknown" outside a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under the working
// directory, so a record identifies the measured code without git.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
