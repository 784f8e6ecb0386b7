// Package serve is the hardened prediction service behind cmd/predictd:
// an HTTP/JSON front end over the repository's prediction stack
// (predictor, analyze, robust) engineered to stay correct and available
// under overload, malformed input, and slow requests.
//
// Robustness is layered:
//
//   - Result caching. Every layer under the service is deterministic,
//     so a non-degraded response is a pure function of the request's
//     canonical form (cachekey.go). Each evaluation encodes its 200 body
//     once; the bytes are stored in a sharded LRU cache
//     (internal/resultcache) keyed by content hash, and a hit writes
//     them back verbatim. Wall time travels in the Server-Timing
//     header, never in the body. A hit is served before admission
//     control even looks at the request — no queue slot, no deadline,
//     no budget check — and even while the server drains. A miss
//     evaluates on the request's own goroutine, so concurrent identical
//     misses each take an admission slot and each evaluate; the cache
//     still ends with one entry, since a same-key Put refreshes it in
//     place. Degraded and error responses are never cached.
//
//   - Admission control. A bounded queue (QueueDepth waiting slots on
//     top of Workers running slots) backed by a sweep.Limiter sized off
//     the evaluator pool. When the queue is full, excess requests are
//     shed immediately with 429 and Retry-After — the server's memory
//     is bounded by slots × capped request size no matter the offered
//     load.
//
//   - Deadlines and budgets. Every evaluation runs under a per-request
//     deadline (client-supplied, clamped to a server maximum)
//     propagated via context into the lane engine, which polls it once
//     per program step in every mode. Before a worker is committed, the
//     request is priced: analyze.EstimateWork's one-replay estimate
//     times the lanes the mode replays (one for simulate and worstcase,
//     samples + 1 for an envelope). Requests over budget never reach
//     the prediction engine.
//
//   - Graceful degradation. When the deadline or budget cannot fit the
//     full simulation or envelope, the response degrades to the
//     closed-form LogGP bound certificate (analyze.BoundProgram)
//     instead of an error, flagged Degraded with a reason.
//
//   - Crash containment and lifecycle. A panic inside a prediction
//     poisons (does not repool) the affected evaluator and answers 500
//     without taking the process down; /healthz and /readyz report
//     liveness and readiness; Drain stops admission of cache misses,
//     keeps answering hits, lets in-flight requests finish for a grace
//     period, then bound-downgrades whatever is still running.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loggpsim/internal/analyze"
	"loggpsim/internal/cost"
	"loggpsim/internal/faults"
	"loggpsim/internal/loggp"
	"loggpsim/internal/predictor"
	"loggpsim/internal/program"
	"loggpsim/internal/resultcache"
	"loggpsim/internal/robust"
	"loggpsim/internal/sweep"
)

// Config tunes the server. The zero value selects sane defaults.
type Config struct {
	// Workers bounds concurrently running predictions — and sizes the
	// evaluator pool, one lane engine per worker. Values below 1
	// select runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond the ones
	// running. Negative means 0 (no waiting room); zero selects
	// 2×Workers.
	QueueDepth int
	// DefaultDeadline applies when a request names none; ≤ 0 selects 5s.
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-supplied deadlines; ≤ 0 selects 60s.
	MaxDeadline time.Duration
	// DefaultBudget is the per-request work cap (analyze.Work units)
	// when the request names none; ≤ 0 selects 20e6 units. A request
	// prices at its one-replay estimate times the lanes it replays: a
	// prediction of the repo's heaviest stock experiment (GE n=960,
	// b=8, P=8) at 6.63e6, so it fits, while an envelope of it fits
	// only up to 2 samples (3 lanes).
	DefaultBudget float64
	// DrainGrace is how long in-flight requests keep running after
	// Drain begins before being bound-downgraded; ≤ 0 selects 1s.
	DrainGrace time.Duration
	// Limits are the hard input caps (zero fields select defaults).
	Limits Limits
	// Cache tunes the result cache (zero fields select resultcache's
	// defaults: 16 shards, 256 MiB, 64k entries).
	Cache resultcache.Config
	// CacheOff disables the result cache, so every request evaluates.
	// It exists for the cache-replay test's baseline and for
	// differential testing — cached and uncached responses must be
	// byte-identical.
	CacheOff bool
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiles expose internals, so the operator opts in (-pprof).
	Pprof bool
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	case c.QueueDepth == 0:
		c.QueueDepth = 2 * c.Workers
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.DefaultBudget <= 0 {
		c.DefaultBudget = 20e6
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = time.Second
	}
	c.Limits = c.Limits.WithDefaults()
	return c
}

// Stats is a snapshot of the server's counters (see /statsz).
type Stats struct {
	// Accepted counts requests admitted past the queue; Shed the ones
	// bounced with 429; Rejected the 4xx/5xx failures; Degraded the
	// 200s answered with a downgraded computation; Panics the contained
	// prediction panics; Completed every request answered with a 200.
	Accepted  int64 `json:"accepted"`
	Shed      int64 `json:"shed"`
	Rejected  int64 `json:"rejected"`
	Degraded  int64 `json:"degraded"`
	Panics    int64 `json:"panics"`
	Completed int64 `json:"completed"`
	// Coalesced is always 0: the server no longer coalesces concurrent
	// identical misses. It stays because the benchmark (perfbench)
	// reads it for its serve.coalesced metric.
	Coalesced int64 `json:"coalesced"`
	// InFlight is the number of requests currently holding a queue or
	// worker slot; Running the subset actually holding a worker; Queued
	// the rest. The three are read from one packed atomic, so a
	// snapshot is internally consistent — Queued is exactly
	// InFlight−Running, never a torn pair of loads.
	InFlight int64 `json:"in_flight"`
	Running  int64 `json:"running"`
	Queued   int64 `json:"queued"`
	// Draining reports that shutdown has begun.
	Draining bool `json:"draining"`
	// Cache is the result cache's own counter snapshot (hits, misses,
	// evictions, per-shard occupancy); absent when the cache is off.
	Cache *resultcache.Stats `json:"cache,omitempty"`
}

// occupancy packing: the high 32 bits count held queue-or-run slots,
// the low 32 the subset holding a worker. One atomic word means one
// Load yields a consistent (in-flight, running) pair.
const (
	occSlot uint64 = 1 << 32
	occRun  uint64 = 1
)

// outcome is one evaluated (or cached) answer, decoupled from the
// ResponseWriter so the miss path can store it before writing it. A
// 200 carries its encoded body, which the writer and the cache share
// read-only; any other status carries errMsg.
type outcome struct {
	status     int
	body       []byte  // encoded 200 payload, written verbatim
	degraded   bool    // the 200 answers a downgraded computation
	cost       float64 // the request's admission price, the cache entry's cost
	errMsg     string
	retryAfter bool
	reject     bool // count this write in Stats.Rejected
}

// okOutcome encodes resp: the one JSON encode an evaluation does. The
// bytes are what json.Encoder writes — json.Marshal's output plus a
// newline.
func okOutcome(resp *Response) *outcome {
	b, err := json.Marshal(resp)
	if err != nil {
		return rejectOutcome(http.StatusInternalServerError, "encoding response: %v", err)
	}
	return &outcome{status: http.StatusOK, body: append(b, '\n'), degraded: resp.Degraded}
}

func rejectOutcome(status int, format string, args ...any) *outcome {
	return &outcome{
		status:     status,
		errMsg:     fmt.Sprintf(format, args...),
		retryAfter: status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable,
		reject:     true,
	}
}

// storable reports whether the outcome may enter the cache: only full,
// non-degraded 200s. Degradations reflect transient conditions
// (deadline pressure, drain, budget) — caching one would replay a
// transient forever.
func (o *outcome) storable() bool {
	return o.status == http.StatusOK && !o.degraded
}

// Server is the prediction service. Construct with NewServer, mount
// Handler on an http.Server, call Drain on shutdown.
type Server struct {
	cfg   Config
	model cost.Model
	lim   *sweep.Limiter // worker gate, sized off the evaluator pool
	slots chan struct{}  // queue + run admission tokens
	evals chan *predictor.Evaluator
	mux   *http.ServeMux

	cache *resultcache.Cache[cached] // nil when CacheOff

	draining atomic.Bool
	drainNow chan struct{} // closed DrainGrace after drain begins
	drainOne sync.Once
	inflight sync.WaitGroup

	// testHook, when set, runs inside the panic guard while the request
	// holds its worker slot, just before the prediction. Tests use it to
	// pin a worker (overload), outwait a deadline, or panic on demand.
	testHook func(ctx context.Context)

	accepted, shed, rejected, degraded, panics, completed atomic.Int64
	occupancy                                             atomic.Uint64
}

// NewServer builds a server; the zero Config is usable.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		model:    cost.DefaultAnalytic(),
		lim:      sweep.NewLimiter(cfg.Workers),
		slots:    make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		evals:    make(chan *predictor.Evaluator, cfg.Workers),
		drainNow: make(chan struct{}),
	}
	if !cfg.CacheOff {
		s.cache = resultcache.New[cached](cfg.Cache)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.evals <- predictor.NewEvaluator()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/predict", s.handlePredict)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("/cache/export", s.handleCacheExport)
	s.mux.HandleFunc("/cache/import", s.handleCacheImport)
	if cfg.Pprof {
		// net/http/pprof registers on http.DefaultServeMux at import;
		// mount its handlers explicitly so they exist only when asked.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats returns a counter snapshot.
func (s *Server) Stats() Stats {
	occ := s.occupancy.Load()
	held, running := int64(occ>>32), int64(occ&0xffffffff)
	st := Stats{
		Accepted:  s.accepted.Load(),
		Shed:      s.shed.Load(),
		Rejected:  s.rejected.Load(),
		Degraded:  s.degraded.Load(),
		Panics:    s.panics.Load(),
		Completed: s.completed.Load(),
		InFlight:  held,
		Running:   running,
		Queued:    held - running,
		Draining:  s.draining.Load(),
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.Cache = &cs
	}
	return st
}

// BeginDrain flips the server into drain mode: readiness goes 503, new
// evaluations are refused (cache hits keep being served), and after
// DrainGrace the contexts of in-flight evaluations are released so they
// bound-downgrade. Idempotent.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		time.AfterFunc(s.cfg.DrainGrace, func() {
			s.drainOne.Do(func() { close(s.drainNow) })
		})
	}
}

// Drain begins the drain (if not already begun) and blocks until every
// in-flight request has been answered or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.rejected.Add(1)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// handlePredict is the main endpoint: decode and validate, serve a
// cache hit, otherwise evaluate and store the answer. See the package
// comment for the shed/deadline/degrade state machine the evaluation
// implements.
func (s *Server) handlePredict(w http.ResponseWriter, hr *http.Request) {
	start := time.Now()
	// refuse answers a request turned away before evaluation, with the
	// Server-Timing every /predict answer carries.
	refuse := func(status int, format string, args ...any) {
		s.writeOutcome(w, rejectOutcome(status, format, args...), "", start)
	}
	if hr.Method != http.MethodPost {
		refuse(http.StatusMethodNotAllowed, "POST only")
		return
	}

	// Input validation under hard caps. MaxBytesReader bounds what a
	// hostile body can make us buffer; the strict decode turns field
	// typos and trailing data into errors instead of silently-default
	// behaviour.
	hr.Body = http.MaxBytesReader(w, hr.Body, s.cfg.Limits.MaxBodyBytes)
	r, err := DecodeRequest(hr.Body, s.cfg.Limits)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			refuse(http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return
		}
		refuse(http.StatusBadRequest, "%v", err)
		return
	}

	if s.cache == nil {
		// Cache off: every request evaluates.
		if s.draining.Load() {
			refuse(http.StatusServiceUnavailable, "draining")
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Done()
		s.writeOutcome(w, s.evaluate(&r), "", start)
		return
	}

	// The canonical key must come from the wire-form request: the
	// evaluation path mutates it (hypercube proc rounding).
	ck, err := canonicalize(&r)
	if err != nil {
		refuse(http.StatusBadRequest, "%v", err)
		return
	}
	key := ck.key()

	// Hit: answer before admission control exists — no slot, no
	// deadline, no budget, and no drain refusal. A draining server
	// keeps serving hits until the process exits.
	if ce, ok := s.cache.Get(key); ok {
		s.writeOutcome(w, &outcome{status: http.StatusOK, body: ce.body}, "hit", start)
		return
	}
	if s.draining.Load() {
		refuse(http.StatusServiceUnavailable, "draining")
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()

	// Miss: evaluate here, on the request's own goroutine. Capture the
	// wire-form request first: evaluate mutates it (hypercube proc
	// rounding), and the handoff export needs the exact form whose
	// canonical key addresses the entry. The miss works on a copy, so r
	// stays on the stack of a hit.
	req := r
	reqJSON, reqErr := json.Marshal(&req)
	o := s.evaluate(&req)
	if o.storable() && reqErr == nil {
		s.cache.Put(key, cached{body: o.body, req: reqJSON}, resultcache.Meta{
			Size:  len(o.body) + len(reqJSON),
			Cost:  o.cost,
			Store: true,
		})
	}
	s.writeOutcome(w, o, "miss", start)
}

// writeOutcome delivers an outcome to one client and accounts for it.
// Work-level counters (accepted, shed, panics) were already bumped by
// evaluate; the per-response counters (completed, degraded, rejected)
// belong to each request served. src, when non-empty, is surfaced as
// the X-Cache header (hit or miss). Every answer
// carries the handler's wall time since start as Server-Timing; a 200
// writes the outcome's encoded body as is, with no JSON encoder.
func (s *Server) writeOutcome(w http.ResponseWriter, o *outcome, src string, start time.Time) {
	h := w.Header()
	if src != "" {
		h.Set("X-Cache", src)
	}
	if o.retryAfter {
		h.Set("Retry-After", "1")
	}
	h.Set("Server-Timing", TimingMetric("total", start))
	if o.status != http.StatusOK {
		if o.reject {
			s.rejected.Add(1)
		}
		writeJSON(w, o.status, errorResponse{Error: o.errMsg})
		return
	}
	if o.degraded {
		s.degraded.Add(1)
	}
	s.completed.Add(1)
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(o.body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(o.body)
}

// TimingMetric formats one Server-Timing metric: name;dur= the
// milliseconds elapsed since start, to the microsecond. It is built in
// one allocation because every /predict answer pays for it.
func TimingMetric(name string, start time.Time) string {
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	b := append(make([]byte, 0, 32), name...)
	b = append(b, ";dur="...)
	return string(strconv.AppendFloat(b, ms, 'f', 3, 64))
}

// evaluate is the single evaluation path — the admission-control,
// deadline, budget, and degradation state machine, producing an outcome
// instead of writing one. It runs once per cache miss, or once per
// request when the cache is off, on the request's own goroutine.
func (s *Server) evaluate(r *Request) *outcome {
	pr, work, err := r.buildProgram(s.cfg.Limits)
	if err != nil {
		return rejectOutcome(http.StatusBadRequest, "%v", err)
	}
	params, err := r.Machine.params(r.Workload.Procs)
	if err != nil {
		return rejectOutcome(http.StatusBadRequest, "%v", err)
	}
	mode := r.Mode
	if mode == "" {
		mode = ModeSimulate
	}
	resp := &Response{Mode: mode, WorkUnits: work.Units()}
	// One price for every mode: the one-replay estimate times the lanes
	// the mode replays. The budget gate charges it, and a stored answer
	// is worth it to the cache.
	price := resp.WorkUnits * float64(r.lanes())

	// Analyze-only requests are cheap by construction (closed form, no
	// event queue): they bypass the queue so the static service stays
	// responsive even when every worker is busy simulating.
	if mode == ModeAnalyze {
		report := analyze.CheckProgram(pr, params, s.model)
		resp.Report = report
		if report.Bounds != nil {
			resp.Bounds = &BoundsResult{LowerMicros: report.Bounds.Lower, UpperMicros: report.Bounds.Upper}
		}
		o := okOutcome(resp)
		o.cost = price
		return o
	}

	// Budget gate: price the request before a worker ever sees it.
	budget := s.cfg.DefaultBudget
	if r.Budget > 0 {
		budget = r.Budget
	}
	if price > budget {
		return s.degradeOutcome(resp, pr, params, "budget")
	}

	// Admission: a free queue-or-run token, or an immediate shed. The
	// channel send is non-blocking, so the 429 goes out as fast as the
	// request came in.
	select {
	case s.slots <- struct{}{}:
	default:
		s.shed.Add(1)
		return &outcome{status: http.StatusTooManyRequests, errMsg: "server at capacity", retryAfter: true}
	}
	s.accepted.Add(1)
	s.occupancy.Add(occSlot)
	defer func() {
		<-s.slots
		s.occupancy.Add(^(occSlot - 1)) // -occSlot
	}()

	// Deadline: client-supplied, clamped, defaulted — and released
	// early when the drain grace expires, so shutdown degrades
	// in-flight work instead of waiting out long deadlines. The base is
	// Background, not the connection's context: a full answer is
	// stored for every later request, so a client that hangs up does
	// not cancel it.
	d := s.cfg.DefaultDeadline
	if r.DeadlineMS > 0 {
		d = time.Duration(r.DeadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	go func() {
		select {
		case <-s.drainNow:
			cancel()
		case <-ctx.Done():
		}
	}()

	// Worker gate: wait for budgeted concurrency. A deadline that
	// expires in the queue degrades without ever simulating.
	if err := s.lim.Acquire(ctx); err != nil {
		return s.degradeOutcome(resp, pr, params, s.degradeReason())
	}
	s.occupancy.Add(occRun)
	defer func() {
		s.lim.Release()
		s.occupancy.Add(^(occRun - 1)) // -occRun
	}()

	run := s.runSimulation
	if mode == ModeEnvelope {
		run = s.runEnvelope
	}
	o := run(resp, r, pr, params, ctx)
	o.cost = price
	return o
}

// degradeReason maps an expired evaluation context to the response's
// degrade_reason: the drain signal wins over the deadline.
func (s *Server) degradeReason() string {
	select {
	case <-s.drainNow:
		return "drain"
	default:
		return "deadline"
	}
}

// degradeOutcome answers with the closed-form bound certificate instead
// of the requested computation — the graceful floor of every downgrade
// path. Never storable: resp.Degraded is set.
func (s *Server) degradeOutcome(resp *Response, pr *program.Program, params loggp.Params, reason string) *outcome {
	b, err := analyze.BoundProgram(pr, params, s.model)
	if err != nil {
		// Validated inputs cannot fail the bound computation; if they
		// somehow do, an honest error beats a fabricated certificate.
		return rejectOutcome(http.StatusInternalServerError, "bound certificate: %v", err)
	}
	resp.Degraded = true
	resp.DegradeReason = reason
	resp.Bounds = &BoundsResult{LowerMicros: b.Lower, UpperMicros: b.Upper}
	return okOutcome(resp)
}

// checkoutEvaluator takes an evaluator from the pool. The worker gate
// guarantees at most Workers holders, so the wait is momentary.
func (s *Server) checkoutEvaluator() *predictor.Evaluator { return <-s.evals }

// repool returns a healthy evaluator; poison replaces a failed one with
// a fresh evaluator so pool capacity is preserved while the poisoned
// engine goes to the collector.
func (s *Server) repool(e *predictor.Evaluator) { s.evals <- e }
func (s *Server) poison(_ *predictor.Evaluator) { s.evals <- predictor.NewEvaluator() }

// runSimulation executes simulate/worstcase mode on a pooled evaluator
// with panic containment.
func (s *Server) runSimulation(resp *Response, r *Request, pr *program.Program, params loggp.Params, ctx context.Context) *outcome {
	plan, err := faults.Parse(r.Faults) // validated already; cannot fail
	if err != nil {
		return rejectOutcome(http.StatusBadRequest, "%v", err)
	}
	cfg := predictor.Config{
		Params: params,
		Cost:   s.model,
		Seed:   r.Seed,
		Faults: plan,
		Ctx:    ctx,
	}
	e := s.checkoutEvaluator()
	var pred predictor.Prediction
	err, panicked := guard(func() error {
		if s.testHook != nil {
			s.testHook(ctx)
		}
		return e.PredictInto(&pred, pr, cfg)
	})
	if panicked {
		s.poison(e)
		s.panics.Add(1)
		return rejectOutcome(http.StatusInternalServerError, "internal error (prediction panicked; contained)")
	}
	switch {
	case err == nil:
		s.repool(e)
		resp.Prediction = &PredictionResult{
			TotalMicros:     pred.Total,
			WorstMicros:     pred.TotalWorst,
			CompMicros:      pred.Comp,
			CommMicros:      pred.Comm,
			CommWorstMicros: pred.CommWorst,
			Steps:           pred.Steps,
		}
		return okOutcome(resp)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The replay aborted within one step of the deadline: poison
		// the evaluator (its engine stopped mid-program) and answer
		// with the certificate.
		s.poison(e)
		return s.degradeOutcome(resp, pr, params, s.degradeReason())
	default:
		// A fault-plan loss or a hook failure: an honest client error,
		// and a poisoned evaluator either way.
		s.poison(e)
		return rejectOutcome(http.StatusUnprocessableEntity, "prediction failed: %v", err)
	}
}

// runEnvelope executes envelope mode: the Monte-Carlo sweep of one
// block size, its samples and nominal point as lanes of one run.
func (s *Server) runEnvelope(resp *Response, r *Request, pr *program.Program, params loggp.Params, ctx context.Context) *outcome {
	plan, _ := faults.Parse(r.Faults)
	rcfg := robust.Config{
		N:       r.Workload.N,
		P:       r.Workload.Procs,
		Sizes:   []int{r.Workload.Block},
		Params:  params,
		Model:   s.model,
		Samples: r.samples(),
		Seed:    r.Seed,
		Perturb: r.Perturb,
		Faults:  plan,
		Workers: 1, // the request already holds exactly one worker slot
		Ctx:     ctx,
	}
	if lay, err := makeLayout(r.Workload.Layout, r.Workload.Procs); err == nil {
		rcfg.Layout = lay
	}
	var envs []robust.Envelope
	err, panicked := guard(func() (rerr error) {
		if s.testHook != nil {
			s.testHook(ctx)
		}
		envs, rerr = robust.Run(rcfg)
		return rerr
	})
	switch {
	case panicked:
		s.panics.Add(1)
		return rejectOutcome(http.StatusInternalServerError, "internal error (envelope panicked; contained)")
	case err == nil && len(envs) == 1:
		resp.Envelope = &envs[0]
		return okOutcome(resp)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return s.degradeOutcome(resp, pr, params, s.degradeReason())
	case err != nil:
		return rejectOutcome(http.StatusUnprocessableEntity, "envelope failed: %v", err)
	default:
		return rejectOutcome(http.StatusInternalServerError, "envelope produced %d results, want 1", len(envs))
	}
}

// guard runs fn, converting a panic into (error, true).
func guard(fn func() error) (err error, panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
			panicked = true
		}
	}()
	return fn(), false
}
