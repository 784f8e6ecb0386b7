package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// post fires one JSON request at the handler and decodes the body into
// out (which may be nil). It returns the recorder for header checks.
// Errors are reported with Errorf, not Fatalf — post runs from helper
// goroutines in the overload and soak tests.
func post(t testing.TB, h http.Handler, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Errorf("bad response body %q: %v", w.Body.String(), err)
		}
	}
	return w
}

const smallGE = `{"mode":%q,"workload":{"kind":"ge","procs":4,"n":96,"block":8}}`

func TestSimulateAndWorstCaseModes(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	for _, mode := range []string{ModeSimulate, ModeWorstCase} {
		var resp Response
		w := post(t, s.Handler(), fmt.Sprintf(smallGE, mode), &resp)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", mode, w.Code, w.Body.String())
		}
		if resp.Degraded || resp.Prediction == nil {
			t.Fatalf("%s: want non-degraded prediction, got %+v", mode, resp)
		}
		if resp.Prediction.TotalMicros <= 0 || resp.Prediction.WorstMicros < resp.Prediction.TotalMicros {
			t.Fatalf("%s: implausible prediction %+v", mode, resp.Prediction)
		}
		if resp.WorkUnits <= 0 {
			t.Fatalf("%s: work units not priced: %+v", mode, resp)
		}
	}
}

func TestSimulateMatchesDirectPrediction(t *testing.T) {
	// The service must answer exactly what the library answers: same
	// deterministic replay, no service-side drift.
	s := NewServer(Config{Workers: 1})
	var a, b Response
	post(t, s.Handler(), fmt.Sprintf(smallGE, "simulate"), &a)
	post(t, s.Handler(), fmt.Sprintf(smallGE, "simulate"), &b)
	if a.Prediction == nil || b.Prediction == nil || *a.Prediction != *b.Prediction {
		t.Fatalf("repeat request drifted: %+v vs %+v", a.Prediction, b.Prediction)
	}
}

func TestAnalyzeMode(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	var resp Response
	w := post(t, s.Handler(), fmt.Sprintf(smallGE, "analyze"), &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	if resp.Report == nil || resp.Bounds == nil {
		t.Fatalf("analyze response missing report or bounds: %s", w.Body.String())
	}
	if !(resp.Bounds.LowerMicros > 0 && resp.Bounds.UpperMicros >= resp.Bounds.LowerMicros) {
		t.Fatalf("implausible bounds %+v", resp.Bounds)
	}
}

func TestEnvelopeMode(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	var resp Response
	w := post(t, s.Handler(),
		`{"mode":"envelope","workload":{"kind":"ge","procs":4,"n":96,"block":8},"samples":4,"seed":7,"perturb":{"l":0.1,"o":0.1}}`,
		&resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	if resp.Degraded || resp.Envelope == nil {
		t.Fatalf("want a full envelope, got %s", w.Body.String())
	}
	if resp.Envelope.Samples != 4 {
		t.Fatalf("envelope ran %d samples, want 4", resp.Envelope.Samples)
	}
}

func TestMalformedInputRejected(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	cases := []struct {
		name, body string
		status     int
	}{
		{"not json", `{`, http.StatusBadRequest},
		{"unknown field", `{"mode":"simulate","bogus":1}`, http.StatusBadRequest},
		{"unknown mode", `{"mode":"explode","workload":{"kind":"ge","procs":4,"n":96,"block":8}}`, http.StatusBadRequest},
		{"unknown kind", `{"workload":{"kind":"cfd","procs":4}}`, http.StatusBadRequest},
		{"zero procs", `{"workload":{"kind":"ge","procs":0,"n":96,"block":8}}`, http.StatusBadRequest},
		{"procs over cap", `{"workload":{"kind":"ge","procs":5000,"n":96,"block":8}}`, http.StatusBadRequest},
		{"block not dividing", `{"workload":{"kind":"ge","procs":4,"n":96,"block":7}}`, http.StatusBadRequest},
		{"n over cap", `{"workload":{"kind":"ge","procs":4,"n":100000,"block":8}}`, http.StatusBadRequest},
		{"negative deadline", `{"workload":{"kind":"ge","procs":4,"n":96,"block":8},"deadline_ms":-1}`, http.StatusBadRequest},
		{"perturb out of range", `{"mode":"envelope","workload":{"kind":"ge","procs":4,"n":96,"block":8},"perturb":{"l":1.5}}`, http.StatusBadRequest},
		{"envelope needs ge", `{"mode":"envelope","workload":{"kind":"pattern","procs":4,"pattern":"ring","bytes":64}}`, http.StatusBadRequest},
		{"bad fault plan", `{"workload":{"kind":"ge","procs":4,"n":96,"block":8},"faults":"drop=nope"}`, http.StatusBadRequest},
		{"bad layout", `{"workload":{"kind":"ge","procs":4,"n":96,"block":8,"layout":"spiral"}}`, http.StatusBadRequest},
		{"preset and explicit machine", `{"workload":{"kind":"ge","procs":4,"n":96,"block":8},"machine":{"preset":"cluster","l":3}}`, http.StatusBadRequest},
		// A valid request with anything but whitespace behind it.
		{"trailing garbage", fmt.Sprintf(smallGE, "simulate") + `garbage`, http.StatusBadRequest},
		{"trailing second object", fmt.Sprintf(smallGE, "simulate") + `{"mode":"bogus"}`, http.StatusBadRequest},
		{"trailing bracket", fmt.Sprintf(smallGE, "simulate") + `]`, http.StatusBadRequest},
	}
	for _, c := range cases {
		var e errorResponse
		w := post(t, s.Handler(), c.body, &e)
		if w.Code != c.status {
			t.Errorf("%s: status %d, want %d (body %s)", c.name, w.Code, c.status, w.Body.String())
		}
		if e.Error == "" {
			t.Errorf("%s: error body missing: %s", c.name, w.Body.String())
		}
	}

	// Trailing whitespace is not data.
	if w := post(t, s.Handler(), fmt.Sprintf(smallGE, "simulate")+" \n\t\r\n", nil); w.Code != http.StatusOK {
		t.Errorf("trailing whitespace: status %d, want 200 (body %s)", w.Code, w.Body.String())
	}

	// Wrong method.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/predict", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict: status %d, want 405", w.Code)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	s := NewServer(Config{Workers: 1, Limits: Limits{MaxBodyBytes: 256}})
	body := `{"workload":{"kind":"ge","procs":4,"n":96,"block":8},"faults":"` +
		strings.Repeat(" ", 512) + `"}`
	w := post(t, s.Handler(), body, nil)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (body %s)", w.Code, w.Body.String())
	}
}

// TestOverloadShedsImmediately pins the admission-control contract: with
// every worker pinned and no waiting room, the next request is bounced
// with 429 and Retry-After well inside 100ms — it never queues, never
// touches a simulator.
func TestOverloadShedsImmediately(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: -1}) // no waiting room
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.testHook = func(ctx context.Context) {
		entered <- struct{}{}
		<-gate
	}
	defer close(gate)

	go post(t, s.Handler(), fmt.Sprintf(smallGE, "simulate"), nil)
	<-entered // the only worker is now pinned

	// A distinct body (different seed), so the answer is a miss that
	// contends for a slot whatever the cache holds.
	start := time.Now()
	var e errorResponse
	w := post(t, s.Handler(), `{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8},"seed":1}`, &e)
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("shed took %v, want <100ms", elapsed)
	}
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.Stats().Shed; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
}

// TestQueueDepthAdmitsThenSheds verifies the queue admits exactly
// Workers+QueueDepth requests before shedding.
func TestQueueDepthAdmitsThenSheds(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 2})
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	s.testHook = func(ctx context.Context) {
		entered <- struct{}{}
		<-gate
	}

	// Distinct bodies (per-request seeds), so every request is a miss
	// that takes a slot whatever the cache holds.
	seeded := `{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8},"seed":%d}`
	var wg sync.WaitGroup
	codes := make(chan int, 4)
	for i := 0; i < 3; i++ { // 1 running + 2 queued
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, s.Handler(), fmt.Sprintf(seeded, i), nil)
			codes <- w.Code
		}(i)
	}
	<-entered // first request holds the worker
	// Wait for the other two to take their queue slots.
	deadline := time.After(2 * time.Second)
	for s.Stats().InFlight != 3 {
		select {
		case <-deadline:
			t.Fatalf("in-flight stuck at %d, want 3", s.Stats().InFlight)
		case <-time.After(time.Millisecond):
		}
	}
	w := post(t, s.Handler(), fmt.Sprintf(seeded, 3), nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("4th request: status %d, want 429", w.Code)
	}
	close(gate)
	wg.Wait()
	for i := 0; i < 3; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("admitted request finished with status %d", c)
		}
	}
}

// TestDeadlineDegradesToBounds pins graceful degradation: a deadline the
// simulation cannot meet yields 200 + the bound certificate, flagged
// degraded, not an error.
func TestDeadlineDegradesToBounds(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	s.testHook = func(ctx context.Context) { <-ctx.Done() } // outlast any deadline
	var resp Response
	w := post(t, s.Handler(),
		`{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8},"deadline_ms":20}`,
		&resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	if !resp.Degraded || resp.DegradeReason != "deadline" {
		t.Fatalf("want degraded=deadline, got %s", w.Body.String())
	}
	if resp.Bounds == nil || resp.Bounds.LowerMicros <= 0 {
		t.Fatalf("degraded response missing bound certificate: %s", w.Body.String())
	}
	if resp.Prediction != nil {
		t.Fatalf("degraded response carries a prediction: %s", w.Body.String())
	}
}

// TestRealDeadlineAbortsWithinAStep runs a genuinely expensive request
// under a tiny deadline with no hooks: the predictor must notice the
// expired context at a step boundary and the handler must answer the
// certificate promptly — the request cannot overshoot its deadline by
// more than scheduling noise.
func TestRealDeadlineAbortsWithinAStep(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	start := time.Now()
	var resp Response
	w := post(t, s.Handler(),
		`{"mode":"simulate","workload":{"kind":"ge","procs":8,"n":960,"block":8},"deadline_ms":1}`,
		&resp)
	elapsed := time.Since(start)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	if !resp.Degraded || resp.DegradeReason != "deadline" {
		t.Fatalf("want degraded=deadline, got %s", w.Body.String())
	}
	// The threshold separates outcomes, not absolute speed: program
	// construction plus the bound certificate cost ~1s under -race,
	// while the full simulation alone takes ~6s — so finishing inside
	// 2.5s proves the replay aborted at a step boundary instead of
	// running to completion.
	if elapsed > 2500*time.Millisecond {
		t.Fatalf("deadline-bound request took %v", elapsed)
	}
}

func TestBudgetDegradesBeforeAdmission(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	var resp Response
	w := post(t, s.Handler(),
		`{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8},"budget":1}`,
		&resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	if !resp.Degraded || resp.DegradeReason != "budget" || resp.Bounds == nil {
		t.Fatalf("want degraded=budget with bounds, got %s", w.Body.String())
	}
	st := s.Stats()
	if st.Accepted != 0 {
		t.Fatalf("over-budget request was admitted: %+v", st)
	}
}

// TestPanicContainment pins crash containment: a panic mid-prediction
// answers 500, poisons (replaces) the evaluator, and leaves the server
// fully serviceable.
func TestPanicContainment(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	s.testHook = func(ctx context.Context) { panic("synthetic prediction crash") }
	w := post(t, s.Handler(), fmt.Sprintf(smallGE, "simulate"), nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %s)", w.Code, w.Body.String())
	}
	if got := s.Stats().Panics; got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	if got := len(s.evals); got != 1 {
		t.Fatalf("evaluator pool holds %d after panic, want 1 (poison must replace)", got)
	}

	// The replacement evaluator serves the next request normally.
	s.testHook = nil
	var resp Response
	w = post(t, s.Handler(), fmt.Sprintf(smallGE, "simulate"), &resp)
	if w.Code != http.StatusOK || resp.Prediction == nil {
		t.Fatalf("post-panic request failed: status %d body %s", w.Code, w.Body.String())
	}
}

// TestEnvelopeDeadlineThenFull pins that an envelope degrades by the
// same rules as a simulation and that no answer depends on earlier
// requests' timeouts: an envelope that outlives its deadline answers
// the bound certificate with "deadline", however often that happens,
// and the same envelope right after, with nothing holding it up,
// answers in full.
func TestEnvelopeDeadlineThenFull(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	s.testHook = func(ctx context.Context) { <-ctx.Done() }
	const env = `{"mode":"envelope","workload":{"kind":"ge","procs":4,"n":96,"block":8},"samples":4%s}`

	for i := 0; i < 3; i++ {
		var resp Response
		w := post(t, s.Handler(), fmt.Sprintf(env, `,"deadline_ms":10`), &resp)
		if w.Code != http.StatusOK || !resp.Degraded || resp.DegradeReason != "deadline" ||
			resp.Bounds == nil || resp.Envelope != nil {
			t.Fatalf("timeout %d: status %d body %s", i, w.Code, w.Body.String())
		}
	}

	s.testHook = nil
	var resp Response
	w := post(t, s.Handler(), fmt.Sprintf(env, ""), &resp)
	if w.Code != http.StatusOK || resp.Degraded || resp.Envelope == nil || resp.Envelope.Samples != 4 {
		t.Fatalf("envelope after timeouts: status %d body %s", w.Code, w.Body.String())
	}
}

// TestEnvelopePricedPerLane pins an envelope's admission price: the
// program's one-replay work estimate times samples + 1 lanes (one per
// sample plus the nominal point), with an omitted sample count priced
// at its default. Over budget the envelope degrades before admission;
// admitted, its cache entry costs the same price. The body's
// work_units stays the one-replay estimate either way.
func TestEnvelopePricedPerLane(t *testing.T) {
	const (
		paper = 6634294 // one replay of GE n=960 b=8 P=8
		small = 4230    // one replay of GE n=96 b=8 P=4
		env   = `{"mode":"envelope","workload":{"kind":"ge","procs":4,"n":96,"block":8}%s,"budget":%d}`
	)
	cases := []struct {
		name         string
		body         string
		units, price float64
		degraded     bool
	}{
		// 1.7e9 units against the 20e6 default.
		{"paper program, 256 samples",
			`{"mode":"envelope","workload":{"kind":"ge","procs":8,"n":960,"block":8},"samples":256}`,
			paper, paper * 257, true},
		{"4 samples at 5 lanes", fmt.Sprintf(env, `,"samples":4`, small*5), small, small * 5, false},
		{"4 samples a unit short", fmt.Sprintf(env, `,"samples":4`, small*5-1), small, small * 5, true},
		{"default samples at 33 lanes", fmt.Sprintf(env, "", small*33), small, small * 33, false},
		{"default samples a unit short", fmt.Sprintf(env, "", small*33-1), small, small * 33, true},
	}
	for _, c := range cases {
		s := NewServer(Config{Workers: 1})
		var resp Response
		w := post(t, s.Handler(), c.body, &resp)
		if w.Code != http.StatusOK || resp.WorkUnits != c.units {
			t.Fatalf("%s: status %d body %s", c.name, w.Code, w.Body.String())
		}
		accepted := s.Stats().Accepted
		if c.degraded {
			if !resp.Degraded || resp.DegradeReason != "budget" || resp.Bounds == nil || accepted != 0 {
				t.Fatalf("%s: want degraded=budget before admission, got accepted=%d body %s",
					c.name, accepted, w.Body.String())
			}
			continue
		}
		if resp.Degraded || resp.Envelope == nil || accepted != 1 {
			t.Fatalf("%s: want a full envelope, got accepted=%d body %s", c.name, accepted, w.Body.String())
		}
		ex := httptest.NewRecorder()
		s.Handler().ServeHTTP(ex, httptest.NewRequest(http.MethodGet, "/cache/export", nil))
		line, err := decodeStrict[handoffLine](ex.Body.Bytes())
		if err != nil || line.Cost != c.price {
			t.Fatalf("%s: cache entry %s (%v), want cost %g", c.name, ex.Body.String(), err, c.price)
		}
	}
}

// TestDrainDegradesInFlightAndRefusesNew pins the lifecycle contract:
// BeginDrain flips readiness, refuses new predictions with 503, and
// after the grace period in-flight requests come back bound-downgraded
// with reason "drain"; Drain then returns with nothing in flight.
func TestDrainDegradesInFlightAndRefusesNew(t *testing.T) {
	s := NewServer(Config{Workers: 1, DrainGrace: 20 * time.Millisecond})
	s.testHook = func(ctx context.Context) { <-ctx.Done() }

	inFlight := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/predict",
			strings.NewReader(`{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8},"deadline_ms":5000}`))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		inFlight <- w
	}()
	deadline := time.After(2 * time.Second)
	for s.Stats().InFlight != 1 {
		select {
		case <-deadline:
			t.Fatal("request never became in-flight")
		case <-time.After(time.Millisecond):
		}
	}

	s.BeginDrain()

	// Readiness flips immediately; new predictions are refused.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", w.Code)
	}
	if w := post(t, s.Handler(), fmt.Sprintf(smallGE, "simulate"), nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("new predict while draining: %d, want 503", w.Code)
	}
	// Liveness stays up.
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", w.Code)
	}

	// The in-flight request is released at the grace boundary and
	// answers the certificate.
	rec := <-inFlight
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad drained body %q: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusOK || !resp.Degraded || resp.DegradeReason != "drain" {
		t.Fatalf("drained request: status %d body %s", rec.Code, rec.Body.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := s.Stats().InFlight; got != 0 {
		t.Fatalf("in-flight after drain = %d", got)
	}
}

// TestSoakPoolStaysBounded hammers a small server with a mix of good,
// degrading, and shedding requests concurrently and checks the
// invariants the robustness layers promise: the evaluator pool ends
// exactly full, nothing stays in flight, and every request was
// accounted for. Run with -race this doubles as the memory/state
// soundness soak.
func TestSoakPoolStaysBounded(t *testing.T) {
	s := NewServer(Config{Workers: 2, QueueDepth: 2})
	bodies := []string{
		fmt.Sprintf(smallGE, "simulate"),
		fmt.Sprintf(smallGE, "worstcase"),
		fmt.Sprintf(smallGE, "analyze"),
		`{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8},"budget":1}`,
		`{"mode":"simulate","workload":{"kind":"ge","procs":8,"n":960,"block":8},"deadline_ms":1}`,
		`{"workload":{"kind":"ge","procs":4,"n":96,"block":7}}`, // rejected
		`{"mode":"envelope","workload":{"kind":"ge","procs":4,"n":96,"block":8},"samples":2}`,
	}
	const rounds = 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := map[int]int{}
	for r := 0; r < rounds; r++ {
		for _, b := range bodies {
			wg.Add(1)
			go func(body string) {
				defer wg.Done()
				w := post(t, s.Handler(), body, nil)
				mu.Lock()
				seen[w.Code]++
				mu.Unlock()
			}(b)
		}
	}
	wg.Wait()

	if got := len(s.evals); got != 2 {
		t.Fatalf("evaluator pool holds %d, want 2", got)
	}
	st := s.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight after soak = %d", st.InFlight)
	}
	total := 0
	for code, n := range seen {
		total += n
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusBadRequest,
			http.StatusUnprocessableEntity:
		default:
			t.Fatalf("soak produced unexpected status %d (×%d)", code, n)
		}
	}
	if total != rounds*len(bodies) {
		t.Fatalf("answered %d of %d requests", total, rounds*len(bodies))
	}
	if seen[http.StatusBadRequest] != rounds {
		t.Fatalf("bad-request count %d, want %d", seen[http.StatusBadRequest], rounds)
	}
}

func TestStatszReportsCounters(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	post(t, s.Handler(), fmt.Sprintf(smallGE, "simulate"), nil)
	post(t, s.Handler(), `{"workload":{"kind":"ge","procs":0}}`, nil)

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("statsz body %q: %v", w.Body.String(), err)
	}
	if st.Completed != 1 || st.Rejected != 1 || st.Accepted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPatternWorkload(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	var resp Response
	w := post(t, s.Handler(),
		`{"mode":"simulate","workload":{"kind":"pattern","procs":8,"pattern":"alltoall","bytes":256}}`, &resp)
	if w.Code != http.StatusOK || resp.Prediction == nil {
		t.Fatalf("pattern workload: status %d body %s", w.Code, w.Body.String())
	}
	if resp.Prediction.TotalMicros <= 0 {
		t.Fatalf("pattern prediction implausible: %+v", resp.Prediction)
	}
}

func TestResponseJSONShape(t *testing.T) {
	// The wire shape is the public contract; pin the key field names.
	// Wall time is not in the body: it travels as Server-Timing.
	s := NewServer(Config{Workers: 1})
	w := post(t, s.Handler(), fmt.Sprintf(smallGE, "simulate"), nil)
	for _, key := range []string{`"mode"`, `"degraded"`, `"prediction"`, `"total_us"`, `"work_units"`} {
		if !bytes.Contains(w.Body.Bytes(), []byte(key)) {
			t.Fatalf("response missing %s: %s", key, w.Body.String())
		}
	}
	if bytes.Contains(w.Body.Bytes(), []byte(`"elapsed_ms"`)) {
		t.Fatalf("response body carries elapsed_ms: %s", w.Body.String())
	}
	if st := w.Header().Get("Server-Timing"); !strings.HasPrefix(st, "total;dur=") {
		t.Fatalf("Server-Timing %q, want a total;dur= entry", st)
	}
}

// TestPprofGated checks the /debug/pprof mount is strictly opt-in:
// present with Config.Pprof, absent (404) on a default server.
func TestPprofGated(t *testing.T) {
	for _, tc := range []struct {
		pprof bool
		want  int
	}{
		{pprof: true, want: http.StatusOK},
		{pprof: false, want: http.StatusNotFound},
	} {
		s := NewServer(Config{Workers: 1, Pprof: tc.pprof})
		req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != tc.want {
			t.Fatalf("pprof=%v: /debug/pprof/ status %d, want %d (body %q)",
				tc.pprof, w.Code, tc.want, w.Body.String())
		}
	}
}
