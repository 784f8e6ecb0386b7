package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loggpsim/internal/loadgen"
)

func TestCacheHitIsByteIdenticalToMiss(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	body := fmt.Sprintf(smallGE, "simulate")

	w1 := post(t, s.Handler(), body, nil)
	if got := w1.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	w2 := post(t, s.Handler(), body, nil)
	if got := w2.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("hit drifted from miss:\n%s\n%s", w1.Body.String(), w2.Body.String())
	}
	for _, w := range []*httptest.ResponseRecorder{w1, w2} {
		if got, want := w.Header().Get("Content-Length"), strconv.Itoa(w.Body.Len()); got != want {
			t.Errorf("X-Cache %s: Content-Length %q, want %s", w.Header().Get("X-Cache"), got, want)
		}
		if got := w.Header().Get("Server-Timing"); !strings.HasPrefix(got, "total;dur=") {
			t.Errorf("X-Cache %s: Server-Timing %q, want a total;dur= entry", w.Header().Get("X-Cache"), got)
		}
	}
	st := s.Stats()
	if st.Cache == nil || st.Cache.Hits != 1 || st.Cache.Stores != 1 {
		t.Fatalf("cache stats after hit: %+v", st.Cache)
	}
}

// TestCacheHitAcrossSpellings pins the canonicalization contract end to
// end: requests that differ only in JSON spelling, defaulted fields, or
// a preset-versus-explicit machine share one cache entry.
func TestCacheHitAcrossSpellings(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	variants := []string{
		`{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8}}`,
		// mode defaulted, fields reordered
		`{"workload":{"n":96,"kind":"ge","block":8,"procs":4}}`,
		// layout spelled out to its default
		`{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8,"layout":"diagonal"}}`,
		// machine preset spelled out (the default preset)
		`{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8},"machine":{"preset":"meiko-cs2"}}`,
		// preset replaced by its explicit parameters, G in exponent
		// notation — float canonicalization makes 5e-3 and 0.005 one key
		`{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8},"machine":{"l":9,"o":2,"gap":16,"g":5e-3}}`,
	}
	first := post(t, s.Handler(), variants[0], nil)
	if first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("priming request was not a miss")
	}
	for i, v := range variants[1:] {
		w := post(t, s.Handler(), v, nil)
		if got := w.Header().Get("X-Cache"); got != "hit" {
			t.Errorf("variant %d: X-Cache = %q, want hit (body %s)", i+1, got, v)
		}
		if !bytes.Equal(first.Body.Bytes(), w.Body.Bytes()) {
			t.Errorf("variant %d: body drifted:\n%s\n%s", i+1, first.Body.String(), w.Body.String())
		}
	}
}

// TestCoalescingEvaluatesOnce is the -race coalescing soak the issue
// asks for: 100 concurrent identical requests produce exactly one
// evaluation; every caller gets the same full answer; followers are
// counted and never consume admission slots (Workers 1, no queue — a
// non-coalesced duplicate would shed with 429).
func TestCoalescingEvaluatesOnce(t *testing.T) {
	const n = 100
	s := NewServer(Config{Workers: 1, QueueDepth: -1})
	var evals atomic.Int32
	s.testHook = func(ctx context.Context) {
		evals.Add(1)
		// Hold the evaluation open until every other request has joined
		// as a follower, so none of them can arrive late and find the
		// value already cached (a hit, not a coalesce).
		deadline := time.Now().Add(5 * time.Second)
		for s.Stats().Coalesced < n-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	body := fmt.Sprintf(smallGE, "simulate")
	var wg sync.WaitGroup
	codes := make(chan int, n)
	sources := make(chan string, n)
	bodies := make(chan []byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := post(t, s.Handler(), body, nil)
			codes <- w.Code
			sources <- w.Header().Get("X-Cache")
			bodies <- w.Body.Bytes()
		}()
	}
	wg.Wait()

	if got := evals.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests evaluated %d times, want 1", n, got)
	}
	var miss, coalesced int
	var reference []byte
	for i := 0; i < n; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("request finished with status %d", c)
		}
		switch src := <-sources; src {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Fatalf("unexpected X-Cache %q", src)
		}
		b := <-bodies
		if reference == nil {
			reference = b
		} else if !bytes.Equal(reference, b) {
			t.Fatalf("coalesced responses drifted:\n%s\n%s", reference, b)
		}
	}
	if miss != 1 || coalesced != n-1 {
		t.Fatalf("sources: %d miss / %d coalesced, want 1 / %d", miss, coalesced, n-1)
	}
	st := s.Stats()
	if st.Accepted != 1 {
		t.Fatalf("followers consumed admission slots: accepted = %d, want 1", st.Accepted)
	}
	if st.Shed != 0 {
		t.Fatalf("coalesced requests were shed: %+v", st)
	}
}

func TestDegradedResponseNeverCached(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	body := `{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8},"budget":1}`
	for i := 0; i < 2; i++ {
		var resp Response
		w := post(t, s.Handler(), body, &resp)
		if got := w.Header().Get("X-Cache"); got != "miss" {
			t.Fatalf("degraded request %d served X-Cache %q, want miss", i, got)
		}
		if !resp.Degraded || resp.DegradeReason != "budget" {
			t.Fatalf("request %d not budget-degraded: %s", i, w.Body.String())
		}
	}
	if st := s.Stats(); st.Cache.Entries != 0 {
		t.Fatalf("degraded response entered the cache: %+v", st.Cache)
	}
}

// TestDrainServesHitsRefusesMisses pins the drain contract with the
// cache in front: hits keep flowing until exit, misses get 503.
func TestDrainServesHitsRefusesMisses(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	body := fmt.Sprintf(smallGE, "simulate")
	post(t, s.Handler(), body, nil) // prime

	s.BeginDrain()

	w := post(t, s.Handler(), body, nil)
	if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "hit" {
		t.Fatalf("hit during drain: status %d X-Cache %q", w.Code, w.Header().Get("X-Cache"))
	}
	w = post(t, s.Handler(), fmt.Sprintf(smallGE, "worstcase"), nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("miss during drain: status %d, want 503", w.Code)
	}
}

// TestCacheDifferentialAgainstCacheOff replays a corpus spanning every
// mode twice against a caching server and once against a cache-off
// server: all three responses must be byte-identical.
// This is the end-to-end proof that the cache changes performance, not
// answers.
func TestCacheDifferentialAgainstCacheOff(t *testing.T) {
	corpus := []string{
		fmt.Sprintf(smallGE, "simulate"),
		fmt.Sprintf(smallGE, "worstcase"),
		fmt.Sprintf(smallGE, "analyze"),
		`{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8},"seed":9}`,
		`{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8},"faults":"drop=0.05,seed=3"}`,
		`{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8},"machine":{"l":10,"o":3,"gap":8,"g":0.1}}`,
		`{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":128,"block":8,"layout":"row"}}`,
		`{"mode":"simulate","workload":{"kind":"pattern","procs":8,"pattern":"alltoall","bytes":256}}`,
		`{"mode":"simulate","workload":{"kind":"pattern","procs":8,"pattern":"random","bytes":64},"seed":5}`,
		`{"mode":"analyze","workload":{"kind":"pattern","procs":8,"pattern":"ring","bytes":128}}`,
		`{"mode":"envelope","workload":{"kind":"ge","procs":4,"n":96,"block":8},"samples":4,"seed":7,"perturb":{"l":0.1,"g":0.2}}`,
		`{"mode":"envelope","workload":{"kind":"ge","procs":4,"n":96,"block":8},"samples":4,"seed":7,"perturb":{"l":0.1,"g":0.2},"faults":"jitter=0.2,seed=11"}`,
	}
	cached := NewServer(Config{Workers: 2})
	plain := NewServer(Config{Workers: 2, CacheOff: true})
	for _, body := range corpus {
		miss := post(t, cached.Handler(), body, nil)
		hit := post(t, cached.Handler(), body, nil)
		off := post(t, plain.Handler(), body, nil)
		if miss.Code != http.StatusOK || hit.Code != http.StatusOK || off.Code != http.StatusOK {
			t.Fatalf("%s: statuses %d/%d/%d", body, miss.Code, hit.Code, off.Code)
		}
		if got := hit.Header().Get("X-Cache"); got != "hit" {
			t.Errorf("%s: repeat request X-Cache %q, want hit", body, got)
		}
		if got := off.Header().Get("X-Cache"); got != "" {
			t.Errorf("%s: cache-off server sent X-Cache %q", body, got)
		}
		m, h, o := miss.Body.Bytes(), hit.Body.Bytes(), off.Body.Bytes()
		if !bytes.Equal(m, h) {
			t.Errorf("%s: hit differs from miss:\n%s\n%s", body, m, h)
		}
		if !bytes.Equal(m, o) {
			t.Errorf("%s: cached differs from cache-off:\n%s\n%s", body, m, o)
		}
	}
}

// TestStatszSnapshotConsistent pins the packed occupancy counter: with
// one request running and two queued, a single /statsz read reports
// in_flight, running, and queued that add up, plus the cache section.
func TestStatszSnapshotConsistent(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 2})
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	s.testHook = func(ctx context.Context) {
		entered <- struct{}{}
		<-gate
	}
	defer close(gate)

	seeded := `{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8},"seed":%d}`
	for i := 0; i < 3; i++ {
		go post(t, s.Handler(), fmt.Sprintf(seeded, i), nil)
	}
	<-entered
	deadline := time.After(2 * time.Second)
	for s.Stats().InFlight != 3 {
		select {
		case <-deadline:
			t.Fatalf("in-flight stuck at %d, want 3", s.Stats().InFlight)
		case <-time.After(time.Millisecond):
		}
	}

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("statsz body %q: %v", w.Body.String(), err)
	}
	if st.InFlight != 3 || st.Running != 1 || st.Queued != 2 {
		t.Fatalf("snapshot tore: in_flight=%d running=%d queued=%d", st.InFlight, st.Running, st.Queued)
	}
	if st.Queued != st.InFlight-st.Running {
		t.Fatalf("queued %d != in_flight %d - running %d", st.Queued, st.InFlight, st.Running)
	}
	if st.Cache == nil || len(st.Cache.Shards) == 0 {
		t.Fatalf("statsz missing cache section: %s", w.Body.String())
	}
}

// TestCacheOffMatchesLegacyFlow sanity-checks the baseline config: no
// caching, no coalescing, every request evaluates — and two evaluations
// of one request answer the same bytes, because the body is a pure
// function of the request (wall time is in Server-Timing).
func TestCacheOffMatchesLegacyFlow(t *testing.T) {
	s := NewServer(Config{Workers: 1, CacheOff: true})
	body := fmt.Sprintf(smallGE, "simulate")
	var evals atomic.Int32
	s.testHook = func(ctx context.Context) { evals.Add(1) }
	var bodies [2][]byte
	for i := range bodies {
		w := post(t, s.Handler(), body, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, w.Code)
		}
		if got := w.Header().Get("Server-Timing"); !strings.HasPrefix(got, "total;dur=") {
			t.Fatalf("request %d: Server-Timing %q, want a total;dur= entry", i, got)
		}
		bodies[i] = w.Body.Bytes()
	}
	if got := evals.Load(); got != 2 {
		t.Fatalf("cache-off server evaluated %d times for 2 requests", got)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("two evaluations of one request differ:\n%s\n%s", bodies[0], bodies[1])
	}
	if st := s.Stats(); st.Cache != nil {
		t.Fatalf("cache-off server reports cache stats: %+v", st.Cache)
	}
}

// TestDrainOrderingReadyzFlipsBeforeCacheStops pins the ordering the
// cluster's coordinated drain depends on: the instant BeginDrain
// returns, readiness is already 503 (the router stops sending new keys)
// while the cache still answers hits AND the export endpoint still
// streams — the handoff pass runs against a peer that is already
// officially not-ready.
func TestDrainOrderingReadyzFlipsBeforeCacheStops(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	body := fmt.Sprintf(smallGE, "simulate")
	post(t, s.Handler(), body, nil) // prime

	s.BeginDrain()

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: status %d, want 503", w.Code)
	}
	hit := post(t, s.Handler(), body, nil)
	if hit.Code != http.StatusOK || hit.Header().Get("X-Cache") != "hit" {
		t.Fatalf("hit after readyz flipped: status %d X-Cache %q", hit.Code, hit.Header().Get("X-Cache"))
	}
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/cache/export", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("export during drain: status %d, want 200", w.Code)
	}
	if got := w.Header().Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("export Content-Type %q", got)
	}
	var line handoffLine
	if err := json.Unmarshal(w.Body.Bytes(), &line); err != nil || line.Key == "" {
		t.Fatalf("export during drain produced no usable line: %q (%v)", w.Body.String(), err)
	}
	// And import still works too: a *joining* peer may be warmed by a
	// cluster whose source peer is itself draining.
	s2 := NewServer(Config{Workers: 1})
	s2.BeginDrain()
	w = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/cache/import", bytes.NewReader(w.Body.Bytes()))
	w2 := httptest.NewRecorder()
	s2.Handler().ServeHTTP(w2, req)
	if w2.Code != http.StatusOK {
		t.Fatalf("import during drain: status %d, want 200", w2.Code)
	}
}

// TestCacheExportImportRoundTrip is the handoff byte-identity proof at
// the serve layer: entries exported from one server and imported into a
// fresh one are served as hits, byte-identical to the original
// servings.
func TestCacheExportImportRoundTrip(t *testing.T) {
	corpus := []string{
		fmt.Sprintf(smallGE, "simulate"),
		fmt.Sprintf(smallGE, "worstcase"),
		fmt.Sprintf(smallGE, "analyze"),
		`{"mode":"simulate","workload":{"kind":"ge","procs":4,"n":96,"block":8},"seed":9}`,
		`{"mode":"envelope","workload":{"kind":"ge","procs":4,"n":96,"block":8},"samples":4,"seed":7,"perturb":{"l":0.1,"g":0.2}}`,
	}
	src := NewServer(Config{Workers: 2})
	originals := make(map[string][]byte, len(corpus))
	for _, body := range corpus {
		w := post(t, src.Handler(), body, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: prime status %d", body, w.Code)
		}
		originals[body] = w.Body.Bytes()
	}

	ex := httptest.NewRecorder()
	src.Handler().ServeHTTP(ex, httptest.NewRequest(http.MethodGet, "/cache/export", nil))
	if ex.Code != http.StatusOK {
		t.Fatalf("export: status %d", ex.Code)
	}

	dst := NewServer(Config{Workers: 2})
	im := httptest.NewRecorder()
	dst.Handler().ServeHTTP(im, httptest.NewRequest(http.MethodPost, "/cache/import", bytes.NewReader(ex.Body.Bytes())))
	if im.Code != http.StatusOK {
		t.Fatalf("import: status %d body %s", im.Code, im.Body.String())
	}
	var res struct {
		Imported int `json:"imported"`
		Rejected int `json:"rejected"`
	}
	if err := json.Unmarshal(im.Body.Bytes(), &res); err != nil {
		t.Fatalf("import response %q: %v", im.Body.String(), err)
	}
	if res.Imported != len(corpus) || res.Rejected != 0 {
		t.Fatalf("import = %+v, want %d/0", res, len(corpus))
	}

	for _, body := range corpus {
		w := post(t, dst.Handler(), body, nil)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "hit" {
			t.Fatalf("%s: post-import status %d X-Cache %q, want a hit", body, w.Code, w.Header().Get("X-Cache"))
		}
		if !bytes.Equal(originals[body], w.Body.Bytes()) {
			t.Errorf("%s: imported serving drifted:\n%s\n%s", body, originals[body], w.Body.Bytes())
		}
	}
	// Second-generation export: the imported entries round-trip again.
	ex2 := httptest.NewRecorder()
	dst.Handler().ServeHTTP(ex2, httptest.NewRequest(http.MethodGet, "/cache/export", nil))
	dst2 := NewServer(Config{Workers: 2})
	im2 := httptest.NewRecorder()
	dst2.Handler().ServeHTTP(im2, httptest.NewRequest(http.MethodPost, "/cache/import", bytes.NewReader(ex2.Body.Bytes())))
	if err := json.Unmarshal(im2.Body.Bytes(), &res); err != nil || res.Imported != len(corpus) || res.Rejected != 0 {
		t.Fatalf("second-generation import = %+v (%v), want %d/0", res, err, len(corpus))
	}
}

// TestCacheImportRefusesCorruptLines drives every rejection path: a
// tampered response, a mis-addressed key, a degraded response, an
// unknown request field, an older version's elapsed_ms body, and an
// over-limit request are all dropped
// without touching the cache; well-formed lines in the same stream
// still land.
func TestCacheImportRefusesCorruptLines(t *testing.T) {
	src := NewServer(Config{Workers: 1})
	post(t, src.Handler(), fmt.Sprintf(smallGE, "simulate"), nil)
	ex := httptest.NewRecorder()
	src.Handler().ServeHTTP(ex, httptest.NewRequest(http.MethodGet, "/cache/export", nil))
	var good handoffLine
	if err := json.Unmarshal(ex.Body.Bytes(), &good); err != nil {
		t.Fatalf("export line: %v", err)
	}

	mutate := func(fn func(l *handoffLine)) string {
		l := good
		fn(&l)
		b, err := json.Marshal(&l)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	bad := []string{
		// Response payload altered: re-marshal comparison must catch it.
		mutate(func(l *handoffLine) {
			l.Response = json.RawMessage(bytes.Replace(l.Response, []byte(`"degraded":false`), []byte(`"degraded":false,"work_units":1`), 1))
		}),
		// Key does not address the request.
		mutate(func(l *handoffLine) { l.Key = "00" + l.Key[2:] }),
		// Degraded responses are never cached, so never imported.
		mutate(func(l *handoffLine) {
			l.Response = json.RawMessage(bytes.Replace(l.Response, []byte(`"degraded":false`), []byte(`"degraded":true`), 1))
		}),
		// Unknown request field: strict decode refuses.
		mutate(func(l *handoffLine) {
			l.Request = json.RawMessage(bytes.Replace(l.Request, []byte(`"mode"`), []byte(`"sneaky":1,"mode"`), 1))
		}),
		// An older peer's body, which still carried elapsed_ms: strict
		// decode refuses, so a mixed-version handoff only loses hits.
		mutate(func(l *handoffLine) {
			l.Response = json.RawMessage(bytes.Replace(l.Response, []byte(`"degraded":false`), []byte(`"degraded":false,"elapsed_ms":0.5`), 1))
		}),
	}
	stream := bytes.NewBufferString(strings.Join(bad, "\n") + "\n")
	b, err := json.Marshal(&good)
	if err != nil {
		t.Fatal(err)
	}
	stream.Write(append(b, '\n'))

	dst := NewServer(Config{Workers: 1})
	im := httptest.NewRecorder()
	dst.Handler().ServeHTTP(im, httptest.NewRequest(http.MethodPost, "/cache/import", stream))
	if im.Code != http.StatusOK {
		t.Fatalf("import: status %d body %s", im.Code, im.Body.String())
	}
	var res struct {
		Imported int `json:"imported"`
		Rejected int `json:"rejected"`
	}
	if err := json.Unmarshal(im.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Imported != 1 || res.Rejected != len(bad) {
		t.Fatalf("import = %+v, want 1 imported / %d rejected", res, len(bad))
	}
	if st := dst.Stats(); st.Cache.Entries != 1 {
		t.Fatalf("cache holds %d entries after corrupt import, want 1", st.Cache.Entries)
	}
}

// TestCacheEndpointsDisabledWithoutCache: a cache-off server has
// nothing to hand off.
func TestCacheEndpointsDisabledWithoutCache(t *testing.T) {
	s := NewServer(Config{Workers: 1, CacheOff: true})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/cache/export", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("export on cache-off server: status %d, want 404", w.Code)
	}
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/cache/import", strings.NewReader("")))
	if w.Code != http.StatusNotFound {
		t.Fatalf("import on cache-off server: status %d, want 404", w.Code)
	}
}

// TestCacheBytesAreExact pins the byte accounting: after misses and an
// import, the cache's byte total is exactly the bodies it serves plus
// the wire-form requests it keeps for handoff.
func TestCacheBytesAreExact(t *testing.T) {
	corpus := []string{
		fmt.Sprintf(smallGE, "simulate"),
		fmt.Sprintf(smallGE, "analyze"),
		`{"mode":"envelope","workload":{"kind":"ge","procs":4,"n":96,"block":8},"samples":4,"seed":7,"perturb":{"l":0.1,"g":0.2}}`,
	}
	var want int64
	charge := func(reqBody string, served []byte) {
		t.Helper()
		r, err := decodeStrict[Request]([]byte(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Validate(DefaultLimits()); err != nil {
			t.Fatal(err)
		}
		wire, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		want += int64(len(served) + len(wire))
	}

	s := NewServer(Config{Workers: 2})
	for _, body := range corpus[:2] {
		w := post(t, s.Handler(), body, nil)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" {
			t.Fatalf("%s: status %d X-Cache %q, want a miss", body, w.Code, w.Header().Get("X-Cache"))
		}
		charge(body, w.Body.Bytes())
	}

	// The third entry arrives by import from a peer that evaluated it.
	src := NewServer(Config{Workers: 1})
	post(t, src.Handler(), corpus[2], nil)
	ex := httptest.NewRecorder()
	src.Handler().ServeHTTP(ex, httptest.NewRequest(http.MethodGet, "/cache/export", nil))
	im := httptest.NewRecorder()
	s.Handler().ServeHTTP(im, httptest.NewRequest(http.MethodPost, "/cache/import", bytes.NewReader(ex.Body.Bytes())))
	if im.Code != http.StatusOK || !strings.Contains(im.Body.String(), `"imported":1`) {
		t.Fatalf("import: status %d body %s", im.Code, im.Body.String())
	}
	w := post(t, s.Handler(), corpus[2], nil)
	if w.Header().Get("X-Cache") != "hit" {
		t.Fatalf("imported entry served X-Cache %q, want hit", w.Header().Get("X-Cache"))
	}
	charge(corpus[2], w.Body.Bytes())

	if got := s.Stats().Cache.Bytes; got != want {
		t.Fatalf("cache charges %d bytes, want exactly %d (bodies + requests)", got, want)
	}
}

// decodeStrict decodes b the way the server decodes untrusted JSON:
// unknown fields are errors.
func decodeStrict[T any](b []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&v)
	return v, err
}

// FuzzCacheImport feeds arbitrary bytes to /cache/import. Whatever the
// input, the import does not panic; if it stores nothing, the cache's
// stats do not move; and every stored entry's request re-derives the
// entry's key, its body re-marshals to exactly the stored bytes, and
// the byte charge is exact. The seeds are one valid export line and
// its truncated, mis-keyed, degraded, extra-field, older-version and
// tampered variants; for those, each accepted entry must then be served
// as a hit byte-identical to a fresh evaluation.
func FuzzCacheImport(f *testing.F) {
	src := NewServer(Config{Workers: 1})
	post(f, src.Handler(), fmt.Sprintf(smallGE, "simulate"), nil)
	ex := httptest.NewRecorder()
	src.Handler().ServeHTTP(ex, httptest.NewRequest(http.MethodGet, "/cache/export", nil))
	good, err := decodeStrict[handoffLine](ex.Body.Bytes())
	if err != nil {
		f.Fatalf("export line %q: %v", ex.Body.String(), err)
	}
	mutate := func(fn func(l *handoffLine)) []byte {
		l := good
		l.Request = append(json.RawMessage(nil), good.Request...)
		l.Response = append(json.RawMessage(nil), good.Response...)
		fn(&l)
		b, err := json.Marshal(&l)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	valid := mutate(func(*handoffLine) {})
	seeds := [][]byte{
		valid,
		valid[:len(valid)/2],
		mutate(func(l *handoffLine) { l.Key = "00" + l.Key[2:] }),
		mutate(func(l *handoffLine) {
			l.Response = bytes.Replace(l.Response, []byte(`"degraded":false`), []byte(`"degraded":true`), 1)
		}),
		mutate(func(l *handoffLine) {
			l.Request = bytes.Replace(l.Request, []byte(`"mode"`), []byte(`"sneaky":1,"mode"`), 1)
		}),
		// An older exporter's body, which still carried elapsed_ms.
		mutate(func(l *handoffLine) {
			l.Response = append(l.Response[:len(l.Response)-1], []byte(`,"elapsed_ms":0.5}`)...)
		}),
		// A body that decodes but does not re-marshal to itself.
		mutate(func(l *handoffLine) {
			l.Response = bytes.Replace(l.Response, []byte(`"degraded":false`), []byte(`"degraded":false,"work_units":1`), 1)
		}),
	}
	isSeed := make(map[string]bool, len(seeds))
	for _, sd := range seeds {
		f.Add(sd)
		isSeed[string(sd)] = true
	}
	fresh := NewServer(Config{Workers: 1, CacheOff: true})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewServer(Config{Workers: 1})
		before := s.cache.Stats()
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/cache/import", bytes.NewReader(data)))
		var res importResult
		if w.Code == http.StatusOK {
			if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
				t.Fatalf("import answer %q: %v", w.Body.String(), err)
			}
		}
		// A stream that fails to decode midway answers 400 but keeps the
		// verified lines before the failure, so acceptance shows in the
		// cache, not only in the answer.
		entries := s.cache.Export(0)
		if res.Imported == 0 && len(entries) == 0 {
			if after := s.cache.Stats(); !reflect.DeepEqual(before, after) {
				t.Fatalf("nothing imported, yet the cache stats moved: %+v -> %+v", before, after)
			}
			return
		}
		var charged int64
		for _, e := range entries {
			req, err := decodeStrict[Request](e.Val.req)
			if err != nil {
				t.Fatalf("stored request %s: %v", e.Val.req, err)
			}
			if key, err := CanonicalKey(&req); err != nil || key != e.Key {
				t.Fatalf("stored request %s re-derives key %s (%v), stored under %s", e.Val.req, key, err, e.Key)
			}
			resp, err := decodeStrict[Response](e.Val.body)
			if err != nil {
				t.Fatalf("stored body %s: %v", e.Val.body, err)
			}
			remarshal, err := json.Marshal(&resp)
			if err != nil || !bytes.Equal(append(remarshal, '\n'), e.Val.body) {
				t.Fatalf("stored body does not re-marshal to itself (%v):\n%s\n%s", err, e.Val.body, remarshal)
			}
			charged += int64(len(e.Val.body) + len(e.Val.req))
			if !isSeed[string(data)] {
				continue
			}
			hit := post(t, s.Handler(), string(e.Val.req), nil)
			if hit.Header().Get("X-Cache") != "hit" {
				t.Fatalf("imported entry served X-Cache %q, want hit", hit.Header().Get("X-Cache"))
			}
			if off := post(t, fresh.Handler(), string(e.Val.req), nil); !bytes.Equal(hit.Body.Bytes(), off.Body.Bytes()) {
				t.Fatalf("imported hit differs from a fresh evaluation:\n%s\n%s", hit.Body.Bytes(), off.Body.Bytes())
			}
		}
		if got := s.cache.Stats().Bytes; got != charged {
			t.Fatalf("cache charges %d bytes for entries of %d", got, charged)
		}
	})
}

// discardWriter is a ResponseWriter that keeps headers and status and
// counts body bytes, so a benchmark measures the handler and not a
// recorder's buffer growth.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// BenchmarkHandlePredictHit times the handler on a cache hit — strict
// decode, Validate, canonical key, cache Get, write — for two entries
// of the cache-replay corpus (loadgen.Corpus(64, 1)): its hottest
// request, a small simulate answer, and its second hottest, an analyze
// report of about 58 KB.
func BenchmarkHandlePredictHit(b *testing.B) {
	corpus := loadgen.Corpus(64, 1)
	for _, bc := range []struct {
		name string
		body string
	}{
		{"simulate-hottest", corpus[0]},
		{"analyze-58KB", corpus[1]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewServer(Config{Workers: 1})
			if w := post(b, s.Handler(), bc.body, nil); w.Code != http.StatusOK {
				b.Fatalf("priming: status %d: %s", w.Code, w.Body.String())
			}
			body := []byte(bc.body)
			rd := bytes.NewReader(body)
			hr := httptest.NewRequest(http.MethodPost, "/predict", nil)
			w := &discardWriter{h: make(http.Header)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				hr.Body = io.NopCloser(rd)
				clear(w.h)
				s.handlePredict(w, hr)
			}
			b.StopTimer()
			if w.status != http.StatusOK || w.h.Get("X-Cache") != "hit" {
				b.Fatalf("status %d X-Cache %q, want a 200 hit", w.status, w.h.Get("X-Cache"))
			}
		})
	}
}
