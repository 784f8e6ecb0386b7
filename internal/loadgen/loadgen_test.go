package loadgen

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"loggpsim/internal/serve"
)

// The corpus must be a pure function of (universe, seed): the cache-on
// and cache-off legs rely on replaying the identical workload.
func TestCorpusDeterministic(t *testing.T) {
	a := Corpus(64, 7)
	b := Corpus(64, 7)
	if len(a) != 64 {
		t.Fatalf("universe = %d, want 64", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corpus[%d] differs between runs:\n%s\n%s", i, a[i], b[i])
		}
	}
	c := Corpus(64, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestSequenceDeterministicAndBounded(t *testing.T) {
	a := Sequence(500, 32, 1.3, 7)
	b := Sequence(500, 32, 1.3, 7)
	hot := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence[%d] differs between runs", i)
		}
		if a[i] < 0 || a[i] >= 32 {
			t.Fatalf("sequence[%d] = %d outside universe [0,32)", i, a[i])
		}
		if a[i] == 0 {
			hot++
		}
	}
	// Zipf with s=1.3 concentrates mass on index 0; a uniform draw would
	// put ~16 of 500 there. Anything clearly above uniform confirms the
	// skew is wired through.
	if hot < 50 {
		t.Fatalf("hottest index drew %d/500 requests; Zipf skew not applied", hot)
	}
}

// Every corpus body must be accepted by the real server: an invalid
// request in the universe would silently deflate the measured hit rate
// with 400s.
func TestCorpusBodiesAllValid(t *testing.T) {
	srv := serve.NewServer(serve.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := Run(Config{
		BaseURL:  ts.URL,
		Universe: 48,
		Seed:     3,
		Clients:  4,
		Requests: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.NonOK != 0 {
		t.Fatalf("corpus produced failures: %d errors, %d non-200 of %d", res.Errors, res.NonOK, res.Requests)
	}
	if res.Mismatches != 0 {
		t.Fatalf("byte-identity mismatches: %d", res.Mismatches)
	}
	if res.Requests != 96 {
		t.Fatalf("issued %d requests, want 96", res.Requests)
	}
	if res.HitRate == 0 {
		t.Fatal("zipf replay against a caching server produced no hits")
	}
}

// A shed answer with Retry-After must be retried on the backoff
// schedule — not re-fired instantly, not given up on — and the retries
// must be counted apart from the requests.
func TestRetryAfterBackoff(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"server at capacity"}`, http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"mode":"simulate"}`)
	}))
	defer ts.Close()

	res, err := Run(Config{
		BaseURL:  ts.URL,
		Universe: 1,
		Seed:     1,
		Clients:  1,
		Requests: 2,
		RetryCap: 5 * time.Millisecond, // keep the 1s Retry-After test-speed
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2 || res.Retries != 2 {
		t.Fatalf("requests %d retries %d, want 2 and 2 (two sheds retried)", res.Requests, res.Retries)
	}
	if res.NonOK != 0 || res.Sheds != 0 {
		t.Fatalf("non-OK %d sheds %d after successful retries, want 0", res.NonOK, res.Sheds)
	}
	if calls.Load() != 4 {
		t.Fatalf("server saw %d calls, want 4 (2 sheds + 1 retry-success + 1 plain)", calls.Load())
	}
}

// A shed without Retry-After is final: the server did not invite a
// retry, and the client must count it as a shed, not hammer on.
func TestShedWithoutRetryAfterIsFinal(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no peer available"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	res, err := Run(Config{BaseURL: ts.URL, Universe: 1, Seed: 1, Clients: 1, Requests: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 0 {
		t.Fatalf("retries %d without Retry-After, want 0", res.Retries)
	}
	if res.Sheds != 3 || res.NonOK != 3 {
		t.Fatalf("sheds %d non-OK %d, want 3 each", res.Sheds, res.NonOK)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want exactly 3", calls.Load())
	}
}

// A seeded reference tableau turns the identity check cross-leg: a
// server whose answers differ from the reference must be caught even
// when its own servings are self-consistent.
func TestReferenceTableauCrossLeg(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"mode":"simulate","total":2}`)
	}))
	defer ts.Close()

	base, err := Run(Config{BaseURL: ts.URL, Universe: 1, Seed: 1, Clients: 1, Requests: 2})
	if err != nil {
		t.Fatal(err)
	}
	if base.Mismatches != 0 || base.Reference[0] == nil {
		t.Fatalf("baseline: mismatches %d, reference nil=%v", base.Mismatches, base.Reference[0] == nil)
	}

	// Same server, seeded with the baseline's tableau: identical.
	again, err := Run(Config{BaseURL: ts.URL, Universe: 1, Seed: 1, Clients: 1, Requests: 2, Reference: base.Reference})
	if err != nil {
		t.Fatal(err)
	}
	if again.Mismatches != 0 {
		t.Fatalf("identical server mismatched its own reference %d times", again.Mismatches)
	}

	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"mode":"simulate","total":3}`)
	}))
	defer other.Close()
	diverged, err := Run(Config{BaseURL: other.URL, Universe: 1, Seed: 1, Clients: 1, Requests: 2, Reference: base.Reference})
	if err != nil {
		t.Fatal(err)
	}
	if diverged.Mismatches != 2 {
		t.Fatalf("divergent server produced %d mismatches, want 2", diverged.Mismatches)
	}
}

// The Zipf replay only exercises the hot prefix; sweep the whole
// universe directly so a rarely-drawn invalid body cannot hide.
func TestCorpusFullUniverseValid(t *testing.T) {
	srv := serve.NewServer(serve.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, seed := range []int64{1, 2, 3} {
		bodies := Corpus(96, seed)
		for i, body := range bodies {
			resp, err := ts.Client().Post(ts.URL+"/predict", "application/json",
				strings.NewReader(body))
			if err != nil {
				t.Fatalf("seed %d body %d: %v", seed, i, err)
			}
			if resp.StatusCode != 200 {
				t.Errorf("seed %d body %d rejected with %d: %s", seed, i, resp.StatusCode, body)
			}
			resp.Body.Close()
		}
	}
}

func TestParseResizeScript(t *testing.T) {
	evs, err := ParseResizeScript("drain:0@800, join:2@400,remove:0@1000")
	if err != nil {
		t.Fatal(err)
	}
	want := []ResizeEvent{
		{At: 400, Action: "join", Peer: 2},
		{At: 800, Action: "drain", Peer: 0},
		{At: 1000, Action: "remove", Peer: 0},
	}
	if len(evs) != len(want) {
		t.Fatalf("events %+v, want %+v", evs, want)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}

	// Ties keep script order: drain before remove at one position.
	evs, err = ParseResizeScript("drain:1@500,remove:1@500")
	if err != nil {
		t.Fatal(err)
	}
	if evs[0].Action != "drain" || evs[1].Action != "remove" {
		t.Fatalf("tie order broken: %+v", evs)
	}

	if evs, err := ParseResizeScript(""); err != nil || len(evs) != 0 {
		t.Fatalf("empty script: %v, %+v", err, evs)
	}
	for _, bad := range []string{"restart:0@10", "join:0", "join@10", "join:-1@10", "join:0@-5", "join:x@10", "join:0@y"} {
		if _, err := ParseResizeScript(bad); err == nil {
			t.Errorf("script %q parsed without error", bad)
		}
	}
}
