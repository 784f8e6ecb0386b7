package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"loggpsim/internal/serve"
)

// TestRequestsValidAndAffordable: every generated request validates, and
// a default server answers each in full. A default server degrades a
// request priced over its default work budget, or one that runs past its
// default deadline, so a full answer shows the request fits both.
func TestRequestsValidAndAffordable(t *testing.T) {
	sets := []struct {
		name   string
		bodies [][]byte
	}{
		{"zipf", zipfBodies()},
		{"cold", append(coldWarmupBodies(), coldBodies(1, coldBlock)...)},
	}
	srv := serve.NewServer(serve.Config{})
	for _, set := range sets {
		for i, b := range set.bodies {
			r, err := decodeRequest(b)
			if err != nil {
				t.Fatalf("%s %d: %v", set.name, i, err)
			}
			if err := r.Validate(serve.DefaultLimits()); err != nil {
				t.Fatalf("%s %d: %v", set.name, i, err)
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(b)))
			if err := full(reply{status: rec.Code, body: rec.Body.Bytes()}); err != nil {
				t.Errorf("%s %d: %v", set.name, i, err)
			}
		}
	}
}

// TestZipfUniverseFitsDefaultCache: after one pass over the universe a
// default server holds every distinct key and has evicted nothing, so
// serve-zipf's timed phase is all hits.
func TestZipfUniverseFitsDefaultCache(t *testing.T) {
	keys := map[string]bool{}
	srv := serve.NewServer(serve.Config{})
	for i, b := range zipfBodies() {
		r, err := decodeRequest(b)
		if err != nil {
			t.Fatal(err)
		}
		k, err := serve.CanonicalKey(r)
		if err != nil {
			t.Fatal(err)
		}
		keys[k.String()] = true
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	if st := srv.Stats().Cache; st.Evictions != 0 || st.Entries != int64(len(keys)) {
		t.Errorf("%d entries and %d evictions after one pass, want %d and 0", st.Entries, st.Evictions, len(keys))
	}
}
