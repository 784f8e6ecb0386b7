package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loggpsim/internal/cluster"
	"loggpsim/internal/loadgen"
	"loggpsim/internal/resultcache"
	"loggpsim/internal/serve"
)

// clients is the closed loop's width: predictd's callers (sweep drivers
// and the router itself) wait for each reply before sending the next.
const clients = 2

// endpoint is one in-process HTTP server on a loopback listener.
type endpoint struct {
	url  string
	hs   *http.Server
	done chan error
}

func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &endpoint{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
	}
	go func() { e.done <- e.hs.Serve(ln) }()
	return e, nil
}

// close shuts the server down and waits for its Serve loop to return.
func (e *endpoint) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a timed-out shutdown still stops Serve
	<-e.done
}

// reply is one answered request.
type reply struct {
	status int
	cache  string
	body   []byte
}

// client posts prediction requests over its own connection pool.
type client struct {
	hc  *http.Client
	url string
	tr  *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{
		hc: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		},
		url: base + "/predict",
		tr:  tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) post(body []byte) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	traced := c.tr.active()
	var s span
	if traced {
		s = span{ID: c.tr.newID(), Name: spanClient, Start: c.tr.now()}
		s.Req = s.ID
		req.Header.Set(hdrRequest, strconv.FormatInt(s.ID, 10))
		req.Header.Set(hdrParent, strconv.FormatInt(s.ID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	if traced {
		s.End = c.tr.now()
		c.tr.record(s)
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b}, nil
}

// tally counts attempted and failed operations and keeps the first
// failure messages for the log.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	first             []string
}

func (t *tally) note(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.first) < 8 {
			t.first = append(t.first, err.Error())
		}
	}
}

// closedLoop runs clients workers until next reports no more requests or
// the deadline (zero: none) passes. Each worker sends its next request
// only after reading the previous reply. It returns the client-observed
// latencies in milliseconds and, for each, when it completed (seconds
// since the loop began).
func closedLoop(c *client, deadline time.Time, next func() (int, bool), body func(int) []byte,
	check func(int, reply) error, tl *tally) (lat, at []float64) {
	lats := make([][]float64, clients)
	ats := make([][]float64, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				u, ok := next()
				if !ok {
					return
				}
				t0 := time.Now()
				r, err := c.post(body(u))
				lats[w] = append(lats[w], ms(time.Since(t0)))
				ats[w] = append(ats[w], time.Since(start).Seconds())
				if err == nil {
					err = check(u, r)
				}
				if err != nil {
					err = fmt.Errorf("request %d: %w", u, err)
				}
				tl.note(err)
			}
		}(w)
	}
	wg.Wait()
	for w := range lats {
		lat, at = append(lat, lats[w]...), append(at, ats[w]...)
	}
	return lat, at
}

// counter hands out 0, 1, ... n-1 (n < 0: unbounded).
func counter(n int) func() (int, bool) {
	var k atomic.Int64
	return func() (int, bool) {
		i := int(k.Add(1) - 1)
		return i, n < 0 || i < n
	}
}

// full checks a full (non-degraded) 200 answer.
func full(r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if bytes.Contains(r.body, []byte(`"degraded":true`)) {
		return fmt.Errorf("degraded answer: %s", r.body)
	}
	return nil
}

// identical checks a full answer against the reference serving of the
// same request, with elapsed_ms blanked.
func identical(ref []byte, r reply) error {
	if err := full(r); err != nil {
		return err
	}
	if got := loadgen.StripElapsed(r.body); !bytes.Equal(got, ref) {
		return fmt.Errorf("body differs from the reference serving:\n got %s\nwant %s", got, ref)
	}
	return nil
}

// serveOnce sends every body once, two clients wide, and returns the
// answers with elapsed_ms blanked. With want non-nil each answer must
// equal want's entry.
func serveOnce(c *client, bodies, want [][]byte, tl *tally) [][]byte {
	got := make([][]byte, len(bodies))
	closedLoop(c, time.Time{}, counter(len(bodies)), func(u int) []byte { return bodies[u] },
		func(u int, r reply) error {
			var err error
			if want != nil {
				err = identical(want[u], r)
			} else {
				err = full(r)
			}
			if err == nil {
				got[u] = loadgen.StripElapsed(r.body)
			}
			return err
		}, tl)
	return got
}

// counters are the program's own counters, summed over the servers and
// router of a target, read before and after a timed segment.
type counters struct {
	shed, degraded, coalesced, panics       int64
	hits, misses, evictions, bytes, entries int64
	completed, ownerHits, failovers         int64
	hedges, reroutes                        int64
}

func (c *counters) addServer(st serve.Stats) {
	c.shed += st.Shed
	c.degraded += st.Degraded
	c.coalesced += st.Coalesced
	c.panics += st.Panics
	if st.Cache != nil {
		c.hits += st.Cache.Hits
		c.misses += st.Cache.Misses
		c.evictions += st.Cache.Evictions
		c.bytes += st.Cache.Bytes
		c.entries += st.Cache.Entries
	}
}

func (c *counters) addRouter(st cluster.Stats) {
	c.completed += st.Completed
	c.ownerHits += st.OwnerHits
	c.failovers += st.Failovers
	c.hedges += st.Hedges
	c.reroutes += st.LoadReroutes
}

// target is a booted, warmed system under HTTP load.
type target struct {
	url string
	// bodies are the requests the timed phase draws from; next hands out
	// indexes into them across the run's timed segments.
	bodies [][]byte
	next   func() (int, bool)
	check  func(int, reply) error
	// served records answers (elapsed_ms blanked) for the probe pass.
	served [][]byte
	stats  func() counters
	// cache is the servers' result-cache configuration and peers the
	// ring members (none without a router), for the probe pass.
	cache resultcache.Config
	peers []string
	close func()
}

// probeCap is how many serve-cold answers are kept for the probe pass,
// which sizes its cache entries and times the encode from them.
const probeCap = 64

// zipfTarget boots one cache-on predictd with predictd's defaults and
// warms it with the whole Zipf universe, so the timed phase is all hits.
func zipfTarget(seed int64, tr *tracer, tl *tally) (*target, error) {
	bodies, order := zipfBodies(), zipfOrder(seed)
	srv := serve.NewServer(serve.Config{})
	ep, err := listen(tr.handler(spanServe, srv.Handler()))
	if err != nil {
		return nil, err
	}
	c := newClient(ep.url, nil)
	ref := serveOnce(c, bodies, nil, tl)
	c.close()
	k := counter(-1)
	return &target{
		url:    ep.url,
		bodies: bodies,
		next: func() (int, bool) {
			i, _ := k()
			return order[i%len(order)], true
		},
		check:  func(u int, r reply) error { return identical(ref[u], r) },
		served: ref,
		stats: func() (c counters) {
			c.addServer(srv.Stats())
			return c
		},
		close: ep.close,
	}, nil
}

// coldTarget boots a predictd whose cache entry budget is below the run's
// distinct requests and feeds it requests with pairwise-distinct
// canonical keys, so every timed request misses and inserts evict.
func coldTarget(seed int64, seconds time.Duration, tr *tracer, tl *tally) (*target, error) {
	// Sized well above what two clients complete in the run.
	warm, bodies := coldWarmupBodies(), coldBodies(seed, int(seconds.Seconds()*400)+1000)
	if err := distinctKeys(append(append([][]byte(nil), warm...), bodies...)); err != nil {
		return nil, err
	}
	cache := resultcache.Config{MaxEntries: coldCacheEntries}
	srv := serve.NewServer(serve.Config{Cache: cache})
	ep, err := listen(tr.handler(spanServe, srv.Handler()))
	if err != nil {
		return nil, err
	}
	c := newClient(ep.url, nil)
	serveOnce(c, warm, nil, tl)
	c.close()
	served := make([][]byte, probeCap)
	return &target{
		url:    ep.url,
		bodies: bodies,
		next:   counter(len(bodies)),
		check: func(u int, r reply) error {
			if err := full(r); err != nil {
				return err
			}
			if r.cache != "miss" {
				return fmt.Errorf("X-Cache %q on a cold request, want miss", r.cache)
			}
			if u < len(served) {
				served[u] = loadgen.StripElapsed(r.body)
			}
			return nil
		},
		served: served,
		stats: func() (c counters) {
			c.addServer(srv.Stats())
			return c
		},
		cache: cache,
		close: ep.close,
	}, nil
}

// distinctKeys checks that every body decodes strictly, validates, and
// has a canonical key no other body has.
func distinctKeys(bodies [][]byte) error {
	seen := make(map[resultcache.Key]int, len(bodies))
	for i, b := range bodies {
		r, err := decodeRequest(b)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		if err := r.Validate(serve.DefaultLimits()); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		k, err := serve.CanonicalKey(r)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		if j, dup := seen[k]; dup {
			return fmt.Errorf("requests %d and %d share canonical key %s", j, i, k)
		}
		seen[k] = i
	}
	return nil
}

// decodeRequest is the handler's strict decode.
func decodeRequest(b []byte) (*serve.Request, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var r serve.Request
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// clusterTarget serves the Zipf universe once from a single process for
// reference, then boots two peers behind a router with predictrouter's
// defaults (hedging and load gossip on) and warms the cluster through
// the router, checking every answer against the single process.
func clusterTarget(seed int64, tr *tracer, tl *tally) (*target, error) {
	bodies, order := zipfBodies(), zipfOrder(seed)
	single, err := listen(serve.NewServer(serve.Config{}).Handler())
	if err != nil {
		return nil, err
	}
	c := newClient(single.url, nil)
	ref := serveOnce(c, bodies, nil, tl)
	c.close()
	single.close()

	var (
		peers []*serve.Server
		eps   []*endpoint
		urls  []string
	)
	closeAll := func() {
		for _, e := range eps {
			e.close()
		}
	}
	for i := 0; i < 2; i++ {
		p := serve.NewServer(serve.Config{})
		e, err := listen(tr.handler(spanServe, p.Handler()))
		if err != nil {
			closeAll()
			return nil, err
		}
		peers, eps, urls = append(peers, p), append(eps, e), append(urls, e.url)
	}
	cfg := cluster.Config{Peers: urls}
	if tr != nil {
		cfg.Transport = transport{t: tr, base: http.DefaultTransport}
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		closeAll()
		return nil, err
	}
	rt.Start()
	front, err := listen(tr.handler(spanRouter, rt.Handler()))
	if err != nil {
		rt.Close()
		closeAll()
		return nil, err
	}
	c = newClient(front.url, nil)
	serveOnce(c, bodies, ref, tl)
	c.close()
	k := counter(-1)
	return &target{
		url:    front.url,
		bodies: bodies,
		next: func() (int, bool) {
			i, _ := k()
			return order[i%len(order)], true
		},
		check:  func(u int, r reply) error { return identical(ref[u], r) },
		served: ref,
		stats: func() (c counters) {
			for _, p := range peers {
				c.addServer(p.Stats())
			}
			c.addRouter(rt.Stats())
			return c
		},
		peers: urls,
		close: func() {
			front.close()
			rt.Close()
			closeAll()
		},
	}, nil
}
