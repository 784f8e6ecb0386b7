package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Every span is recorded by the benchmark's own code around
// a call into one layer's public API; nothing inside the program under
// test is instrumented.
const (
	spanClient  = "client"                // one closed-loop request, client side
	spanServe   = "serve.handler"         // serve.Server.Handler()
	spanRouter  = "router.handler"        // cluster.Router.Handler()
	spanForward = "router.forward"        // one forwarded leg (cluster.Config.Transport)
	spanBuild   = "ge.BuildProgram"       // direct call
	spanPredict = "predictor.PredictInto" // direct call
	spanMachine = "machine.Run"           // direct call
	spanRobust  = "robust.Run"            // direct call
)

// Headers carrying the request id and the parent span id from the
// client through the router to the peer that serves the request.
const (
	hdrRequest = "X-Perfbench-Request"
	hdrParent  = "X-Perfbench-Parent"
)

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch. Tag holds the X-Cache answer on handler spans.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Tag    string `json:"tag,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, and an installed tracer records only while on, so one run can
// time an untraced and a traced segment through the same wrappers.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64
	// delay injects a fixed sleep inside the named span: the slowed-layer
	// attribution test uses it to slow one layer from outside the
	// program. Written before the run starts, read-only afterwards.
	delay map[string]time.Duration

	mu    sync.Mutex
	spans []span
}

func newTracer(delay map[string]time.Duration) *tracer {
	return &tracer{epoch: time.Now(), delay: delay, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// sleep applies the injected delay for a span name, if any.
func (t *tracer) sleep(name string) {
	if d := t.delay[name]; d > 0 {
		time.Sleep(d)
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// call runs fn inside a span named name when tracing is on.
func (t *tracer) call(name string, fn func()) {
	if !t.active() {
		fn()
		return
	}
	s := span{ID: t.newID(), Name: name, Start: t.now()}
	t.sleep(name)
	fn()
	s.End = t.now()
	t.record(s)
}

// spanRef travels in a request context from a handler span to the
// forward legs it causes.
type spanRef struct{ id, req int64 }

type spanRefKey struct{}

// handler wraps h in a span per request. The request id and parent span
// come from the benchmark's headers; the span is handed on through the
// request context so a router's forward legs can name it as parent.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(hdrRequest), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		s := span{ID: t.newID(), Parent: parent, Req: req, Name: name, Start: t.now()}
		ctx := context.WithValue(r.Context(), spanRefKey{}, spanRef{id: s.ID, req: req})
		t.sleep(name)
		h.ServeHTTP(w, r.WithContext(ctx))
		s.End = t.now()
		s.Tag = w.Header().Get("X-Cache")
		t.record(s)
	})
}

// transport spans every forwarded /predict leg. The leg's request
// context descends from the router handler's, so the parent span and
// request id are on it; they are passed on to the peer as headers. The
// span ends when the router closes the response body, after reading it.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tr transport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := r.Context().Value(spanRefKey{}).(spanRef)
	if !ok || !tr.t.active() || r.URL.Path != "/predict" {
		return tr.base.RoundTrip(r)
	}
	s := span{ID: tr.t.newID(), Parent: ref.id, Req: ref.req, Name: spanForward, Start: tr.t.now()}
	leg := r.Clone(r.Context())
	leg.Header.Set(hdrRequest, strconv.FormatInt(ref.req, 10))
	leg.Header.Set(hdrParent, strconv.FormatInt(s.ID, 10))
	tr.t.sleep(spanForward)
	resp, err := tr.base.RoundTrip(leg)
	if err != nil {
		s.End = tr.t.now()
		tr.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tr.t, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.record(b.s)
	})
	return err
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its children cover (overlapping children, as in a hedged
// race, count once).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		covered := int64(0)
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		cur := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
