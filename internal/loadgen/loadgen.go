// Package loadgen replays a reproducible, Zipf-skewed prediction
// workload against a running predictd instance (or a predictrouter in
// front of several) and measures what the result cache is worth:
// request throughput, latency percentiles, the hit/miss/coalesced
// split, and — because every prediction is deterministic — whether
// repeated servings of one request stayed byte-identical.
//
// The workload is a function of (Universe, Skew, Seed) only: the
// request universe is generated from an owned rand source and the
// replay order from an owned Zipf generator, so two runs against two
// server configurations (cache on, cache off) issue exactly the same
// request sequence and their numbers are comparable. The binaries'
// end-to-end tests drive Run against real processes: cmd/predictd's
// TestPredictdCacheReplay (cache on against cache off) and
// cmd/predictrouter's chaos and resize tests (a cluster against one
// process). The benchmark program (perfbench) draws its requests from
// Corpus and Sequence.
package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config parameterizes one replay leg. The zero value is not usable:
// BaseURL and Requests are required.
type Config struct {
	// BaseURL is the predictd root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Universe is the number of distinct requests (default 64).
	Universe int
	// Skew is the Zipf s parameter; larger means hotter hot keys.
	// Values ≤ 1 select 1.3 (rand.NewZipf requires s > 1).
	Skew float64
	// Seed drives both universe generation and the replay order.
	Seed int64
	// Clients is the number of concurrent connections (default 8).
	Clients int
	// Requests is the total number of requests to issue.
	Requests int
	// Timeout bounds one request round trip (default 30s).
	Timeout time.Duration
	// MaxRetries caps how many times one request is re-issued after a
	// shed answer (429/503) that carries Retry-After; each retry waits
	// out the deterministic backoff schedule (backoffDelay) instead of
	// re-firing immediately. 0 selects 3; negative disables retries.
	MaxRetries int
	// RetryCap bounds one backoff wait (default 2s).
	RetryCap time.Duration
	// Reference optionally seeds the byte-identity tableau with another
	// leg's servings (Result.Reference), so this leg's responses are
	// checked against that leg's — the cross-process identity check a
	// cluster leg runs against a single-process baseline. Entries may
	// be nil; indexes beyond Universe are ignored.
	Reference [][]byte
	// OnIssue, when set, is called with the sequence position just
	// before each request is handed to a client — the hook the chaos
	// and resize tests use to kill a peer or change the membership
	// mid-replay at a deterministic point.
	OnIssue func(i int)
}

func (c Config) withDefaults() Config {
	if c.Universe < 1 {
		c.Universe = 64
	}
	if c.Skew <= 1 {
		c.Skew = 1.3
	}
	if c.Clients < 1 {
		c.Clients = 8
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	switch {
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	case c.MaxRetries == 0:
		c.MaxRetries = 3
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 2 * time.Second
	}
	return c
}

// Result is the measured outcome of one replay leg.
type Result struct {
	// Requests actually issued; Errors the transport-level failures;
	// NonOK the non-200 final answers (sheds included); Degraded the
	// 200s flagged degraded (excluded from the identity check —
	// degradation reflects transient load, not request semantics).
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	NonOK    int `json:"non_ok"`
	Degraded int `json:"degraded"`
	// Sheds is the subset of NonOK that were shed answers (429/503) —
	// deliberate overload refusals, not failures. NonOK−Sheds is the
	// real failure count a chaos run must hold at zero. Retries counts
	// re-issued attempts after Retry-After-bearing sheds; a retried
	// request still counts once in Requests.
	Sheds   int `json:"sheds"`
	Retries int `json:"retries"`
	// Mismatches counts full responses that differed byte-for-byte
	// from the first full serving of the same request — any nonzero
	// value is a correctness failure.
	Mismatches int `json:"mismatches"`
	// Hits/Misses/Coalesced are X-Cache header counts; Unlabeled are
	// responses without the header (every response on a cache-off
	// server).
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	Coalesced int `json:"coalesced"`
	Unlabeled int `json:"unlabeled"`
	// HitRate is (Hits+Coalesced)/Requests: the fraction of requests
	// that were answered without a fresh evaluation.
	HitRate float64 `json:"hit_rate"`
	// Throughput and latency of the whole leg.
	DurationMS float64 `json:"duration_ms"`
	ReqPerSec  float64 `json:"req_per_sec"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	// Reference is the byte-identity tableau this leg ended with: the
	// raw body of the first full serving of each universe index (nil
	// where the index was never served in full). Feed it into another
	// leg's Config.Reference to demand cross-leg identity.
	// Never serialized — it is an input to further legs, not a metric.
	Reference [][]byte `json:"-"`
}

// elapsedRE matches the wall-clock field predictd bodies used to carry.
var elapsedRE = regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)

// StripElapsed blanks an "elapsed_ms" field in a response body. predictd
// bodies no longer carry one — wall time is in the Server-Timing header
// — so Run compares raw bytes. The function stays, regex and cost
// included, because the benchmark program (perfbench) calls it on every
// reply: deleting or cheapening it would move CPU on the benchmark's
// side of the measurement. It can go with the next benchmark change.
func StripElapsed(b []byte) []byte {
	return elapsedRE.ReplaceAll(b, []byte(`"elapsed_ms":0`))
}

// Corpus generates the request universe: a deterministic mix of GE
// sweep points, pattern simulations, analyze requests, and small
// Monte-Carlo envelopes, every one of them valid. Sizes are chosen so
// an evaluation costs real simulator work (several milliseconds) while
// a cache hit costs only the HTTP round trip — the gap
// TestPredictdCacheReplay measures.
func Corpus(universe int, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	procs := []int{2, 4, 8}
	blocks := []int{8, 12, 16, 24}
	mults := []int{16, 24, 32, 40}
	layouts := []string{"", "diagonal", "row", "col"}
	patterns := []string{"ring", "alltoall", "hypercube", "random"}
	faultSpecs := []string{"", "", "", "drop=0.05,seed=3", "jitter=0.2,seed=7"}

	bodies := make([]string, universe)
	for i := range bodies {
		switch pick := r.Intn(10); {
		case pick < 5: // GE simulate/worstcase sweep point
			mode := "simulate"
			if r.Intn(4) == 0 {
				mode = "worstcase"
			}
			b := blocks[r.Intn(len(blocks))]
			n := b * mults[r.Intn(len(mults))]
			bodies[i] = fmt.Sprintf(
				`{"mode":%q,"workload":{"kind":"ge","procs":%d,"n":%d,"block":%d,"layout":%q},"seed":%d,"faults":%q}`,
				mode, procs[r.Intn(len(procs))], n, b,
				layouts[r.Intn(len(layouts))], r.Intn(8), faultSpecs[r.Intn(len(faultSpecs))])
		case pick < 7: // closed-form analyze (GE)
			b := blocks[r.Intn(len(blocks))]
			n := b * mults[r.Intn(len(mults))]
			bodies[i] = fmt.Sprintf(
				`{"mode":"analyze","workload":{"kind":"ge","procs":%d,"n":%d,"block":%d}}`,
				procs[r.Intn(len(procs))], n, b)
		case pick < 9: // pattern simulation
			bodies[i] = fmt.Sprintf(
				`{"mode":"simulate","workload":{"kind":"pattern","procs":%d,"pattern":%q,"bytes":%d},"seed":%d}`,
				procs[r.Intn(len(procs))], patterns[r.Intn(len(patterns))],
				64<<r.Intn(4), r.Intn(8))
		default: // small Monte-Carlo envelope
			b := blocks[r.Intn(len(blocks))]
			bodies[i] = fmt.Sprintf(
				`{"mode":"envelope","workload":{"kind":"ge","procs":%d,"n":%d,"block":%d},"samples":8,"seed":%d,"perturb":{"l":0.1,"g":0.1}}`,
				procs[r.Intn(len(procs))], b*16, b, r.Intn(8))
		}
	}
	return bodies
}

// Sequence generates the replay order: Requests draws from a Zipf
// distribution over the universe, deterministic in the seed. Index 0 is
// the hottest request.
func Sequence(requests, universe int, skew float64, seed int64) []int {
	r := rand.New(rand.NewSource(seed ^ 0x5eed10ad))
	z := rand.NewZipf(r, skew, 1, uint64(universe-1))
	idx := make([]int, requests)
	for i := range idx {
		idx[i] = int(z.Uint64())
	}
	return idx
}

// Run replays the configured workload and measures it. The returned
// error covers setup problems only; per-request failures are counted in
// the Result.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" || cfg.Requests < 1 {
		return Result{}, fmt.Errorf("loadgen: BaseURL and Requests are required")
	}
	bodies := Corpus(cfg.Universe, cfg.Seed)
	seq := Sequence(cfg.Requests, cfg.Universe, cfg.Skew, cfg.Seed)

	var (
		mu        sync.Mutex
		res       Result
		latencies = make([]float64, 0, cfg.Requests)
		reference = make([][]byte, cfg.Universe)
	)
	copy(reference, cfg.Reference)
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: cfg.Timeout}
			for u := range jobs {
				t0 := time.Now()
				resp, raw, rerr, retries := issue(client, cfg, bodies[u])
				lat := float64(time.Since(t0)) / float64(time.Millisecond)

				mu.Lock()
				res.Retries += retries
				if resp == nil {
					res.Errors++
					mu.Unlock()
					continue
				}
				res.Requests++
				latencies = append(latencies, lat)
				switch resp.Header.Get("X-Cache") {
				case "hit":
					res.Hits++
				case "miss":
					res.Misses++
				case "coalesced":
					res.Coalesced++
				default:
					res.Unlabeled++
				}
				switch {
				case rerr != nil:
					res.Errors++
				case shedStatus(resp.StatusCode):
					res.NonOK++
					res.Sheds++
				case resp.StatusCode != http.StatusOK:
					res.NonOK++
				case strings.Contains(string(raw), `"degraded":true`):
					res.Degraded++
				default:
					if reference[u] == nil {
						reference[u] = raw
					} else if !bytes.Equal(reference[u], raw) {
						res.Mismatches++
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i, u := range seq {
		if cfg.OnIssue != nil {
			cfg.OnIssue(i)
		}
		jobs <- u
	}
	close(jobs)
	wg.Wait()
	res.Reference = reference

	res.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	if res.DurationMS > 0 {
		res.ReqPerSec = float64(res.Requests) / (res.DurationMS / 1000)
	}
	if res.Requests > 0 {
		res.HitRate = float64(res.Hits+res.Coalesced) / float64(res.Requests)
	}
	sort.Float64s(latencies)
	res.P50MS = percentile(latencies, 0.50)
	res.P99MS = percentile(latencies, 0.99)
	return res, nil
}

// issue posts one request, re-issuing it after shed answers (429/503)
// that carry Retry-After, up to MaxRetries times on the deterministic
// backoff schedule. The final response comes back fully read; a nil
// resp means the transport failed. A shed without Retry-After is final
// — the server did not invite a retry.
func issue(client *http.Client, cfg Config, body string) (resp *http.Response, raw []byte, rerr error, retries int) {
	for attempt := 0; ; attempt++ {
		var err error
		resp, err = client.Post(cfg.BaseURL+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			return nil, nil, err, retries
		}
		raw, rerr = io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return resp, nil, rerr, retries
		}
		ra := retryAfter(resp.Header)
		if !shedStatus(resp.StatusCode) || ra == 0 || attempt >= cfg.MaxRetries {
			return resp, raw, nil, retries
		}
		retries++
		time.Sleep(backoffDelay(ra, attempt, cfg.RetryCap))
	}
}

// shedStatus reports whether a status is a deliberate overload refusal
// — predictd's 429 admission shed or the router's 503 no-peer answer.
func shedStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
}

// retryAfter parses the Retry-After header (delay-seconds form); 0
// means absent or unusable, which disables the retry.
func retryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0
	}
	if n == 0 {
		n = 1 // "now" still backs off: the point is not re-firing instantly
	}
	return time.Duration(n) * time.Second
}

// backoffDelay is the retry schedule: the server's own Retry-After as
// the base, doubled per attempt, capped — a pure function of its
// inputs, so a replay's retry timing is as reproducible as its
// request order.
func backoffDelay(ra time.Duration, attempt int, cap time.Duration) time.Duration {
	if attempt > 10 {
		attempt = 10
	}
	d := ra << uint(attempt)
	if d <= 0 || d > cap {
		d = cap
	}
	return d
}

// percentile reads the p-quantile from a sorted slice (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
