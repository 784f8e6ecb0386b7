package serve

// The golden corpus pins the service's answers end to end: every line
// of testdata/golden.jsonl holds a canonical request and the SHA-256 of
// the 200 body one in-process server answers it with. The corpus
// crosses the four modes with every workload family (GE on each layout,
// every built-in pattern), the machine presets and one explicit
// machine, seeds 0-2, fault plans and envelope perturbations, so a
// change anywhere below the handler — scheduler cores, predictor,
// envelope engine, certificate pricer, encoding — that moves a single
// bit of any answer fails TestGoldenCorpus.
//
// Regenerate with
//
//	go test -run TestGoldenCorpus ./internal/serve -update -v
//
// which rewrites the file from goldenRequests and prints every entry
// whose body moved, with its old and new headline numbers (-v shows
// the report; go test hides a passing test's output).

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"loggpsim/internal/robust"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.jsonl from the current code")

const goldenPath = "testdata/golden.jsonl"

// goldenEntry is one line of the corpus. Totals are the body's headline
// numbers (prediction total and worst, bound lower and upper, or the
// envelope's nominal and p50s), kept only so -update can say how an
// entry moved; the hash is what the test compares.
type goldenEntry struct {
	Request json.RawMessage `json:"request"`
	SHA256  string          `json:"sha256"`
	Totals  []float64       `json:"totals"`
}

// goldenRequests is the corpus definition, in file order.
func goldenRequests() []Request {
	machines := []Machine{
		{}, // meiko-cs2 by default
		{Preset: "cluster"},
		{Preset: "low-overhead"},
		{Preset: "uniform"},
		{L: 7.5, O: 1.25, Gap: 9, G: 0.04},
	}
	geLayouts := []string{"diagonal", "row", "col", "2d"}
	var workloads []Workload
	for i, lay := range geLayouts {
		workloads = append(workloads, Workload{Kind: KindGE, Procs: 4 + 4*(i%2), N: 96, Block: 8 + 4*(i%3), Layout: lay})
	}
	for i, name := range []string{"figure3", "ring", "alltoall", "gather", "scatter", "random", "hypercube"} {
		procs := []int{10, 6, 8, 12, 9, 16, 8}[i]
		workloads = append(workloads, Workload{Kind: KindPattern, Procs: procs, Pattern: name, Bytes: 64 << (i % 4)})
	}

	var reqs []Request
	// Simulate: every workload on every machine, seeds rotating.
	for wi, w := range workloads {
		for mi, m := range machines {
			reqs = append(reqs, Request{Mode: ModeSimulate, Workload: w, Machine: m, Seed: int64((wi + mi) % 3)})
		}
	}
	// Worst case and analyze: every workload on two machines.
	for wi, w := range workloads {
		for _, mi := range []int{wi % len(machines), (wi + 2) % len(machines)} {
			reqs = append(reqs, Request{Mode: ModeWorstCase, Workload: w, Machine: machines[mi], Seed: int64(mi % 3)})
			reqs = append(reqs, Request{Mode: ModeAnalyze, Workload: w, Machine: machines[mi], Seed: int64(mi % 3)})
		}
	}
	// Fault plans on simulate and worst case, every seed.
	plans := []string{
		"drop=0.05,retries=12",
		"jitter=0.2,stragglers=1,factor=2.5",
		"drop=0.02,degrade=0:400:2:1.5,seed=7",
	}
	for pi, plan := range plans {
		for seed := int64(0); seed < 3; seed++ {
			w := workloads[int(seed)%len(geLayouts)]
			mode := ModeSimulate
			if (pi+int(seed))%2 == 1 {
				mode = ModeWorstCase
			}
			reqs = append(reqs, Request{Mode: mode, Workload: w, Machine: machines[pi], Seed: seed, Faults: plan})
		}
		reqs = append(reqs, Request{Mode: ModeSimulate, Workload: workloads[len(geLayouts)+1+pi], Seed: int64(pi), Faults: plan})
	}
	// Envelopes: every GE layout, with and without a perturbation, and
	// under a fault plan.
	for wi, w := range workloads[:len(geLayouts)] {
		for seed := int64(0); seed < 3; seed++ {
			r := Request{Mode: ModeEnvelope, Workload: w, Machine: machines[(wi+int(seed))%len(machines)], Seed: seed, Samples: 6}
			if seed > 0 {
				r.Perturb = robust.Perturb{L: 0.2, O: 0.05 * float64(seed), Gap: 0.1, G: 0.15}
			}
			reqs = append(reqs, r)
		}
		reqs = append(reqs, Request{Mode: ModeEnvelope, Workload: w, Seed: int64(wi % 3), Samples: 5,
			Perturb: robust.Perturb{L: 0.1}, Faults: plans[wi%len(plans)]})
	}
	return reqs
}

// goldenServer is the one handler every corpus line goes through: a
// single worker, no result cache (every line evaluates), and a deadline
// generous enough that no answer degrades on a slow or race-built run.
func goldenServer() http.Handler {
	return NewServer(Config{Workers: 1, CacheOff: true, DefaultDeadline: 5 * time.Minute, MaxDeadline: 5 * time.Minute}).Handler()
}

// goldenAnswer posts one canonical request and returns the body's hash
// and headline numbers; a non-200 or degraded answer is an error (the
// corpus holds only requests that answer in full).
func goldenAnswer(h http.Handler, body []byte) (string, []float64, error) {
	req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return "", nil, fmt.Errorf("status %d: %s", w.Code, w.Body.String())
	}
	var resp Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		return "", nil, err
	}
	if resp.Degraded {
		return "", nil, fmt.Errorf("degraded answer (%s): %s", resp.DegradeReason, w.Body.String())
	}
	var totals []float64
	switch {
	case resp.Prediction != nil:
		totals = []float64{resp.Prediction.TotalMicros, resp.Prediction.WorstMicros}
	case resp.Envelope != nil:
		totals = []float64{resp.Envelope.Nominal, resp.Envelope.Total.P50, resp.Envelope.Worst.P50}
	case resp.Bounds != nil:
		totals = []float64{resp.Bounds.LowerMicros, resp.Bounds.UpperMicros}
	}
	sum := sha256.Sum256(w.Body.Bytes())
	return hex.EncodeToString(sum[:]), totals, nil
}

func readGolden(t *testing.T) []goldenEntry {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	var out []goldenEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var e goldenEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("%s line %d: %v", goldenPath, len(out)+1, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenCorpus drives every corpus line through one in-process
// handler and demands the body hash recorded in the file.
func TestGoldenCorpus(t *testing.T) {
	h := goldenServer()
	if *update {
		updateGolden(t, h)
		return
	}
	entries := readGolden(t)
	if want := len(goldenRequests()); len(entries) != want {
		t.Fatalf("%s holds %d entries, goldenRequests defines %d; regenerate with -update", goldenPath, len(entries), want)
	}
	for i, e := range entries {
		sum, totals, err := goldenAnswer(h, e.Request)
		if err != nil {
			t.Errorf("line %d %s: %v", i+1, e.Request, err)
			continue
		}
		if sum != e.SHA256 {
			t.Errorf("line %d %s: body moved: totals %v, recorded %v", i+1, e.Request, totals, e.Totals)
		}
	}
}

// updateGolden rewrites the corpus file and reports every entry whose
// body moved against the previous file (matched by request).
func updateGolden(t *testing.T, h http.Handler) {
	old := map[string]goldenEntry{}
	if _, err := os.Stat(goldenPath); err == nil {
		for _, e := range readGolden(t) {
			old[string(e.Request)] = e
		}
	}
	var buf bytes.Buffer
	moved := 0
	for i, r := range goldenRequests() {
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sum, totals, err := goldenAnswer(h, body)
		if err != nil {
			t.Fatalf("request %d %s: %v", i, body, err)
		}
		if prev, ok := old[string(body)]; ok && prev.SHA256 != sum {
			moved++
			fmt.Printf("moved: %s\n  old totals %v\n  new totals %v\n", body, prev.Totals, totals)
		}
		line, err := json.Marshal(goldenEntry{Request: body, SHA256: sum, Totals: totals})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("golden corpus: %d entries written, %d moved\n", len(goldenRequests()), moved)
}
