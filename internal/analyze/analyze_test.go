package analyze_test

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"loggpsim/internal/analyze"
	"loggpsim/internal/blockops"
	"loggpsim/internal/cost"
	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
	"loggpsim/internal/trace"
)

var testParams = loggp.Params{L: 9, O: 2, Gap: 16, G: 0.07, P: 16}

// codes extracts the issue codes for order-insensitive matching.
func codes(is analyze.Issues) []string {
	out := make([]string, len(is))
	for i, issue := range is {
		out[i] = issue.Code
	}
	slices.Sort(out)
	return out
}

func TestCheckCleanPattern(t *testing.T) {
	r := analyze.Check(trace.Gather(8, 0, 128), testParams)
	if len(r.Issues) != 0 {
		t.Fatalf("unexpected issues: %v", r.Issues)
	}
	if !r.DeadlockFree || r.WitnessCycle != nil {
		t.Fatalf("gather is acyclic, got deadlock-free=%v cycle=%v", r.DeadlockFree, r.WitnessCycle)
	}
	if r.NetworkMessages != 7 || r.LocalMessages != 0 || r.NetworkBytes != 7*128 {
		t.Fatalf("traffic summary: %+v", r)
	}
	if r.MaxInDegree != 7 || r.MaxOutDegree != 1 {
		t.Fatalf("degrees: in %d out %d", r.MaxInDegree, r.MaxOutDegree)
	}
	if r.Bounds == nil || r.Bounds.Lower <= 0 || r.Bounds.Upper < r.Bounds.Lower {
		t.Fatalf("bounds: %+v", r.Bounds)
	}
}

func TestCheckAccumulatesAllViolations(t *testing.T) {
	pt := trace.New(4)
	pt.Add(-1, 2, 64) // src-range
	pt.Add(0, 9, 64)  // dst-range
	pt.Add(1, 2, 0)   // bytes
	pt.Add(3, 3, 8)   // self-send without AllowLocal
	pt.Add(0, 1, 32)  // fine
	r := analyze.Check(pt, testParams)
	want := []string{"bytes", "dst-range", "self-send", "src-range"}
	if got := codes(r.Issues.Errs()); !slices.Equal(got, want) {
		t.Fatalf("error codes: got %v, want %v", got, want)
	}
	if r.Bounds != nil {
		t.Fatal("bounds computed for invalid pattern")
	}
	err := r.Issues.Err()
	if err == nil {
		t.Fatal("Err() nil despite errors")
	}
	for _, frag := range []string{"src -1", "dst 9", "size 0", "self message 3->3"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("joined error misses %q:\n%v", frag, err)
		}
	}
}

func TestCheckWitnessCycle(t *testing.T) {
	pt := trace.New(6)
	pt.Add(0, 1, 8) // feeder, not part of the cycle
	pt.Add(2, 3, 8)
	pt.Add(3, 4, 8)
	pt.Add(4, 2, 8)
	r := analyze.Check(pt, testParams)
	if r.DeadlockFree {
		t.Fatal("cycle not detected")
	}
	if len(r.WitnessCycle) != 3 {
		t.Fatalf("witness cycle %v, want the minimal 3-cycle", r.WitnessCycle)
	}
	for _, q := range r.WitnessCycle {
		if q < 2 || q > 4 {
			t.Fatalf("witness cycle %v strays outside {2,3,4}", r.WitnessCycle)
		}
	}
	// Deadlock is a warning — cyclic patterns are legal scheduler inputs
	// (the worst-case scheduler breaks them randomly) — so the bounds
	// still certify and Err() stays nil.
	if got := codes(r.Issues); !slices.Equal(got, []string{"deadlock"}) {
		t.Fatalf("issues: %v", r.Issues)
	}
	if r.Issues.Err() != nil {
		t.Fatalf("deadlock warning escalated to error: %v", r.Issues.Err())
	}
	if r.Bounds == nil {
		t.Fatal("bounds withheld from a legal cyclic pattern")
	}
}

func TestCheckProgram(t *testing.T) {
	pr := program.New(3)
	s0 := pr.AddStep()
	s0.AddOp(0, blockops.Op1, 24)
	s0.Comm.Add(0, 1, 64).Add(1, 2, 64)
	s1 := pr.AddStep() // empty-step warning
	_ = s1
	s2 := pr.AddStep()
	s2.AddOp(1, blockops.Op(99), 24)    // op-range
	s2.AddOp(2, blockops.Op2, 0)        // block-size
	s2.Comm.Add(0, 1, 64).Add(1, 0, 64) // cycle warning

	r := analyze.CheckProgram(pr, testParams, cost.DefaultAnalytic())
	if r.P != 3 || r.Steps != 3 {
		t.Fatalf("shape: %+v", r)
	}
	want := []string{"block-size", "op-range"}
	if got := codes(r.Issues.Errs()); !slices.Equal(got, want) {
		t.Fatalf("error codes: got %v, want %v", got, want)
	}
	var warns []string
	for _, i := range r.Issues {
		if i.Severity == analyze.Warning {
			warns = append(warns, i.Code)
		}
	}
	slices.Sort(warns)
	if !slices.Equal(warns, []string{"deadlock", "empty-step"}) {
		t.Fatalf("warnings: %v", warns)
	}
	if r.DeadlockFree {
		t.Fatal("step 2 cycle missed at program level")
	}
	if len(r.StepReports) != 3 {
		t.Fatalf("step reports: %d", len(r.StepReports))
	}
	if !r.StepReports[0].DeadlockFree || r.StepReports[2].DeadlockFree {
		t.Fatalf("per-step verdicts wrong: %+v", r.StepReports)
	}
	if r.Bounds != nil {
		t.Fatal("bounds computed despite structural errors")
	}
	for _, i := range r.Issues {
		if i.Code == "op-range" && i.Step != 2 {
			t.Fatalf("op-range attributed to step %d", i.Step)
		}
	}
}

func TestCheckProgramCleanComputesBounds(t *testing.T) {
	pr := program.New(2)
	s := pr.AddStep()
	s.AddOp(0, blockops.Op1, 24)
	s.AddOp(1, blockops.Op2, 24)
	s.Comm.Add(0, 1, 512)
	r := analyze.CheckProgram(pr, testParams, cost.DefaultAnalytic())
	if err := r.Issues.Err(); err != nil {
		t.Fatalf("unexpected: %v", err)
	}
	if !r.DeadlockFree {
		t.Fatal("single send flagged as deadlock")
	}
	if r.Bounds == nil || len(r.Bounds.PerStep) != 1 {
		t.Fatalf("bounds: %+v", r.Bounds)
	}
	// The single-step program's chained bounds include the computation
	// phase, so they dominate the communication-only step certificate.
	if sb := r.StepReports[0].Bounds; sb == nil || r.Bounds.Lower < sb.Lower {
		t.Fatalf("program bounds %+v vs step bounds %+v", r.Bounds, sb)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r := analyze.Check(trace.New(3).Add(1, 1, 4), testParams)
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"severity":"error"`) {
		t.Fatalf("severity not marshaled as text: %s", blob)
	}
	var back analyze.PatternReport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back.Issues) != len(r.Issues) {
		t.Fatalf("round trip lost issues: %s", blob)
	}
}
