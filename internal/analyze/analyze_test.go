package analyze_test

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"loggpsim/internal/analyze"
	"loggpsim/internal/blockops"
	"loggpsim/internal/cost"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
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
	// Message sizes are int32; the byte total is summed in int.
	big := trace.New(2).Add(0, 1, math.MaxInt32).Add(1, 0, math.MaxInt32).Add(0, 1, math.MaxInt32)
	if got := analyze.Check(big, testParams).NetworkBytes; got != 3*math.MaxInt32 {
		t.Fatalf("network bytes %d, want %d", got, 3*math.MaxInt32)
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
	// The computation errors leave every pattern sound, so each step
	// still carries its standalone certificate, the walk oracle's.
	for i, s := range pr.Steps {
		want := analyze.WalkPattern(s.Comm, testParams)
		if got := r.StepReports[i].Bounds; got == nil || !reflect.DeepEqual(*got, want) {
			t.Fatalf("step %d bounds %+v, want the walk's %+v", i, got, want)
		}
	}
}

// TestCheckProgramMatchesWalk checks both of CheckProgram's certificate
// paths against the walk oracle. A sound program prices every step's
// standalone certificate and, given a cost model, the chained program
// certificate from one shape; a program with errors certifies each sound
// step on its own, and nothing else.
func TestCheckProgramMatchesWalk(t *testing.T) {
	model := cost.DefaultAnalytic()
	for name, pr := range boundPrograms(t) {
		for pi, params := range append(boundParams(pr.P), loggp.MeikoCS2(pr.P)) {
			r := analyze.CheckProgram(pr, params, model)
			if want := analyze.WalkProgram(pr, params, model); !reflect.DeepEqual(r.Bounds, want) {
				t.Fatalf("%s/m%d: program bounds diverge from the walk:\nwant %+v\ngot  %+v", name, pi, want, r.Bounds)
			}
			for i, s := range pr.Steps {
				want := analyze.WalkPattern(s.Comm, params)
				if got := r.StepReports[i].Bounds; got == nil || !reflect.DeepEqual(*got, want) {
					t.Fatalf("%s/m%d: step %d bounds %+v, want the walk's %+v", name, pi, i, got, want)
				}
			}
			nr := analyze.CheckProgram(pr, params, nil)
			if nr.Bounds != nil || !reflect.DeepEqual(nr.StepReports, r.StepReports) {
				t.Fatalf("%s/m%d: without a model, want the same step reports and no program bounds", name, pi)
			}
		}
	}

	pr := boundPrograms(t)["trisolve"]
	pr.Steps[0].AddOp(0, blockops.Op(99), 8)           // op-range: the program is unsound
	pr.Steps[1].Comm = trace.New(pr.P).Add(0, pr.P, 8) // dst-range: so is this step
	pr.Steps[2].Comm = nil                             // nil-comm: no pattern to certify
	params := loggp.MeikoCS2(pr.P)
	r := analyze.CheckProgram(pr, params, model)
	if r.Bounds != nil {
		t.Fatal("program bounds computed despite structural errors")
	}
	for i, s := range pr.Steps {
		got := r.StepReports[i].Bounds
		if i == 1 || i == 2 {
			if got != nil {
				t.Fatalf("step %d: bounds %+v for an unsound step", i, got)
			}
			continue
		}
		if want := analyze.WalkPattern(s.Comm, params); got == nil || !reflect.DeepEqual(*got, want) {
			t.Fatalf("step %d bounds %+v, want the walk's %+v", i, got, want)
		}
	}
}

// TestCheckProgramMemoryIsStepSized certifies the N=960 b=8 diagonal
// GE program (358 steps, 1.15 M messages, at most 7,200 in one step)
// and bounds the bytes allocated: a report per step, the deadlock
// search's scratch reused across steps and the pricer's sized for the
// largest step. A fresh search per step allocated 9.3 MiB here.
func TestCheckProgramMemoryIsStepSized(t *testing.T) {
	g, err := ge.NewGrid(960, 8)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ge.BuildProgram(g, layout.Diagonal(8, g.NB))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := analyze.CheckProgram(pr, loggp.MeikoCS2(8), cost.DefaultAnalytic())
	runtime.ReadMemStats(&after)
	if r.Bounds == nil {
		t.Fatalf("no certificate: %v", r.Issues)
	}
	const limit = 2 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("CheckProgram allocated %.1f MiB, want under %.0f MiB",
			float64(got)/(1<<20), float64(limit)/(1<<20))
	} else {
		t.Logf("CheckProgram allocated %.2f MiB", float64(got)/(1<<20))
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
