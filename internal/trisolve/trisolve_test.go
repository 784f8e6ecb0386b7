package trisolve

import (
	"math"
	"testing"
	"testing/quick"

	"loggpsim/internal/blockops"
	"loggpsim/internal/cost"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/matrix"
	"loggpsim/internal/predictor"
)

func TestNewGrid(t *testing.T) {
	g, err := NewGrid(48, 8)
	if err != nil || g.NB != 6 || g.N() != 48 {
		t.Fatalf("NewGrid = %+v, %v", g, err)
	}
	if _, err := NewGrid(48, 7); err == nil {
		t.Fatal("non-dividing block accepted")
	}
	if _, err := NewGrid(0, 8); err == nil {
		t.Fatal("zero size accepted")
	}
}

func maxAbsDiffVec(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestSolveBlockedMatchesReference(t *testing.T) {
	for _, tc := range []struct{ n, b int }{{8, 8}, {8, 4}, {24, 4}, {30, 5}, {12, 1}} {
		l := RandomLower(tc.n, int64(tc.n))
		rhs := make([]float64, tc.n)
		for i := range rhs {
			rhs[i] = float64(i) - 3.5
		}
		want, err := SolveReference(l, rhs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveBlocked(l, rhs, tc.b)
		if err != nil {
			t.Fatalf("n=%d b=%d: %v", tc.n, tc.b, err)
		}
		if d := maxAbsDiffVec(got, want); d > 1e-9 {
			t.Errorf("n=%d b=%d: blocked solve differs by %g", tc.n, tc.b, d)
		}
		// Residual check: L·y must reproduce rhs.
		for i := 0; i < tc.n; i++ {
			s := 0.0
			for k := 0; k <= i; k++ {
				s += l.At(i, k) * got[k]
			}
			if math.Abs(s-rhs[i]) > 1e-8 {
				t.Fatalf("n=%d b=%d: residual %g at row %d", tc.n, tc.b, s-rhs[i], i)
			}
		}
	}
}

func TestSolveErrors(t *testing.T) {
	l := RandomLower(8, 1)
	if _, err := SolveBlocked(l, make([]float64, 5), 4); err == nil {
		t.Fatal("wrong rhs length accepted")
	}
	if _, err := SolveBlocked(l, make([]float64, 8), 3); err == nil {
		t.Fatal("non-dividing block accepted")
	}
	zero := RandomLower(4, 2)
	zero.Set(2, 2, 0)
	if _, err := SolveBlocked(zero, make([]float64, 4), 2); err == nil {
		t.Fatal("zero diagonal accepted")
	}
	if _, err := SolveReference(zero, make([]float64, 4)); err == nil {
		t.Fatal("reference accepted zero diagonal")
	}
}

func TestBuildProgramShape(t *testing.T) {
	g, err := NewGrid(48, 8) // 6 block rows
	if err != nil {
		t.Fatal(err)
	}
	lay := layout.RowCyclic(3)
	pr, err := BuildProgram(g, lay)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(pr.Steps) != g.NB {
		t.Fatalf("steps = %d, want %d", len(pr.Steps), g.NB)
	}
	st := pr.Summarize()
	if st.Ops[blockops.Op5] != g.NB {
		t.Fatalf("Op5 count = %d, want %d", st.Ops[blockops.Op5], g.NB)
	}
	if want := g.NB * (g.NB - 1) / 2; st.Ops[blockops.Op6] != want {
		t.Fatalf("Op6 count = %d, want %d", st.Ops[blockops.Op6], want)
	}
	if st.Ops[blockops.Op1] != 0 || st.Ops[blockops.Op4] != 0 {
		t.Fatal("triangular solve must use only Op5 and Op6")
	}
	// Messages are vector segments.
	for _, s := range pr.Steps {
		for _, m := range s.Comm.Msgs {
			if int(m.Bytes) != blockops.VecBytes(g.B) {
				t.Fatalf("message of %d bytes, want %d", m.Bytes, blockops.VecBytes(g.B))
			}
		}
	}
	// Step 0 broadcasts to each distinct owner of rows 1..5: owners are
	// {1, 2, 0, 1, 2} under 3-cyclic, so three messages, one of them a
	// self message (owner 0 co-owns row 3).
	if got := len(pr.Steps[0].Comm.Msgs); got != 3 {
		t.Fatalf("step 0 messages = %d, want 3 (deduplicated broadcast)", got)
	}
	self := 0
	for _, m := range pr.Steps[0].Comm.Msgs {
		if m.Src == m.Dst {
			self++
		}
	}
	if self != 1 {
		t.Fatalf("step 0 self messages = %d, want 1", self)
	}
	// Last step has no communication.
	if len(pr.Steps[g.NB-1].Comm.Msgs) != 0 {
		t.Fatal("last step communicates")
	}
}

func TestPredictTriSolve(t *testing.T) {
	g, err := NewGrid(480, 16) // 30 block rows
	if err != nil {
		t.Fatal(err)
	}
	pr, err := BuildProgram(g, layout.RowCyclic(8))
	if err != nil {
		t.Fatal(err)
	}
	p, err := predictor.Predict(pr, predictor.Config{
		Params: loggp.MeikoCS2(8),
		Cost:   cost.DefaultAnalytic(),
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Total <= 0 || p.Comp <= 0 || p.Comm <= 0 {
		t.Fatalf("prediction not positive: %+v", p)
	}
	// The solve is latency-bound: its critical path is nb rounds of
	// solve + broadcast, so communication is a large share.
	if p.Comm < 0.2*p.Total {
		t.Errorf("comm share %.2f suspiciously low for a broadcast-per-step solve",
			p.Comm/p.Total)
	}
}

// Property: blocked solve equals the reference for random orders, block
// sizes and contents.
func TestSolveProperty(t *testing.T) {
	f := func(seed int64, nbRaw, bRaw uint8) bool {
		nb := int(nbRaw%6) + 1
		b := int(bRaw%5) + 1
		n := nb * b
		l := RandomLower(n, seed)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = float64((seed+int64(i))%11) - 5
		}
		want, err := SolveReference(l, rhs)
		if err != nil {
			return false
		}
		got, err := SolveBlocked(l, rhs, b)
		if err != nil {
			return false
		}
		return maxAbsDiffVec(got, want) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualSolveNumericsAndTime(t *testing.T) {
	const n, b = 96, 8
	params := loggp.MeikoCS2(4)
	model := cost.DefaultAnalytic()
	lay := layout.RowCyclic(4)
	l := RandomLower(n, 9)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%13) - 6
	}
	want, err := SolveReference(l, rhs)
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := VirtualSolve(l, rhs, b, lay, params, model)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiffVec(got, want); d > 1e-9 {
		t.Fatalf("virtual solve differs from reference by %g", d)
	}
	if err := res.Timeline.Verify(params); err != nil {
		t.Fatalf("runtime timeline invalid: %v", err)
	}
	// Compare with the pattern-replay prediction of the same schedule.
	g, err := NewGrid(n, b)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := BuildProgram(g, lay)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predictor.Predict(pr, predictor.Config{Params: params, Cost: model, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish < 0.5*pred.Total || res.Finish > 1.5*pred.TotalWorst {
		t.Fatalf("virtual time %g far from predictions (standard %g, worst %g)",
			res.Finish, pred.Total, pred.TotalWorst)
	}
	t.Logf("virtual %g vs standard %g vs worst %g", res.Finish, pred.Total, pred.TotalWorst)
}

func TestVirtualSolveSingleProcessor(t *testing.T) {
	const n, b = 24, 4
	l := RandomLower(n, 2)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	lay := layout.RowCyclic(1)
	got, res, err := VirtualSolve(l, rhs, b, lay, loggp.MeikoCS2(1), cost.DefaultAnalytic())
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveReference(l, rhs)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiffVec(got, want); d > 1e-9 {
		t.Fatalf("single-processor virtual solve differs by %g", d)
	}
	if res.Timeline.Sends() != 0 {
		t.Fatal("single processor sent network messages")
	}
}

func TestVirtualSolveErrors(t *testing.T) {
	params := loggp.MeikoCS2(2)
	model := cost.DefaultAnalytic()
	lay := layout.RowCyclic(2)
	if _, _, err := VirtualSolve(matrix.New(4, 6), make([]float64, 4), 2, lay, params, model); err == nil {
		t.Error("non-square accepted")
	}
	if _, _, err := VirtualSolve(RandomLower(8, 1), make([]float64, 5), 4, lay, params, model); err == nil {
		t.Error("wrong rhs length accepted")
	}
	if _, _, err := VirtualSolve(RandomLower(8, 1), make([]float64, 8), 3, lay, params, model); err == nil {
		t.Error("non-dividing block accepted")
	}
	if _, _, err := VirtualSolve(RandomLower(8, 1), make([]float64, 8), 4, lay, params, nil); err == nil {
		t.Error("nil model accepted")
	}
	singular := RandomLower(8, 1)
	singular.Set(5, 5, 0)
	if _, _, err := VirtualSolve(singular, make([]float64, 8), 4, lay, params, model); err == nil {
		t.Error("singular diagonal accepted")
	}
}
