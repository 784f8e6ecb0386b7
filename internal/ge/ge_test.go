package ge

import (
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
	g, err := NewGrid(96, 8)
	if err != nil || g.NB != 12 || g.B != 8 || g.N() != 96 {
		t.Fatalf("NewGrid(96,8) = %+v, %v", g, err)
	}
	if _, err := NewGrid(96, 7); err == nil {
		t.Fatal("non-dividing block size accepted")
	}
	if _, err := NewGrid(0, 4); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewGrid(8, -1); err == nil {
		t.Fatal("negative block accepted")
	}
}

func TestWaves(t *testing.T) {
	g := Grid{NB: 4, B: 8}
	if g.Waves() != 10 { // 3*(4-1)+1
		t.Fatalf("Waves = %d, want 10", g.Waves())
	}
	if (Grid{NB: 1, B: 8}).Waves() != 1 {
		t.Fatal("single-block grid must have one wave")
	}
}

func TestOpFor(t *testing.T) {
	tests := []struct {
		i, j, k int
		want    blockops.Op
	}{
		{0, 0, 0, blockops.Op1},
		{2, 2, 2, blockops.Op1},
		{1, 3, 1, blockops.Op2},
		{3, 1, 1, blockops.Op3},
		{2, 3, 1, blockops.Op4},
	}
	for _, tt := range tests {
		if got := OpFor(tt.i, tt.j, tt.k); got != tt.want {
			t.Errorf("OpFor(%d,%d,%d) = %v, want %v", tt.i, tt.j, tt.k, got, tt.want)
		}
	}
}

func TestSequentialBlockedMatchesElementwise(t *testing.T) {
	for _, tc := range []struct{ n, b int }{
		{8, 8},  // single block: pure Op1
		{8, 4},  // 2x2 blocks
		{24, 4}, // 6x6 blocks
		{30, 5},
		{12, 1}, // element-sized blocks
	} {
		a := matrix.Random(tc.n, int64(tc.n+tc.b))
		ref := a.Clone()
		if err := matrix.LUInPlace(ref); err != nil {
			t.Fatal(err)
		}
		got := a.Clone()
		if err := SequentialBlocked(got, tc.b); err != nil {
			t.Fatalf("n=%d b=%d: %v", tc.n, tc.b, err)
		}
		if res := matrix.MaxAbsDiff(got, ref); res > 1e-8 {
			t.Errorf("n=%d b=%d: blocked LU differs from reference by %g", tc.n, tc.b, res)
		}
		if res := matrix.LUResidual(a, got); res > 1e-8 {
			t.Errorf("n=%d b=%d: residual %g", tc.n, tc.b, res)
		}
	}
}

func TestSequentialBlockedErrors(t *testing.T) {
	if err := SequentialBlocked(matrix.New(4, 6), 2); err == nil {
		t.Fatal("non-square matrix accepted")
	}
	if err := SequentialBlocked(matrix.New(4, 4), 3); err == nil {
		t.Fatal("non-dividing block accepted")
	}
	if err := SequentialBlocked(matrix.New(4, 4), 2); err == nil {
		t.Fatal("singular (all-zero) matrix factored without error")
	}
}

func TestParallelFactorMatchesSequential(t *testing.T) {
	const n, b = 48, 4 // 12x12 blocks
	layouts := []layout.Layout{
		layout.Custom(1, "serial", func(int, int) int { return 0 }),
		layout.RowCyclic(8),
		layout.ColCyclic(3),
		layout.Diagonal(8, n/b),
		layout.BlockCyclic2D(2, 4),
	}
	a := matrix.Random(n, 77)
	want := a.Clone()
	if err := SequentialBlocked(want, b); err != nil {
		t.Fatal(err)
	}
	for _, lay := range layouts {
		got := a.Clone()
		if err := ParallelFactor(got, b, lay); err != nil {
			t.Fatalf("%s: %v", lay.Name(), err)
		}
		if res := matrix.MaxAbsDiff(got, want); res > 1e-9 {
			t.Errorf("%s: parallel result differs from sequential by %g", lay.Name(), res)
		}
	}
}

func TestParallelFactorSingularPropagatesError(t *testing.T) {
	a := matrix.New(8, 8) // singular
	if err := ParallelFactor(a, 4, layout.RowCyclic(2)); err == nil {
		t.Fatal("singular matrix factored without error")
	}
}

func TestBuildProgramShape(t *testing.T) {
	const nb, b = 4, 8
	g := Grid{NB: nb, B: b}
	lay := layout.Diagonal(3, nb)
	pr, err := BuildProgram(g, lay)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(pr.Steps) != g.Waves() {
		t.Fatalf("steps = %d, want %d", len(pr.Steps), g.Waves())
	}
	st := pr.Summarize()
	// Total ops: sum over k of (nb-k)^2 = 16+9+4+1.
	totalOps := 0
	for _, c := range st.Ops {
		totalOps += c
	}
	if totalOps != 30 {
		t.Fatalf("total ops = %d, want 30", totalOps)
	}
	if st.Ops[blockops.Op1] != nb {
		t.Fatalf("Op1 count = %d, want %d", st.Ops[blockops.Op1], nb)
	}
	// Op2 and Op3: sum over k of (nb-1-k) each = 3+2+1 = 6.
	if st.Ops[blockops.Op2] != 6 || st.Ops[blockops.Op3] != 6 {
		t.Fatalf("panel op counts = %d/%d, want 6/6", st.Ops[blockops.Op2], st.Ops[blockops.Op3])
	}
	if st.Ops[blockops.Op4] != 14 { // 9+4+1
		t.Fatalf("Op4 count = %d, want 14", st.Ops[blockops.Op4])
	}
	// First wave: exactly the Op1 of block (0,0) and its two sends.
	first := pr.Steps[0]
	if len(first.Comp[lay.Owner(0, 0)]) != 1 || len(first.Comm.Msgs) != 2 {
		t.Fatalf("first wave: %d ops, %d msgs", len(first.Comp[lay.Owner(0, 0)]), len(first.Comm.Msgs))
	}
	// Last wave: the Op1 of block (nb-1, nb-1) and no sends.
	last := pr.Steps[len(pr.Steps)-1]
	if len(last.Comm.Msgs) != 0 {
		t.Fatalf("last wave has %d messages", len(last.Comm.Msgs))
	}
	// Every message carries one block.
	for _, s := range pr.Steps {
		for _, m := range s.Comm.Msgs {
			if m.Bytes != blockops.BlockBytes(b) {
				t.Fatalf("message of %d bytes, want %d", m.Bytes, blockops.BlockBytes(b))
			}
		}
	}
}

func TestBuildProgramRowCyclicRowTransfersAreLocal(t *testing.T) {
	// The paper: under the row-stripped cyclic layout, row-wise
	// propagation involves no message transfer. Every rightward send
	// must be a self message; every downward send between distinct rows
	// must cross the network (P > 1 and nb <= P here, so adjacent rows
	// never share a processor).
	g := Grid{NB: 4, B: 8}
	lay := layout.RowCyclic(8)
	pr, err := BuildProgram(g, lay)
	if err != nil {
		t.Fatal(err)
	}
	st := pr.Summarize()
	// Rightward sends: for each active (i,j,k) with j+1<nb. Count them:
	// local messages must equal exactly the rightward sends.
	wantLocal := 0
	wantNet := 0
	for t2 := 0; t2 < g.Waves(); t2++ {
		g.active(t2, func(i, j, k int) {
			if j+1 < g.NB {
				wantLocal++
			}
			if i+1 < g.NB {
				wantNet++
			}
		})
	}
	if st.LocalMessages != wantLocal {
		t.Fatalf("local messages = %d, want %d (all rightward sends)", st.LocalMessages, wantLocal)
	}
	if st.NetworkMessages != wantNet {
		t.Fatalf("network messages = %d, want %d (all downward sends)", st.NetworkMessages, wantNet)
	}
}

func TestBuildProgramDiagonalHasFewerNetworkMessagesThanColumnCyclic(t *testing.T) {
	// Sanity cross-check of traffic accounting: diagonal mapping sends
	// some messages locally (lower-right coincidences) so its network
	// count is below the everything-remote worst case.
	g := Grid{NB: 12, B: 8}
	diag, err := BuildProgram(g, layout.Diagonal(8, g.NB))
	if err != nil {
		t.Fatal(err)
	}
	if diag.Summarize().LocalMessages == 0 {
		t.Fatal("diagonal mapping produced no local transfers; expected some")
	}
}

func TestActiveEnumerationCoversEveryUpdateOnce(t *testing.T) {
	g := Grid{NB: 5, B: 4}
	seen := map[[3]int]int{}
	for t2 := 0; t2 < g.Waves(); t2++ {
		g.active(t2, func(i, j, k int) {
			seen[[3]int{i, j, k}]++
			if k != t2-i-j {
				t.Fatalf("wave %d delivered (%d,%d,%d)", t2, i, j, k)
			}
		})
	}
	for i := 0; i < g.NB; i++ {
		for j := 0; j < g.NB; j++ {
			kMax := i
			if j < i {
				kMax = j
			}
			for k := 0; k <= kMax; k++ {
				if seen[[3]int{i, j, k}] != 1 {
					t.Fatalf("update (%d,%d,%d) enumerated %d times", i, j, k, seen[[3]int{i, j, k}])
				}
			}
		}
	}
	total := 0
	for _, c := range seen {
		total += c
	}
	want := 0
	for k := 0; k < g.NB; k++ {
		want += (g.NB - k) * (g.NB - k)
	}
	if total != want {
		t.Fatalf("total updates %d, want %d", total, want)
	}
}

// Property: the parallel executor agrees with the sequential blocked
// reference for random shapes, block sizes and layouts.
func TestParallelFactorProperty(t *testing.T) {
	f := func(seed int64, nbRaw, bRaw, pRaw uint8) bool {
		nb := int(nbRaw%6) + 1
		b := int(bRaw%4) + 1
		p := int(pRaw%7) + 1
		n := nb * b
		a := matrix.Random(n, seed)
		want := a.Clone()
		if err := SequentialBlocked(want, b); err != nil {
			return false
		}
		got := a.Clone()
		if err := ParallelFactor(got, b, layout.Diagonal(p, nb)); err != nil {
			return false
		}
		return matrix.MaxAbsDiff(got, want) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualFactorNumericsAndTime(t *testing.T) {
	const n, b = 96, 8
	params := loggp.MeikoCS2(8)
	model := cost.DefaultAnalytic()
	lay := layout.Diagonal(8, n/b)

	a := matrix.Random(n, 5)
	want := a.Clone()
	if err := SequentialBlocked(want, b); err != nil {
		t.Fatal(err)
	}
	got := a.Clone()
	res, err := VirtualFactor(got, b, lay, params, model)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("virtual factorization differs from sequential by %g", d)
	}
	if err := res.Timeline.Verify(params); err != nil {
		t.Fatalf("runtime timeline invalid: %v", err)
	}

	// The direct-execution time is a third estimate; it must land in the
	// same regime as the pattern-replay predictions (the schedules
	// differ — receive-on-demand versus receive-priority — so exact
	// equality is not expected).
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
	lo, hi := 0.7*pred.Total, 1.3*pred.TotalWorst
	if res.Finish < lo || res.Finish > hi {
		t.Fatalf("virtual time %g outside [%g, %g] (standard %g, worst %g)",
			res.Finish, lo, hi, pred.Total, pred.TotalWorst)
	}
	t.Logf("virtual %g vs standard %g vs worst %g", res.Finish, pred.Total, pred.TotalWorst)
}

func TestVirtualFactorErrors(t *testing.T) {
	params := loggp.MeikoCS2(4)
	model := cost.DefaultAnalytic()
	if _, err := VirtualFactor(matrix.New(4, 6), 2, layout.RowCyclic(2), params, model); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := VirtualFactor(matrix.New(8, 8), 3, layout.RowCyclic(2), params, model); err == nil {
		t.Error("non-dividing block accepted")
	}
	if _, err := VirtualFactor(matrix.Random(8, 1), 4, layout.RowCyclic(2), params, nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := VirtualFactor(matrix.New(8, 8), 4, layout.RowCyclic(2), params, model); err == nil {
		t.Error("singular matrix factored without error")
	}
}

func TestPredictorStepProfile(t *testing.T) {
	g := Grid{NB: 6, B: 8}
	pr, err := BuildProgram(g, layout.Diagonal(4, g.NB))
	if err != nil {
		t.Fatal(err)
	}
	p, err := predictor.Predict(pr, predictor.Config{
		Params: loggp.MeikoCS2(4), Cost: cost.DefaultAnalytic(), Seed: 1,
		CollectSteps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.PerStep) != len(pr.Steps) {
		t.Fatalf("profile steps = %d, want %d", len(p.PerStep), len(pr.Steps))
	}
	prev := 0.0
	for i, sp := range p.PerStep {
		if sp.Finish < prev {
			t.Fatalf("step %d finish %g below previous %g", i, sp.Finish, prev)
		}
		prev = sp.Finish
		if sp.Comp < 0 || sp.CommAdvance < 0 {
			t.Fatalf("step %d has negative components: %+v", i, sp)
		}
	}
	if p.PerStep[len(p.PerStep)-1].Finish != p.Total {
		t.Fatalf("last step finish %g != total %g", p.PerStep[len(p.PerStep)-1].Finish, p.Total)
	}
	// Without the flag no profile is collected.
	p2, err := predictor.Predict(pr, predictor.Config{
		Params: loggp.MeikoCS2(4), Cost: cost.DefaultAnalytic(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p2.PerStep != nil {
		t.Fatal("profile collected without CollectSteps")
	}
}
