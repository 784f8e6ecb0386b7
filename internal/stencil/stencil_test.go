package stencil

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
	g, err := NewGrid(64, 8)
	if err != nil || g.NB != 8 || g.N() != 64 {
		t.Fatalf("NewGrid = %+v, %v", g, err)
	}
	if _, err := NewGrid(64, 7); err == nil {
		t.Fatal("non-dividing block accepted")
	}
	if _, err := NewGrid(0, 4); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestBlockedMatchesReference(t *testing.T) {
	for _, tc := range []struct{ n, b, iters int }{
		{8, 8, 1}, {8, 4, 3}, {24, 4, 5}, {30, 5, 4}, {12, 1, 2},
	} {
		field := matrix.Random(tc.n, int64(tc.n))
		want := RunReference(field, tc.iters)
		got, err := RunBlocked(field, tc.b, tc.iters)
		if err != nil {
			t.Fatalf("n=%d b=%d: %v", tc.n, tc.b, err)
		}
		if d := matrix.MaxAbsDiff(got, want); d > 1e-12 {
			t.Errorf("n=%d b=%d iters=%d: blocked differs by %g", tc.n, tc.b, tc.iters, d)
		}
	}
}

func TestReferenceSmoothes(t *testing.T) {
	// A delta in the middle spreads to its neighbours with weight 1/4.
	field := matrix.New(5, 5)
	field.Set(2, 2, 4)
	out := RunReference(field, 1)
	if out.At(2, 2) != 0 || out.At(1, 2) != 1 || out.At(2, 3) != 1 {
		t.Fatalf("unexpected spread: centre %g, up %g, right %g",
			out.At(2, 2), out.At(1, 2), out.At(2, 3))
	}
}

func TestUniformFieldDecaysAtBoundary(t *testing.T) {
	// With zero boundaries, an all-ones field keeps interior points at 1
	// only where all four neighbours are interior; corner points drop to
	// 0.5 after one sweep.
	field := matrix.New(4, 4)
	for i := range field.Data {
		field.Data[i] = 1
	}
	out := RunReference(field, 1)
	if out.At(1, 1) != 1 || out.At(0, 0) != 0.5 {
		t.Fatalf("interior %g (want 1), corner %g (want 0.5)", out.At(1, 1), out.At(0, 0))
	}
}

func TestBuildProgramShape(t *testing.T) {
	g, err := NewGrid(32, 8) // 4x4 blocks
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	lay := layout.BlockCyclic2D(2, 2)
	pr, err := BuildProgram(g, iters, lay)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Initial exchange + one step per iteration.
	if len(pr.Steps) != 1+iters {
		t.Fatalf("steps = %d, want %d", len(pr.Steps), 1+iters)
	}
	st := pr.Summarize()
	if want := iters * g.NB * g.NB; st.Ops[blockops.Op7] != want {
		t.Fatalf("Op7 count = %d, want %d", st.Ops[blockops.Op7], want)
	}
	for op := blockops.Op1; op <= blockops.Op6; op++ {
		if st.Ops[op] != 0 {
			t.Fatalf("stencil uses %v", op)
		}
	}
	// Edge messages per exchange: interior edges counted twice (once per
	// direction): 2 * 2 * nb * (nb-1).
	perExchange := 4 * g.NB * (g.NB - 1)
	wantMsgs := perExchange * iters // initial + iters-1 trailing exchanges
	if got := st.NetworkMessages + st.LocalMessages; got != wantMsgs {
		t.Fatalf("messages = %d, want %d", got, wantMsgs)
	}
	// Halos are vector-sized.
	for _, s := range pr.Steps {
		for _, m := range s.Comm.Msgs {
			if int(m.Bytes) != blockops.VecBytes(g.B) {
				t.Fatalf("halo of %d bytes, want %d", m.Bytes, blockops.VecBytes(g.B))
			}
		}
	}
	// The last step must not communicate.
	if len(pr.Steps[len(pr.Steps)-1].Comm.Msgs) != 0 {
		t.Fatal("final sweep communicates")
	}
}

func TestBuildProgramErrors(t *testing.T) {
	g, _ := NewGrid(16, 4)
	if _, err := BuildProgram(g, 0, layout.RowCyclic(2)); err == nil {
		t.Fatal("zero iterations accepted")
	}
	bad := layout.Custom(2, "bad", func(bi, bj int) int { return 9 })
	if _, err := BuildProgram(g, 1, bad); err == nil {
		t.Fatal("invalid layout accepted")
	}
}

func TestPredictStencil(t *testing.T) {
	g, err := NewGrid(128, 16) // 8x8 blocks
	if err != nil {
		t.Fatal(err)
	}
	pr, err := BuildProgram(g, 10, layout.BlockCyclic2D(2, 4))
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
	// Iterations are homogeneous, so doubling them roughly doubles the
	// prediction (within 10%: the first exchange and last sweep differ).
	pr2, err := BuildProgram(g, 20, layout.BlockCyclic2D(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := predictor.Predict(pr2, predictor.Config{
		Params: loggp.MeikoCS2(8),
		Cost:   cost.DefaultAnalytic(),
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := p2.Total / p.Total
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("20/10 iteration ratio = %g, want ~2", ratio)
	}
}

// Property: blocked and reference sweeps agree for random shapes and
// iteration counts.
func TestBlockedProperty(t *testing.T) {
	f := func(seed int64, nbRaw, bRaw, itersRaw uint8) bool {
		nb := int(nbRaw%4) + 1
		b := int(bRaw%5) + 1
		iters := int(itersRaw%4) + 1
		n := nb * b
		field := matrix.Random(n, seed)
		want := RunReference(field, iters)
		got, err := RunBlocked(field, b, iters)
		if err != nil {
			return false
		}
		return matrix.MaxAbsDiff(got, want) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
