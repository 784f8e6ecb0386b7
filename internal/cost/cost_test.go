package cost

import (
	"testing"
	"time"

	"loggpsim/internal/blockops"
)

func TestTableExactLookup(t *testing.T) {
	tab := NewTable("t")
	tab.Set(blockops.Op1, 8, 20)
	tab.Set(blockops.Op1, 16, 40)
	if got := tab.Cost(blockops.Op1, 8); got != 20 {
		t.Fatalf("Cost(8) = %g, want 20", got)
	}
	if got := tab.Cost(blockops.Op1, 16); got != 40 {
		t.Fatalf("Cost(16) = %g, want 40", got)
	}
}

func TestTableInterpolation(t *testing.T) {
	tab := NewTable("t")
	tab.Set(blockops.Op2, 10, 100)
	tab.Set(blockops.Op2, 20, 200)
	if got := tab.Cost(blockops.Op2, 15); got != 150 {
		t.Fatalf("interpolated Cost(15) = %g, want 150", got)
	}
	// Clamping outside the range.
	if got := tab.Cost(blockops.Op2, 5); got != 100 {
		t.Fatalf("Cost(5) = %g, want clamp to 100", got)
	}
	if got := tab.Cost(blockops.Op2, 50); got != 200 {
		t.Fatalf("Cost(50) = %g, want clamp to 200", got)
	}
}

func TestTableSetKeepsSorted(t *testing.T) {
	tab := NewTable("t")
	for _, b := range []int{30, 10, 20} {
		tab.Set(blockops.Op1, b, float64(b))
	}
	sizes := tab.Sizes()
	if len(sizes) != 3 || sizes[0] != 10 || sizes[1] != 20 || sizes[2] != 30 {
		t.Fatalf("Sizes = %v", sizes)
	}
	for _, b := range []int{10, 20, 30} {
		if tab.Cost(blockops.Op1, b) != float64(b) {
			t.Fatalf("Cost(%d) = %g", b, tab.Cost(blockops.Op1, b))
		}
	}
}

func TestTableOverwrite(t *testing.T) {
	tab := NewTable("t")
	tab.Set(blockops.Op1, 8, 20)
	tab.Set(blockops.Op1, 8, 25)
	if got := tab.Cost(blockops.Op1, 8); got != 25 {
		t.Fatalf("overwrite: Cost = %g, want 25", got)
	}
	if len(tab.Sizes()) != 1 {
		t.Fatal("overwrite duplicated the size")
	}
}

func TestEmptyTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty table Cost did not panic")
		}
	}()
	NewTable("t").Cost(blockops.Op1, 8)
}

func TestCubicEval(t *testing.T) {
	c := Cubic{C3: 1, C2: 2, C1: 3, C0: 4}
	// 8 + 8 + 6 + 4 = 26 at b=2.
	if got := c.Eval(2); got != 26 {
		t.Fatalf("Eval(2) = %g, want 26", got)
	}
}

// The default analytic model must reproduce the paper's Figure-6 shape.
func TestDefaultAnalyticFigure6Shape(t *testing.T) {
	m := DefaultAnalytic()

	// Small blocks: Op1 is the most expensive operation.
	for op := blockops.Op2; op <= blockops.Op4; op++ {
		if m.Cost(blockops.Op1, 8) <= m.Cost(op, 8) {
			t.Errorf("at b=8, Op1 (%g) not above %v (%g)",
				m.Cost(blockops.Op1, 8), op, m.Cost(op, 8))
		}
	}
	// Large blocks: Op4 roughly twice Op1 (between 1.5x and 2.5x).
	ratio := m.Cost(blockops.Op4, 120) / m.Cost(blockops.Op1, 120)
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("at b=120, Op4/Op1 = %g, want ~2", ratio)
	}
	// The most expensive operation changes with block size: there is a
	// crossover where Op4 overtakes Op1.
	if m.Cost(blockops.Op4, 8) >= m.Cost(blockops.Op1, 8) {
		t.Error("Op4 already dominates at b=8")
	}
	if m.Cost(blockops.Op4, 120) <= m.Cost(blockops.Op1, 120) {
		t.Error("Op4 never overtakes Op1")
	}
	// Mid-range: the four GE operations within a factor ~2.2 of each
	// other (the vector ops Op5/Op6 are quadratic and excluded; Figure 6
	// plots Op1–Op4).
	minC, maxC := m.Cost(blockops.Op1, 20), m.Cost(blockops.Op1, 20)
	for op := blockops.Op1; op <= blockops.Op4; op++ {
		c := m.Cost(op, 20)
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	if maxC/minC > 2.2 {
		t.Errorf("at b=20, spread %g too wide for 'about the same'", maxC/minC)
	}
	// Nonlinearity: cost grows superlinearly in b.
	if m.Cost(blockops.Op4, 40) <= 2*m.Cost(blockops.Op4, 20) {
		t.Error("Op4 not superlinear between b=20 and b=40")
	}
}

func TestAnalyticSymmetricPanels(t *testing.T) {
	m := DefaultAnalytic()
	for _, b := range []int{4, 16, 64} {
		if m.Cost(blockops.Op2, b) != m.Cost(blockops.Op3, b) {
			t.Fatalf("Op2 and Op3 priced differently at b=%d", b)
		}
	}
}

func TestAnalyticPanicsOnUnknownOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown op accepted")
		}
	}()
	DefaultAnalytic().Cost(blockops.NumOps, 8)
}

func TestSeries(t *testing.T) {
	m := DefaultAnalytic()
	sizes := []int{8, 16, 32}
	s := Series(m, sizes)
	for op := blockops.Op(0); op < blockops.NumOps; op++ {
		if len(s[op]) != len(sizes) {
			t.Fatalf("series row %v has %d entries", op, len(s[op]))
		}
		for i, b := range sizes {
			if s[op][i] != m.Cost(op, b) {
				t.Fatalf("series[%v][%d] mismatch", op, i)
			}
		}
	}
}

func TestMeasureRealKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("timing kernels in -short mode")
	}
	// Each cost is the mean over one short timing window, so a single
	// scheduler stall inside a b=2 window can lift it above the b=16
	// mean. The size comparison therefore uses each (op, size)'s
	// minimum over three calibrations: a stall has to hit the same
	// window three times to flip it.
	tabs := make([]*Table, 3)
	for i := range tabs {
		tab := Measure([]int{2, 16}, MeasureOpts{MinTime: 500 * time.Microsecond, Seed: 1})
		if got := tab.Sizes(); len(got) != 2 {
			t.Fatalf("calibrated sizes = %v", got)
		}
		if tab.Name() != "measured" {
			t.Fatalf("Name = %q", tab.Name())
		}
		for op := blockops.Op(0); op < blockops.NumOps; op++ {
			if small, large := tab.Cost(op, 2), tab.Cost(op, 16); small <= 0 || large <= 0 {
				t.Fatalf("%v: non-positive measured cost %g/%g", op, small, large)
			}
		}
		tabs[i] = tab
	}
	for op := blockops.Op(0); op < blockops.NumOps; op++ {
		small, large := tabs[0].Cost(op, 2), tabs[0].Cost(op, 16)
		for _, tab := range tabs[1:] {
			small, large = min(small, tab.Cost(op, 2)), min(large, tab.Cost(op, 16))
		}
		if large <= small {
			t.Errorf("%v: cost at b=16 (%g) not above b=2 (%g)", op, large, small)
		}
	}
}
