package experiments

import (
	"math"
	"strings"
	"testing"

	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
)

func TestFigure4And5Golden(t *testing.T) {
	params := loggp.MeikoCS2(10)
	chart4, finish4, err := Figure4(params, 80)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(finish4-61.555) > 1e-9 {
		t.Fatalf("Figure 4 completion = %g, want 61.555", finish4)
	}
	if !strings.Contains(chart4, "P10") {
		t.Fatal("Figure 4 chart missing processor rows")
	}
	chart5, finish5, err := Figure5(params, 80)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(finish5-73.11) > 1e-9 {
		t.Fatalf("Figure 5 completion = %g, want 73.11", finish5)
	}
	if !strings.Contains(chart5, "P10") {
		t.Fatal("Figure 5 chart missing processor rows")
	}
	if !(finish5 > finish4) {
		t.Fatal("overestimation did not exceed the standard completion")
	}
}

func TestFigure6TableShape(t *testing.T) {
	cfg := Default()
	tab := Figure6Table(cfg.Model, cfg.Sizes)
	var b strings.Builder
	if err := tab.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != len(cfg.Sizes)+2 {
		t.Fatalf("Figure 6 table has %d lines, want %d", len(lines), len(cfg.Sizes)+2)
	}
	for _, col := range []string{"Op1", "Op2", "Op3", "Op4"} {
		if !strings.Contains(lines[0], col) {
			t.Fatalf("header missing %s: %q", col, lines[0])
		}
	}
}

// TestPaperClaimsFullScale regenerates the complete Figures 7–9 sweep at
// the paper's scale (960×960, 8 processors, 14 block sizes, both
// layouts) and asserts every qualitative finding of Section 6.3. This is
// the repository's headline reproduction test.
func TestPaperClaimsFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sweep in -short mode")
	}
	byLayout, err := RunBothLayouts(Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(byLayout["diagonal"]) != len(BlockSizes) || len(byLayout["row-cyclic"]) != len(BlockSizes) {
		t.Fatalf("sweep incomplete: %d/%d points",
			len(byLayout["diagonal"]), len(byLayout["row-cyclic"]))
	}
	for _, c := range CheckClaims(byLayout) {
		if !c.Pass {
			t.Errorf("claim failed: %s (%s)", c.Name, c.Detail)
		} else {
			t.Logf("claim ok: %s (%s)", c.Name, c.Detail)
		}
	}
}

// TestSweepSmallScale exercises the sweep machinery quickly (also under
// -short) on a reduced matrix.
func TestSweepSmallScale(t *testing.T) {
	cfg := Default()
	cfg.N = 96
	cfg.Sizes = []int{8, 12, 16, 24, 32, 48}
	byLayout, err := RunBothLayouts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, pts := range byLayout {
		if len(pts) != len(cfg.Sizes) {
			t.Fatalf("%s: %d points, want %d", name, len(pts), len(cfg.Sizes))
		}
		for _, p := range pts {
			if p.SimStandard <= 0 || p.MeasuredWithCache <= 0 {
				t.Fatalf("%s b=%d: non-positive times %+v", name, p.B, p)
			}
			if p.MeasuredWithCache < p.MeasuredWithoutCache-1e-12 {
				t.Fatalf("%s b=%d: caching made the run faster", name, p.B)
			}
			if p.CommMeasured < p.CommStandard-1e-12 {
				t.Fatalf("%s b=%d: measured comm below standard prediction", name, p.B)
			}
		}
	}
	// Tables render for all three figures.
	var b strings.Builder
	if err := Figure7Table(byLayout["diagonal"]).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if err := Figure8Table(byLayout["diagonal"]).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if err := Figure9Table(byLayout["row-cyclic"]).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "simulated") {
		t.Fatal("figure tables missing simulated columns")
	}
}

func TestNonDividingSizesSkipped(t *testing.T) {
	cfg := Default()
	cfg.N = 100
	cfg.Sizes = []int{7, 10, 33, 50} // only 10 and 50 divide 100
	pts, err := RunGE(cfg, func(nb int) layout.Layout {
		return layout.RowCyclic(cfg.P)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].B != 10 || pts[1].B != 50 {
		t.Fatalf("points = %+v, want b=10 and b=50 only", pts)
	}
}

func TestAblationTable(t *testing.T) {
	cfg := Default()
	cfg.N = 240
	tab, err := AblationTable(cfg, 24)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tab.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"baseline (paper)", "send priority", "global-order", "no cross-type gaps",
		"plain LogP", "rendezvous", "overlapping", "cache-aware", "ring", "mesh",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 12 { // header + rule + 10 variants
		t.Fatalf("ablation table lines = %d, want 12", len(lines))
	}
	if !strings.Contains(lines[2], "+0.0%") {
		t.Fatalf("baseline row not zero-referenced: %q", lines[2])
	}
}

func TestSensitivityTable(t *testing.T) {
	cfg := Default()
	cfg.N = 240
	cfg.Sizes = []int{8, 24, 80}
	tab, err := SensitivityTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tab.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 5 { // header + rule + 3 sizes
		t.Fatalf("sensitivity table lines = %d, want 5:\n%s", len(lines), b.String())
	}
	if !strings.Contains(lines[2], "g") { // gap dominates the smallest block
		t.Errorf("b=8 row does not name g dominant: %q", lines[2])
	}
}

// TestRunGEParallelDeterminism is the deterministic-equivalence check of
// the sweep engine: fanning the block-size sweep out over 8 workers must
// produce exactly (bit-for-bit float equality) the Point slice the
// serial path produces — parallelism must not perturb the deterministic
// tie-break seeds.
func TestRunGEParallelDeterminism(t *testing.T) {
	cfg := Default()
	cfg.N = 240
	mk := func(nb int) layout.Layout { return layout.Diagonal(cfg.P, nb) }

	serialCfg := cfg
	serialCfg.Workers = 1
	want, err := RunGE(serialCfg, mk)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 4 {
		t.Fatalf("sweep too small: %d points", len(want))
	}
	parallelCfg := cfg
	parallelCfg.Workers = 8
	got, err := RunGE(parallelCfg, mk)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parallel sweep has %d points, serial %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs:\nworkers=8: %+v\nworkers=1: %+v", i, got[i], want[i])
		}
	}
}

// TestRunBothLayoutsParallelDeterminism covers the two-layout driver the
// Figure 7/8/9 pipeline uses.
func TestRunBothLayoutsParallelDeterminism(t *testing.T) {
	cfg := Default()
	cfg.N = 96
	serialCfg := cfg
	serialCfg.Workers = 1
	want, err := RunBothLayouts(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallelCfg := cfg
	parallelCfg.Workers = 8
	got, err := RunBothLayouts(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("layout count %d, want %d", len(got), len(want))
	}
	for name, wpts := range want {
		gpts, ok := got[name]
		if !ok {
			t.Fatalf("layout %q missing from parallel run", name)
		}
		if len(gpts) != len(wpts) {
			t.Fatalf("%s: %d points, want %d", name, len(gpts), len(wpts))
		}
		for i := range wpts {
			if gpts[i] != wpts[i] {
				t.Fatalf("%s point %d differs:\nworkers=8: %+v\nworkers=1: %+v",
					name, i, gpts[i], wpts[i])
			}
		}
	}
}
