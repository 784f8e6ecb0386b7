package experiments_test

// The Figure-7 golden file pins the paper's experiment bit for bit: the
// float64 bits of every field of RunGE's Points for both layouts at
// N=480 (all 14 block sizes divide it), which carry the emulator's
// charged run — jitter, cache charges, local copies and iteration
// overhead — next to both predictions, and every field of the diagonal
// layout's Monte-Carlo envelopes (robust.Run, 4 samples, perturb
// l=0.2 o=0.1 gap=0.2 g=0.15, seed 1). A change anywhere below those
// entry points — scheduler cores, lane engine, emulator, cache model,
// certificate pricer — that moves one bit fails TestFigure7Golden.
//
// Regenerate with
//
//	go test -run TestFigure7Golden ./internal/experiments -update -v
//
// which rewrites the file and prints every moved cell with each moved
// field's old and new value.

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"loggpsim/internal/experiments"
	"loggpsim/internal/layout"
	"loggpsim/internal/robust"
)

var update = flag.Bool("update", false, "rewrite testdata/figure7.golden from the current code")

const figure7Path = "testdata/figure7.golden"

// figure7Cell is one line of the golden file: a cell key and its fields
// in declaration order, each rendered exactly (see fields).
type figure7Cell struct {
	key    string
	names  []string
	values []string
}

// figure7Cells computes the golden cells: each layout's sweep, then the
// envelopes.
func figure7Cells(t *testing.T) []figure7Cell {
	t.Helper()
	cfg := experiments.Default()
	cfg.N = 480
	cfg.Workers = 1
	var cells []figure7Cell
	for _, mk := range []func(nb int) layout.Layout{
		func(nb int) layout.Layout { return layout.Diagonal(cfg.P, nb) },
		func(int) layout.Layout { return layout.RowCyclic(cfg.P) },
	} {
		pts, err := experiments.RunGE(cfg, mk)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(experiments.BlockSizes) {
			t.Fatalf("RunGE returned %d points for %d block sizes", len(pts), len(experiments.BlockSizes))
		}
		for _, pt := range pts {
			c := figure7Cell{key: fmt.Sprintf("point %s %d", pt.Layout, pt.B)}
			fields(&c, "", reflect.ValueOf(pt))
			cells = append(cells, c)
		}
	}
	envs, err := robust.Run(robust.Config{
		N: cfg.N, P: cfg.P, Sizes: experiments.BlockSizes, Params: cfg.Params, Model: cfg.Model,
		Samples: 4, Seed: 1, Perturb: robust.Perturb{L: 0.2, O: 0.1, Gap: 0.2, G: 0.15}, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range envs {
		c := figure7Cell{key: fmt.Sprintf("envelope diagonal %d", env.B)}
		fields(&c, "", reflect.ValueOf(env))
		cells = append(cells, c)
	}
	return cells
}

// fields appends every leaf field of v to c, nested structs as
// Outer.Inner: a float64 as the 16 hex digits of its bits, an int in
// decimal, a string quoted.
func fields(c *figure7Cell, prefix string, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		name := prefix + v.Type().Field(i).Name
		f := v.Field(i)
		var s string
		switch f.Kind() {
		case reflect.Struct:
			fields(c, name+".", f)
			continue
		case reflect.Float64:
			s = fmt.Sprintf("%016x", math.Float64bits(f.Float()))
		case reflect.Int:
			s = strconv.FormatInt(f.Int(), 10)
		case reflect.String:
			s = strconv.Quote(f.String())
		default:
			panic(fmt.Sprintf("figure7 golden: field %s has unsupported kind %s", name, f.Kind()))
		}
		c.names = append(c.names, name)
		c.values = append(c.values, s)
	}
}

func (c figure7Cell) line() string {
	var b strings.Builder
	b.WriteString(c.key)
	for i, n := range c.names {
		fmt.Fprintf(&b, " %s=%s", n, c.values[i])
	}
	return b.String()
}

// readFigure7 parses the golden file into its lines, keyed by cell.
func readFigure7(t *testing.T) (lines []string, byKey map[string]string) {
	t.Helper()
	f, err := os.Open(figure7Path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	byKey = map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		byKey[cellKey(line)] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines, byKey
}

// cellKey is the part of a line before its first field.
func cellKey(line string) string {
	if i := strings.IndexByte(line, '='); i >= 0 {
		return line[:strings.LastIndexByte(line[:i], ' ')]
	}
	return line
}

// moved describes how a cell's fields differ from its recorded line,
// floats decoded back to values; empty when nothing moved.
func moved(c figure7Cell, old string) string {
	prev := map[string]string{}
	for _, kv := range strings.Fields(old[len(c.key):]) {
		n, v, _ := strings.Cut(kv, "=")
		prev[n] = v
	}
	var b strings.Builder
	for i, n := range c.names {
		if was := prev[n]; was != c.values[i] {
			fmt.Fprintf(&b, "\n  %s: %s -> %s", n, decode(was), decode(c.values[i]))
		}
	}
	return b.String()
}

// decode renders a recorded float's hex bits as its value; other values
// pass through.
func decode(s string) string {
	if len(s) == 16 {
		if u, err := strconv.ParseUint(s, 16, 64); err == nil {
			return strconv.FormatFloat(math.Float64frombits(u), 'g', -1, 64)
		}
	}
	return s
}

// TestFigure7Golden recomputes every cell and demands the recorded
// bits.
func TestFigure7Golden(t *testing.T) {
	cells := figure7Cells(t)
	if *update {
		updateFigure7(t, cells)
		return
	}
	lines, byKey := readFigure7(t)
	if len(lines) != len(cells) {
		t.Fatalf("%s holds %d cells, the sweep and envelope give %d; regenerate with -update", figure7Path, len(lines), len(cells))
	}
	for _, c := range cells {
		old, ok := byKey[c.key]
		if !ok {
			t.Errorf("%s: not in %s", c.key, figure7Path)
			continue
		}
		if d := moved(c, old); d != "" {
			t.Errorf("%s moved:%s", c.key, d)
		}
	}
}

// updateFigure7 rewrites the golden file and prints every cell that
// moved against the previous file.
func updateFigure7(t *testing.T, cells []figure7Cell) {
	var byKey map[string]string
	if _, err := os.Stat(figure7Path); err == nil {
		_, byKey = readFigure7(t)
	}
	var buf bytes.Buffer
	n := 0
	for _, c := range cells {
		if old, ok := byKey[c.key]; ok {
			if d := moved(c, old); d != "" {
				n++
				fmt.Printf("moved: %s%s\n", c.key, d)
			}
		}
		buf.WriteString(c.line())
		buf.WriteByte('\n')
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(figure7Path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("figure7 golden: %d cells written, %d moved\n", len(cells), n)
}
