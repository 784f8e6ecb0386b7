package stats

import (
	"strings"
	"testing"
)

func TestScalars(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Mean(xs) != 2.8 {
		t.Fatalf("Mean = %g", Mean(xs))
	}
}

func TestTableText(t *testing.T) {
	tab := NewTable("b", "time")
	tab.AddRow(8, 1.23456)
	tab.AddRow(120, 42.0)
	var b strings.Builder
	if err := tab.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "b") || !strings.Contains(lines[0], "time") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "1.235") {
		t.Fatalf("float not rounded to 4 significant digits: %q", lines[2])
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("a", "b")
	tab.AddRow("x", 1.5)
	var b strings.Builder
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\nx,1.5\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}
