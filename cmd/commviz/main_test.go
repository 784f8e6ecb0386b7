package main

// End-to-end checks of the command: build the real binary, render the
// paper's Figures 4 and 5 with both exports, and refuse an unknown
// algorithm name.

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "commviz.bin")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// TestFigures4And5WithExports renders Figure 3 under both algorithms
// and writes the standard run's Chrome trace and SVG.
func TestFigures4And5WithExports(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBinary(t)
	dir := t.TempDir()
	tracePath, svgPath := filepath.Join(dir, "out.json"), filepath.Join(dir, "out.svg")
	out, err := exec.Command(bin, "-trace", tracePath, "-svg", svgPath).CombinedOutput()
	if err != nil {
		t.Fatalf("commviz: %v\n%s", err, out)
	}
	for _, want := range []string{
		"standard algorithm (Figure 4) on",
		"completes at 61.555µs",
		"overestimation algorithm (Figure 5) on",
		"completes at 73.110µs",
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
	for _, path := range []string{tracePath, svgPath} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", filepath.Base(path))
		}
	}
}

// TestRejectsUnknownAlgorithm: a misspelt -alg is an error, not an
// empty run.
func TestRejectsUnknownAlgorithm(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	out, err := exec.Command(buildBinary(t), "-alg", "bogus").CombinedOutput()
	if code := exitCode(err); code != 1 {
		t.Fatalf("-alg bogus exited %d, want 1:\n%s", code, out)
	}
	if want := `commviz: unknown algorithm "bogus"`; !strings.Contains(string(out), want) {
		t.Fatalf("-alg bogus printed %q, want %q", out, want)
	}
}
