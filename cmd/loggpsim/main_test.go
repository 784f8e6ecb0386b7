package main

// End-to-end checks of the command: build the real binary and run the
// paper's sample pattern under both algorithms, a cyclic pattern under
// the worst case, and an unknown algorithm name.

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "loggpsim.bin")
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

// TestFigures4And5 runs Figure 3 under both algorithms: each completes
// at the paper's time and its schedule passes the LogGP verifier.
func TestFigures4And5(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBinary(t)
	for _, tc := range []struct{ alg, want string }{
		{"standard", "completion: 61.555µs"},
		{"worstcase", "completion: 73.110µs"},
	} {
		out, err := exec.Command(bin, "-alg", tc.alg).CombinedOutput()
		if err != nil {
			t.Fatalf("-alg %s: %v\n%s", tc.alg, err, out)
		}
		at := strings.Index(string(out), tc.want)
		if at < 0 {
			t.Fatalf("-alg %s does not print %q:\n%s", tc.alg, tc.want, out)
		}
		if !strings.Contains(string(out[at:]), "schedule verified against the LogGP constraints") {
			t.Fatalf("-alg %s: no verified schedule after %q:\n%s", tc.alg, tc.want, out)
		}
	}

	out, err := exec.Command(bin, "-pattern", "ring", "-alg", "worstcase").CombinedOutput()
	if err != nil {
		t.Fatalf("-pattern ring -alg worstcase: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "1 deadlocks broken") {
		t.Fatalf("-pattern ring -alg worstcase does not report its deadlock break:\n%s", out)
	}
}

// TestRejectsUnknownAlgorithm: a misspelt -alg is an error, not a
// silent default.
func TestRejectsUnknownAlgorithm(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	out, err := exec.Command(buildBinary(t), "-alg", "bogus").CombinedOutput()
	if code := exitCode(err); code != 1 {
		t.Fatalf("-alg bogus exited %d, want 1:\n%s", code, out)
	}
	if want := `loggpsim: unknown algorithm "bogus"`; !strings.Contains(string(out), want) {
		t.Fatalf("-alg bogus printed %q, want %q", out, want)
	}
}
