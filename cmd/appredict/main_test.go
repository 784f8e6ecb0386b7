package main

// End-to-end checks of the command's processor-count handling: build
// the real binary and run every bundled application with its defaults.

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"loggpsim/internal/apps"
)

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "appredict.bin")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestDefaultProcsRunEveryApp runs each application with -app alone:
// every one must predict at its default processor count, cannon on the
// largest square count within the default 8.
func TestDefaultProcsRunEveryApp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBinary(t)
	for _, app := range apps.Names() {
		out, err := exec.Command(bin, "-app", app).CombinedOutput()
		if err != nil {
			t.Fatalf("-app %s: %v\n%s", app, err, out)
		}
		want := "P=8"
		if app == "cannon" {
			want = "P=4"
		}
		if !strings.Contains(string(out), want) {
			t.Fatalf("-app %s: header does not report %s:\n%s", app, want, out)
		}
	}

	// An explicit -procs is used as given, even when cannon rejects it.
	out, err := exec.Command(bin, "-app", "cannon", "-procs", "8").CombinedOutput()
	if code := exitCode(err); code != 1 {
		t.Fatalf("-app cannon -procs 8 exited %d, want 1:\n%s", code, out)
	}
	if want := "appredict: apps: cannon needs a square processor count, got 8"; !strings.Contains(string(out), want) {
		t.Fatalf("-app cannon -procs 8 printed %q, want %q", out, want)
	}
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
