package main

// Scripted end-to-end test of the interrupt path, mirroring
// cmd/experiments: build the real binary, SIGINT it mid-sweep, and
// check (a) it exits 130 after flushing finished block sizes to the
// checkpoint journal, and (b) a relaunch with the same -resume flag
// produces byte-identical output to an uninterrupted run. A second test
// checks that an interrupt stops an envelope mid-replay, and a third
// that the removed -scalar flag is refused.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func buildBinary(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "robust.bin")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// waitForJournal polls until the journal holds at least one complete
// line (a flushed block size), so the SIGINT lands mid-sweep.
func waitForJournal(t *testing.T, path string, deadline time.Duration) {
	t.Helper()
	for start := time.Now(); time.Since(start) < deadline; time.Sleep(10 * time.Millisecond) {
		b, err := os.ReadFile(path)
		if err == nil && bytes.Count(b, []byte{'\n'}) >= 1 {
			return
		}
	}
	t.Fatalf("journal %s never received a cell within %v", path, deadline)
}

func TestSigintFlushesJournalAndResumeIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	dir := t.TempDir()
	bin := buildBinary(t, dir)
	journal := filepath.Join(dir, "robust.journal")
	// Enough cells at one worker that the interrupt reliably lands
	// mid-sweep, small enough that clean runs stay fast.
	args := []string{"-n", "480", "-blocks", "8,10,12,14,16,20,24,30",
		"-samples", "6", "-workers", "1", "-perturb", "l=0.1,o=0.1",
		"-resume", journal}

	// Phase 1: start the sweep, wait for the first flushed cell, SIGINT.
	var out1 bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &out1
	cmd.Stderr = &out1
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waitForJournal(t, journal, 60*time.Second)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		t.Fatalf("process exited 0 before SIGINT took effect:\n%s", out1.String())
	}
	if code := cmd.ProcessState.ExitCode(); code != 130 {
		t.Fatalf("interrupted run exited %d, want 130:\n%s", code, out1.String())
	}
	if !bytes.Contains(out1.Bytes(), []byte("interrupted")) {
		t.Fatalf("interrupted run did not report the interrupt:\n%s", out1.String())
	}
	if fi, err := os.Stat(journal); err != nil || fi.Size() == 0 {
		t.Fatalf("no flushed journal after interrupt: %v", err)
	}

	// Phase 2: relaunch with -resume; it must finish cleanly.
	resumed, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}

	// Phase 3: an uninterrupted run with a fresh journal.
	cleanArgs := append(append([]string{}, args[:len(args)-1]...),
		filepath.Join(dir, "clean.journal"))
	clean, err := exec.Command(bin, cleanArgs...).Output()
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if !bytes.Equal(resumed, clean) {
		t.Fatalf("resumed output differs from uninterrupted run:\n--- resumed ---\n%s\n--- clean ---\n%s",
			resumed, clean)
	}
}

// TestSigintStopsRunningEnvelope interrupts a run whose one envelope
// replays for seconds (GE n=960 b=8, 16 samples plus the nominal lane:
// about 5 s on a 2-vCPU Xeon) and requires exit 130 well before the
// envelope could finish: the lane engine polls the interrupt once per
// program step, so the replay stops where it is instead of running to
// its end.
func TestSigintStopsRunningEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBinary(t, t.TempDir())
	var out bytes.Buffer
	cmd := exec.Command(bin, "-n", "960", "-blocks", "8", "-samples", "16")
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	// The signal handler is installed at start-up and the program is
	// built in milliseconds, so a second in the envelope is replaying.
	time.Sleep(time.Second)
	sent := time.Now()
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait() // a non-zero exit is the expected outcome
	took := time.Since(sent)
	if code := cmd.ProcessState.ExitCode(); code != 130 {
		t.Fatalf("interrupted run exited %d after %v, want 130:\n%s", code, took, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("robust: interrupted")) {
		t.Fatalf("interrupted run did not report the interrupt:\n%s", out.String())
	}
	if took > time.Second {
		t.Fatalf("exit came %v after SIGINT: the envelope kept replaying", took)
	}
}

// TestRejectsScalarFlag pins the removal of the per-sample envelope
// path from the CLI: -scalar must fail as an undefined flag, not be
// silently accepted.
func TestRejectsScalarFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildBinary(t, t.TempDir())
	out, err := exec.Command(bin, "-n", "96", "-blocks", "8", "-samples", "1", "-scalar").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "flag provided but not defined: -scalar") {
		t.Fatalf("-scalar accepted (err %v):\n%s", err, out)
	}
}
