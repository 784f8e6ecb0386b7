package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

// point mirrors the float-heavy result structs the real sweeps
// checkpoint (experiments.Point and friends).
type point struct {
	B     int     `json:"b"`
	Total float64 `json:"total"`
	Worst float64 `json:"worst"`
}

func mkPoint(i, v int) (point, error) {
	// Awkward floats on purpose: byte-identical resume requires exact
	// JSON round-trips.
	return point{B: v, Total: math.Sqrt(float64(v) + 0.1), Worst: float64(v) / 3.0}, nil
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	items := []int{10, 20, 30, 40}
	got, err := MapResume(nil, 2, j, "s", items, mkPoint)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != len(items) {
		t.Fatalf("journal holds %d entries, want %d", j.Len(), len(items))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: every item must come from the journal, fn must not run.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var calls atomic.Int64
	got2, err := MapResume(nil, 2, j2, "s", items, func(i, v int) (point, error) {
		calls.Add(1)
		return mkPoint(i, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("resume recomputed %d items, want 0", calls.Load())
	}
	if !reflect.DeepEqual(got, got2) {
		t.Fatalf("resumed results differ:\n%v\n%v", got, got2)
	}
}

func TestJournalPartialResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	items := []int{1, 2, 3, 4, 5, 6}

	// First run dies at item 3 (simulated by an error).
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("killed")
	_, err = MapResume(nil, 1, j, "s", items, func(i, v int) (point, error) {
		if i >= 3 {
			return point{}, boom
		}
		return mkPoint(i, v)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if j.Len() != 3 {
		t.Fatalf("journal holds %d entries after partial run, want 3", j.Len())
	}
	j.Close()

	// Resume completes only the missing tail and matches a clean run.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var ran []int
	got, err := MapResume(nil, 1, j2, "s", items, func(i, v int) (point, error) {
		ran = append(ran, i)
		return mkPoint(i, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 4, 5}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("resume ran items %v, want %v", ran, want)
	}
	clean, _ := Map(nil, 1, items, mkPoint)
	if !reflect.DeepEqual(got, clean) {
		t.Fatalf("resumed results differ from a clean run:\n%v\n%v", got, clean)
	}
}

func TestJournalScopesAreIndependent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	items := []int{7, 8}
	a, err := MapResume(nil, 1, j, "diagonal", items, func(i, v int) (point, error) {
		return point{B: v}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MapResume(nil, 1, j, "row-cyclic", items, func(i, v int) (point, error) {
		return point{B: v * 100}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a[0].B != 7 || b[0].B != 700 {
		t.Fatalf("scopes collided: %v %v", a, b)
	}
	if j.Len() != 4 {
		t.Fatalf("journal holds %d entries, want 4", j.Len())
	}
}

func TestJournalTornTailLineIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	items := []int{1, 2, 3}
	if _, err := MapResume(nil, 1, j, "s", items, mkPoint); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a process killed mid-write: truncate the last line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("journal holds %d entries after torn tail, want 2", j2.Len())
	}
	var ran []int
	got, err := MapResume(nil, 1, j2, "s", items, func(i, v int) (point, error) {
		ran = append(ran, i)
		return mkPoint(i, v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ran, []int{2}) {
		t.Fatalf("resume ran %v, want just the torn item", ran)
	}
	clean, _ := Map(nil, 0, items, mkPoint)
	if !reflect.DeepEqual(got, clean) {
		t.Fatalf("results differ from clean run")
	}
}

func TestJournalRecordKeepsFirstEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record("k", 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("k", 2); err != nil {
		t.Fatal(err)
	}
	raw, ok := j.Lookup("k")
	if !ok || string(raw) != "1" {
		t.Fatalf("Lookup(k) = %q, want the first entry", raw)
	}
	if j.Len() != 1 {
		t.Fatalf("Len = %d, want 1", j.Len())
	}
}

func TestMapResumeNilJournal(t *testing.T) {
	got, err := MapResume[int, point](nil, 0, nil, "s", []int{5}, mkPoint)
	if err != nil || got[0].B != 5 {
		t.Fatalf("nil journal: (%v, %v)", got, err)
	}
}

func TestMapResumeWithCancelKeepsCheckpoint(t *testing.T) {
	// A cancelled checkpointed sweep keeps what completed; a resumed run
	// under a fresh context finishes and matches a clean run.
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	var n atomic.Int64
	_, err = MapResume(ctx, 2, j, "s", items, func(i, v int) (point, error) {
		if n.Add(1) == 5 {
			cancel()
		}
		return mkPoint(i, v)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if j.Len() == 0 || j.Len() == len(items) {
		t.Fatalf("journal holds %d entries, want a strict partial", j.Len())
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, err := MapResume(nil, 2, j2, "s", items, mkPoint)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := Map(nil, 0, items, mkPoint)
	if !reflect.DeepEqual(got, clean) {
		t.Fatal("resumed results differ from a clean run")
	}
}

func FuzzJournalResume(f *testing.F) {
	f.Add(uint8(6), uint64(0b1010), int64(3))
	f.Add(uint8(1), uint64(0), int64(0))
	f.Add(uint8(40), uint64(0xFFFFFFFF), int64(99))
	f.Fuzz(func(t *testing.T, n uint8, mask uint64, seed int64) {
		if n == 0 || n > 64 {
			n = 8
		}
		items := make([]int, n)
		for i := range items {
			items[i] = int(int64(i) ^ seed)
		}
		fn := func(i, v int) (point, error) {
			s := float64(Seed(seed, i)%1000003) / 9973.0
			return point{B: v, Total: s, Worst: s / 7}, nil
		}
		clean, err := Map(nil, 1, items, fn)
		if err != nil {
			t.Fatal(err)
		}

		// Pre-complete the masked subset, as an interrupted run would
		// have, then resume and demand the clean run's exact results.
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range items {
			if mask&(1<<uint(i)) != 0 {
				if err := j.Record(fmt.Sprintf("s/%d", i), clean[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		j.Close()

		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		got, err := MapResume(nil, 3, j2, "s", items, fn)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, clean) {
			t.Fatalf("resume diverged from clean run\n got %v\nwant %v", got, clean)
		}
		if j2.Len() != len(items) {
			t.Fatalf("journal holds %d entries, want %d", j2.Len(), len(items))
		}
	})
}

// TestMapResumeTruncatedFinalRecordByteIdentical is the crash-mid-write
// scenario end to end: a journal whose final line is cut short at every
// possible byte offset (the write syscall landed partially before the
// process died) must resume by discarding the partial record and
// recomputing exactly that cell, and the resumed sweep's results must be
// byte-identical — through JSON, the representation the CLIs print and
// checkpoint — to an uninterrupted run's.
func TestMapResumeTruncatedFinalRecordByteIdentical(t *testing.T) {
	items := []int{7, 11, 13}
	clean, err := Map(nil, 0, items, mkPoint)
	if err != nil {
		t.Fatal(err)
	}
	cleanJSON, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}

	// Reference journal: a completed run.
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	j, err := OpenJournal(full)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MapResume(nil, 1, j, "s", items, mkPoint); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lastLine := bytes.LastIndexByte(bytes.TrimRight(data, "\n"), '\n') + 1

	// Cut the final record at every offset: right after the previous
	// newline (empty tail), mid-key, mid-float, and just shy of the
	// trailing newline (complete JSON but no line terminator).
	for cut := lastLine; cut < len(data); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.jsonl", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		var ran []int
		got, err := MapResume(nil, 1, j2, "s", items, func(i, v int) (point, error) {
			ran = append(ran, i)
			return mkPoint(i, v)
		})
		j2.Close()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// The torn cell — and only the torn cell — is recomputed.
		// (A cut at a line boundary leaves a complete unterminated
		// record, which the scanner still parses; both outcomes are
		// correct as long as the results match.)
		for _, i := range ran {
			if i != 2 {
				t.Fatalf("cut %d: recomputed cell %d, want only the torn final cell", cut, i)
			}
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, cleanJSON) {
			t.Fatalf("cut %d: resumed results differ from uninterrupted run:\n got %s\nwant %s",
				cut, gotJSON, cleanJSON)
		}
	}
}
