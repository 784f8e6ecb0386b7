// Checkpoint/resume for long sweeps. A Journal is an append-only JSONL
// file recording one line per completed item; MapResume consults it
// before evaluating an item and records every fresh result the moment it
// completes, so a sweep killed mid-run — SIGINT, OOM, power — restarts
// from its completed indices and produces byte-identical final output.
//
// Byte-identical resume relies on encoding/json round-tripping the
// result type exactly. float64 values marshal to the shortest decimal
// that parses back to the same bits, so the numeric result structs the
// sweeps produce (experiments.Point, robust.Envelope, the predictor's
// Prediction) satisfy it; non-finite floats do not marshal and must not
// appear in checkpointed results (the simulators reject them upstream).
package sweep

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// journalRecord is one line of the JSONL checkpoint file.
type journalRecord struct {
	// Key identifies the item: "<scope>/<index>" for MapResume entries.
	Key string `json:"key"`
	// Value is the item's marshalled result.
	Value json.RawMessage `json:"value"`
}

// Journal is a JSONL checkpoint file shared by the sweeps of one run.
// It is safe for concurrent use; every Record is flushed to the file
// before it returns, so entries survive the process dying right after.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	done map[string]json.RawMessage
}

// OpenJournal opens (creating if absent) the checkpoint journal at path
// and loads its completed entries. A trailing partial line — the
// signature of a process killed mid-write — is ignored, as is any line
// that does not parse: resume recomputes those items instead of
// trusting them.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open checkpoint journal: %w", err)
	}
	j := &Journal{f: f, path: path, done: make(map[string]json.RawMessage)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Key == "" {
			continue // torn or corrupt line: recompute that item
		}
		j.done[rec.Key] = rec.Value
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: read checkpoint journal %s: %w", path, err)
	}
	return j, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Len returns the number of completed entries loaded or recorded.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Lookup returns the recorded raw result for key, if any.
func (j *Journal) Lookup(key string) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, ok := j.done[key]
	return raw, ok
}

// Record marshals v and appends it under key, flushing the line to the
// file before returning. Recording a key twice keeps the first entry
// (the item was already checkpointed; the rewrite is dropped so resumed
// runs never duplicate lines).
func (j *Journal) Record(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("sweep: checkpoint %s: %w", key, err)
	}
	line, err := json.Marshal(journalRecord{Key: key, Value: raw})
	if err != nil {
		return fmt.Errorf("sweep: checkpoint %s: %w", key, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.done[key]; ok {
		return nil
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("sweep: checkpoint %s: %w", key, err)
	}
	j.done[key] = raw
	return nil
}

// Close closes the journal file. Recorded entries remain readable by a
// later OpenJournal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// Remove closes the journal and deletes its file — for callers that
// discard the checkpoint once the run has fully completed.
func (j *Journal) Remove() error {
	err := j.Close()
	if rmErr := os.Remove(j.path); err == nil {
		err = rmErr
	}
	return err
}

// MapResume is Map with checkpoint/resume through j: an item whose key
// ("<scope>/<index>") the journal already holds is decoded from the
// journal instead of evaluated, and every freshly evaluated item is
// recorded (and flushed) the moment it completes. Distinct sweeps
// sharing one journal must use distinct scopes. A nil journal degrades
// to plain Map.
//
// Results decoded from the journal are byte-identical to the recorded
// run's as long as R round-trips through encoding/json (see the package
// comment); an entry that fails to decode is recomputed.
func MapResume[T, R any](ctx context.Context, workers int, j *Journal, scope string, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	if j == nil {
		return Map(ctx, workers, items, fn)
	}
	wrapped := func(i int, item T) (R, error) {
		key := fmt.Sprintf("%s/%d", scope, i)
		if raw, ok := j.Lookup(key); ok {
			var r R
			if err := json.Unmarshal(raw, &r); err == nil {
				return r, nil
			}
			// Undecodable entry (result type changed, corrupt value):
			// fall through and recompute.
		}
		r, err := fn(i, item)
		if err != nil {
			return r, err
		}
		if err := j.Record(key, r); err != nil {
			return r, err
		}
		return r, nil
	}
	return Map(ctx, workers, items, wrapped)
}
