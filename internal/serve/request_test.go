package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"loggpsim/internal/loadgen"
)

// FuzzDecodeRequest fuzzes the strict front door every /predict body
// and every imported cache line passes. It must never panic, and a body
// it accepts must mean one thing: re-marshalled and decoded again, the
// request keeps its canonical key, and the body with one more byte
// appended is refused unless that byte is JSON whitespace. An accepted
// pattern workload's message size fits a trace.Msg.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range loadgen.Corpus(64, 1) {
		f.Add([]byte(body), byte('x'))
	}
	valid := fmt.Sprintf(smallGE, ModeSimulate)
	for _, tail := range []string{`garbage`, `{"mode":"bogus"}`, `]`} {
		f.Add([]byte(valid+tail), byte(' '))
	}
	// A message size past int32, which no trace.Msg can hold.
	f.Add([]byte(`{"mode":"simulate","workload":{"kind":"pattern","procs":4,"pattern":"ring","bytes":2147483648}}`), byte('x'))

	lim := DefaultLimits()
	f.Fuzz(func(t *testing.T, body []byte, tail byte) {
		r, err := DecodeRequest(bytes.NewReader(body), lim)
		if err != nil {
			return
		}
		if w := r.Workload; w.Kind == KindPattern && w.Bytes > math.MaxInt32 {
			t.Fatalf("pattern message size %d accepted past int32", w.Bytes)
		}
		key, kerr := CanonicalKey(&r)

		wire, err := json.Marshal(&r)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		again, err := DecodeRequest(bytes.NewReader(wire), lim)
		if err != nil {
			t.Fatalf("re-marshalled request %s refused: %v", wire, err)
		}
		key2, kerr2 := CanonicalKey(&again)
		if (kerr == nil) != (kerr2 == nil) || key != key2 {
			t.Fatalf("re-marshalling moved the canonical key: %v (%v) vs %v (%v) for %q",
				key, kerr, key2, kerr2, body)
		}

		_, err = DecodeRequest(bytes.NewReader(append(body[:len(body):len(body)], tail)), lim)
		switch tail {
		case ' ', '\t', '\n', '\r':
			if err != nil {
				t.Fatalf("trailing whitespace %q refused: %v", tail, err)
			}
		default:
			if err == nil {
				t.Fatalf("trailing byte %q accepted after %q", tail, body)
			}
		}
	})
}
