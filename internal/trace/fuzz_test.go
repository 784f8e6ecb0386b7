package trace_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/trace"
)

// FuzzPatternDecode feeds arbitrary bytes to trace.Decode. It must never
// panic; a pattern it accepts must encode and decode back to equal
// messages; and a body with any message src, dst or bytes that is not
// an int32 literal must be refused, never narrowed into a message.
func FuzzPatternDecode(f *testing.F) {
	var fig3 bytes.Buffer
	if err := trace.Figure3().Encode(&fig3); err != nil {
		f.Fatal(err)
	}
	f.Add(fig3.Bytes())
	// The busiest step of a small blocked GE program.
	g, err := ge.NewGrid(96, 8)
	if err != nil {
		f.Fatal(err)
	}
	pr, err := ge.BuildProgram(g, layout.Diagonal(4, g.NB))
	if err != nil {
		f.Fatal(err)
	}
	busiest := pr.Steps[0].Comm
	for _, s := range pr.Steps {
		if len(s.Comm.Msgs) > len(busiest.Msgs) {
			busiest = s.Comm
		}
	}
	step, err := json.Marshal(busiest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(step)
	for _, body := range []string{
		`{"p":2,"msgs":[{"src":0,"dst":4294967297,"bytes":8}]}`,
		`{"p":2,"msgs":[{"src":-2147483649,"dst":1,"bytes":8}]}`,
		`{"p":2,"msgs":[{"src":0,"dst":1,"bytes":2147483648}]}`,
		`{"p":2,"msgs":[{"src":0,"dst":1,"bytes":2147483647}]}`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		pt, err := trace.Decode(bytes.NewReader(body))

		// The same body read with every message field as a raw number.
		var wide struct {
			Msgs []struct{ Src, Dst, Bytes json.Number }
		}
		if json.Unmarshal(body, &wide) == nil {
			for i, m := range wide.Msgs {
				for _, n := range []json.Number{m.Src, m.Dst, m.Bytes} {
					if _, perr := strconv.ParseInt(string(n), 10, 32); n != "" && perr != nil && err == nil {
						t.Fatalf("msg %d field %s is not an int32, yet Decode accepted %q", i, n, body)
					}
				}
			}
		}
		if err != nil {
			return
		}

		var buf bytes.Buffer
		if err := pt.Encode(&buf); err != nil {
			t.Fatalf("accepted pattern does not encode: %v", err)
		}
		again, err := trace.Decode(&buf)
		if err != nil {
			t.Fatalf("re-encoded pattern %s refused: %v", buf.Bytes(), err)
		}
		if !reflect.DeepEqual(again, pt) {
			t.Fatalf("round trip moved the pattern: %+v became %+v", pt, again)
		}
	})
}
