package eventq

// Tests for the storage-reuse API: Reserve, Clear, Drain/DrainInto.

import (
	"testing"
)

func TestReserveAvoidsGrowth(t *testing.T) {
	var q Queue[int]
	q.Reserve(100)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			q.Push(float64(100-i), i)
		}
		for !q.Empty() {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("pushing into reserved queue allocated %v times per run", allocs)
	}
}

func TestReserveAccountsForQueuedEntries(t *testing.T) {
	var q Queue[int]
	q.Push(1, 1)
	q.Push(2, 2)
	q.Reserve(50)
	if c := cap(q.entries); c < 52 {
		t.Fatalf("cap = %d after Reserve(50) on a 2-entry queue", c)
	}
	// Existing entries must survive the regrow.
	if k, v := q.Pop(); k != 1 || v != 1 {
		t.Fatalf("Pop = (%v, %v)", k, v)
	}
}

func TestClearBehavesLikeZeroValue(t *testing.T) {
	var q Queue[string]
	q.Push(5, "x")
	q.Push(1, "y")
	q.Clear()
	if !q.Empty() || q.Len() != 0 {
		t.Fatalf("cleared queue not empty: len=%d", q.Len())
	}
	// The insertion-order counter must restart: equal keys pushed after
	// Clear come out in post-Clear insertion order, exactly as on a
	// fresh queue. (The simulators rely on this for run-to-run
	// determinism of session reuse.)
	q.Push(3, "a")
	q.Push(3, "b")
	q.Push(3, "c")
	if q.nextSeq != 3 {
		t.Fatalf("nextSeq = %d after Clear + 3 pushes", q.nextSeq)
	}
	for _, want := range []string{"a", "b", "c"} {
		if _, v := q.Pop(); v != want {
			t.Fatalf("got %q, want %q", v, want)
		}
	}
}

func TestDrainIntoReusesBuffer(t *testing.T) {
	var q Queue[int]
	buf := make([]int, 0, 64)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 64; i++ {
			q.Push(float64(64-i), i)
		}
		buf = q.DrainInto(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state DrainInto allocated %v times per run", allocs)
	}
	if len(buf) != 64 {
		t.Fatalf("drained %d values", len(buf))
	}
	for i := 1; i < len(buf); i++ {
		if buf[i-1] < buf[i] {
			t.Fatalf("keys descend, so values must too: buf[%d..]=%v", i-1, buf[i-1:i+1])
		}
	}
}

func TestDrainIntoAppends(t *testing.T) {
	var q Queue[int]
	q.Push(2, 20)
	q.Push(1, 10)
	got := q.DrainInto([]int{99})
	if len(got) != 3 || got[0] != 99 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("DrainInto = %v", got)
	}
	if !q.Empty() {
		t.Fatal("queue not drained")
	}
}

// A growing Reserve at least doubles the capacity, so a queue reused
// across ever larger rounds reallocates a logarithmic number of times.
func TestReserveGrowsGeometrically(t *testing.T) {
	var q Queue[int]
	q.Reserve(100)
	first := cap(q.entries)
	q.Reserve(first + 1)
	if c := cap(q.entries); c < 2*first {
		t.Fatalf("cap = %d after Reserve(%d) on a queue of capacity %d, want at least %d",
			c, first+1, first, 2*first)
	}
	// A Reserve the capacity already covers keeps the storage.
	grown := cap(q.entries)
	q.Reserve(grown)
	if c := cap(q.entries); c != grown {
		t.Fatalf("cap = %d after Reserve(%d) on a queue of capacity %d", c, grown, grown)
	}
}
