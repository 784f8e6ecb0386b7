package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"loggpsim/internal/blockops"
	"loggpsim/internal/program"
)

func TestHitAfterMiss(t *testing.T) {
	c := newLRU(100)
	if c.access(1, 40) {
		t.Fatal("first access hit")
	}
	if !c.access(1, 40) {
		t.Fatal("second access missed")
	}
	if c.hits != 1 || c.misses != 1 {
		t.Fatalf("hits = %d misses = %d", c.hits, c.misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(100)
	c.access(1, 40)
	c.access(2, 40)
	c.access(3, 40) // evicts 1 (LRU)
	if _, ok := c.index[1]; ok {
		t.Fatal("LRU object not evicted")
	}
	if _, ok := c.index[2]; !ok {
		t.Fatal("recently used object 2 evicted")
	}
	if _, ok := c.index[3]; !ok {
		t.Fatal("recently used object 3 evicted")
	}
	if c.used != 80 || c.order.Len() != 2 {
		t.Fatalf("used = %d len = %d, want 80 and 2", c.used, c.order.Len())
	}
}

func TestAccessRefreshesLRUOrder(t *testing.T) {
	c := newLRU(100)
	c.access(1, 40)
	c.access(2, 40)
	c.access(1, 40) // refresh 1; 2 becomes LRU
	c.access(3, 40) // evicts 2
	_, has1 := c.index[1]
	_, has2 := c.index[2]
	if !has1 || has2 {
		t.Fatal("LRU order not refreshed by access")
	}
}

func TestOversizeObjectNotRetained(t *testing.T) {
	c := newLRU(100)
	c.access(9, 50)
	if c.access(1, 200) {
		t.Fatal("oversize object hit")
	}
	if _, ok := c.index[1]; ok {
		t.Fatal("oversize object retained")
	}
	if _, ok := c.index[9]; !ok {
		t.Fatal("oversize miss evicted resident objects needlessly")
	}
	if c.access(1, 200) {
		t.Fatal("oversize object hit on repeat")
	}
}

func TestZeroCapacityAlwaysMisses(t *testing.T) {
	c := newLRU(0)
	for i := 0; i < 3; i++ {
		if c.access(1, 10) {
			t.Fatal("zero-capacity cache hit")
		}
	}
	if c.misses != 3 || c.used != 0 {
		t.Fatalf("misses = %d used = %d", c.misses, c.used)
	}
}

func TestResizeOnSizeChange(t *testing.T) {
	c := newLRU(100)
	c.access(1, 40)
	if c.access(1, 60) {
		t.Fatal("size change treated as hit")
	}
	if c.used != 60 || c.order.Len() != 1 {
		t.Fatalf("used = %d len = %d after resize", c.used, c.order.Len())
	}
	if !c.access(1, 60) {
		t.Fatal("resized object not resident")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size accepted")
		}
	}()
	newLRU(10).access(1, -1)
}

// Property: used bytes never exceed capacity and always equal the sum of
// resident object sizes.
func TestCapacityInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newLRU(512)
		for _, op := range ops {
			id := uint64(op % 32)
			size := int(op%97) + 1
			c.access(id, size)
			if c.used > c.capacity || c.used < 0 {
				return false
			}
			sum := 0
			for el := c.order.Front(); el != nil; el = el.Next() {
				sum += el.Value.(*entry).bytes
			}
			if sum != c.used {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a working set that fits in capacity never misses after the
// first pass, regardless of access order repetition.
func TestFittingWorkingSetStopsMissing(t *testing.T) {
	c := newLRU(1000)
	ids := []uint64{1, 2, 3, 4, 5}
	for _, id := range ids {
		c.access(id, 100)
	}
	c.misses = 0
	for round := 0; round < 10; round++ {
		for _, id := range ids {
			c.access(id, 100)
		}
	}
	if c.misses != 0 {
		t.Fatalf("fitting working set missed %d times", c.misses)
	}
}

// Property: cyclically sweeping a working set larger than capacity with
// LRU misses every time (the emulator's capacity-miss regime).
func TestThrashingWorkingSetAlwaysMisses(t *testing.T) {
	c := newLRU(300)
	for round := 0; round < 5; round++ {
		for id := uint64(0); id < 4; id++ {
			if c.access(id, 100) {
				t.Fatalf("round %d id %d hit; LRU must thrash", round, id)
			}
		}
	}
}

// touch is one operation of a hand-built test program: processor proc
// writes block id, a b×b block of 8·b² bytes.
type touch struct {
	proc, b int
	id      uint64
}

// send is one message of a hand-built test program.
type send struct{ src, dst, bytes int }

// step is one step of a hand-built test program.
type step struct {
	ops  []touch
	msgs []send
}

func buildProgram(steps ...step) *program.Program {
	pr := program.New(2)
	for _, s := range steps {
		ps := pr.AddStep()
		for _, o := range s.ops {
			ps.AddOpOn(o.proc, blockops.Op4, o.b, o.id)
		}
		for _, m := range s.msgs {
			if m.src == m.dst {
				ps.Comm.AddLocal(m.src, m.bytes)
			} else {
				ps.Comm.Add(m.src, m.dst, m.bytes)
			}
		}
	}
	return pr
}

// TestWarmHandComputed pins Warm's exact charges, hits and misses on
// 2-processor, 3-step programs worked out by hand. The capacity is 1024
// bytes and a load costs 0.5 µs plus 1/128 µs per byte, so every charge
// is exact in binary: a 4×4 block (128 B) costs 1.5, an 8×8 block
// (512 B) 4.5, a 12×12 block (1152 B, more than the capacity) 9.5, and
// a 256-byte message buffer 2.5.
func TestWarmHandComputed(t *testing.T) {
	const capacity, missFixed, missPerByte = 1024, 0.5, 1.0 / 128
	cases := []struct {
		name string
		pr   *program.Program
		want Warming
	}{
		{
			// Processor 1 receives a 256-byte buffer in steps 0 and 1 and
			// loads each in the following step. The second has the size of
			// the first, which is still resident, and misses all the same:
			// every received buffer is a fresh object.
			name: "received buffer always misses",
			pr: buildProgram(
				step{msgs: []send{{0, 1, 256}}},
				step{msgs: []send{{0, 1, 256}}},
				step{},
			),
			want: Warming{
				Charges: [][]float64{{0, 0}, {0, 2.5}, {0, 2.5}},
				Max:     5, Hits: 0, Misses: 2,
			},
		},
		{
			// Both processors copy a 512-byte message to themselves in
			// step 0. A local copy loads nothing: step 1 charges only
			// processor 0's own block.
			name: "self message is never loaded",
			pr: buildProgram(
				step{msgs: []send{{0, 0, 512}, {1, 1, 512}}},
				step{ops: []touch{{0, 8, 1}}},
				step{},
			),
			want: Warming{
				Charges: [][]float64{{0, 0}, {4.5, 0}, {0, 0}},
				Max:     4.5, Hits: 0, Misses: 1,
			},
		},
		{
			// Processor 0 touches a 4×4 block and then a 12×12 block that
			// exceeds the capacity. The large block misses on every touch
			// and evicts nothing: the small block still hits in step 1.
			name: "block larger than capacity is not retained",
			pr: buildProgram(
				step{ops: []touch{{0, 4, 1}, {0, 12, 2}}},
				step{ops: []touch{{0, 12, 2}, {0, 4, 1}}},
				step{ops: []touch{{0, 12, 2}}},
			),
			want: Warming{
				Charges: [][]float64{{11, 0}, {9.5, 0}, {9.5, 0}},
				Max:     30, Hits: 1, Misses: 4,
			},
		},
		{
			// Two 8×8 blocks fill processor 1's cache. Step 1 touches A
			// again, so loading C evicts B, the least recently used; in
			// step 2, A still hits and B misses.
			name: "LRU eviction order",
			pr: buildProgram(
				step{ops: []touch{{1, 8, 1}, {1, 8, 2}}},
				step{ops: []touch{{1, 8, 1}, {1, 8, 3}}},
				step{ops: []touch{{1, 8, 1}, {1, 8, 2}}},
			),
			want: Warming{
				Charges: [][]float64{{0, 9}, {0, 4.5}, {0, 4.5}},
				Max:     18, Hits: 2, Misses: 4,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.pr.Validate(); err != nil {
				t.Fatal(err)
			}
			got := Warm(tc.pr, capacity, missFixed, missPerByte)
			if !reflect.DeepEqual(*got, tc.want) {
				t.Fatalf("Warm = %+v, want %+v", *got, tc.want)
			}
		})
	}
}
