package cache

import (
	"container/list"
	"math"
	"math/rand"
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
	if n := len(residents(c)); c.used != 80 || n != 2 {
		t.Fatalf("used = %d len = %d, want 80 and 2", c.used, n)
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
	if n := len(residents(c)); c.used != 60 || n != 1 {
		t.Fatalf("used = %d len = %d after resize", c.used, n)
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
			for _, o := range residents(c) {
				sum += o.bytes
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
		{
			// Processor 1 loads a 128-byte buffer in step 1 and then
			// writes a 4×4 block (also 128 B) whose id is 2^32. Any
			// uint64 is a block id and a buffer has none, so the block
			// cannot hit on the buffer: both miss.
			name: "block id 2^32 does not alias a received buffer",
			pr: buildProgram(
				step{msgs: []send{{0, 1, 128}}},
				step{ops: []touch{{1, 4, 1 << 32}}},
				step{},
			),
			want: Warming{
				Charges: [][]float64{{0, 0}, {0, 3}, {0, 0}},
				Max:     3, Hits: 0, Misses: 2,
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

// object is a resident object as the tests see it: a block's id and
// size, or a received buffer's size.
type object struct {
	buffer bool
	id     uint64
	bytes  int
}

// residents lists c's objects from most to least recently used.
func residents(c *lru) []object {
	var out []object
	for s := c.next[0]; s != 0; s = c.next[s] {
		o := object{buffer: !c.indexed[s], bytes: c.sizes[s]}
		if !o.buffer {
			o.id = c.ids[s]
		}
		out = append(out, o)
	}
	return out
}

// listLRU is the container/list LRU the slice-backed one replaced, kept
// as the oracle of TestLRUMatchesListOracle and, under warmOracle, of
// TestWarmMatchesListOracle. It has no notion of a buffer: callers load
// one as an access under a fresh id.
type listLRU struct {
	capacity int
	used     int
	order    *list.List // front = most recently used; values are *listEntry
	index    map[uint64]*list.Element

	hits, misses int
}

type listEntry struct {
	id    uint64
	bytes int
}

func newListLRU(capacity int) *listLRU {
	return &listLRU{
		capacity: capacity,
		order:    list.New(),
		index:    make(map[uint64]*list.Element),
	}
}

func (c *listLRU) access(id uint64, bytes int) bool {
	if bytes < 0 {
		panic("negative object size")
	}
	if el, ok := c.index[id]; ok {
		if el.Value.(*listEntry).bytes == bytes {
			c.order.MoveToFront(el)
			c.hits++
			return true
		}
		c.evict(el)
	}
	c.misses++
	if bytes > c.capacity {
		return false
	}
	for c.used+bytes > c.capacity {
		c.evict(c.order.Back())
	}
	c.index[id] = c.order.PushFront(&listEntry{id: id, bytes: bytes})
	c.used += bytes
	return false
}

func (c *listLRU) evict(el *list.Element) {
	e := el.Value.(*listEntry)
	c.order.Remove(el)
	delete(c.index, e.id)
	c.used -= e.bytes
}

// residents lists the oracle's objects from most to least recently
// used; ids at or above firstBuffer are the buffers' fresh ids.
func (c *listLRU) residents(firstBuffer uint64) []object {
	var out []object
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*listEntry)
		if e.id >= firstBuffer {
			out = append(out, object{buffer: true, bytes: e.bytes})
		} else {
			out = append(out, object{id: e.id, bytes: e.bytes})
		}
	}
	return out
}

// TestLRUMatchesListOracle drives the slice-backed LRU and the
// container/list oracle with one random stream of block accesses and
// buffer loads; the oracle loads each buffer under a fresh id it never
// repeats. Block ids come from a small universe, which includes ids at
// and above 2^32, so hits, evictions and size changes are common;
// capacity 0 and objects larger than the capacity are in the stream.
// After every operation the two must agree on the access's result,
// used, hits, misses and the resident objects in recency order. The
// index must hold exactly the resident blocks, and the slot arrays must
// never outgrow the most objects ever resident at once: a freed slot is
// reused before a new one is made.
func TestLRUMatchesListOracle(t *testing.T) {
	ids := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 1 << 32, 1<<32 + 1, 1 << 40}
	const firstBuffer = 1 << 62
	for _, capacity := range []int{0, 1, 100, 1000, 5000} {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			size := func() int {
				if rng.Intn(16) == 0 {
					return capacity + 1 + rng.Intn(64) // never retained
				}
				return 1 + rng.Intn(capacity/3+8)
			}
			sizes := make([]int, len(ids))
			for i := range sizes {
				sizes[i] = size()
			}
			c, o := newLRU(capacity), newListLRU(capacity)
			nextBuffer := uint64(firstBuffer)
			peak := 0
			for op := 0; op < 3000; op++ {
				var got, want bool
				if rng.Intn(4) == 0 {
					bytes := size()
					c.load(bytes)
					o.access(nextBuffer, bytes)
					nextBuffer++
				} else {
					i := rng.Intn(len(ids))
					if rng.Intn(8) == 0 {
						sizes[i] = size() // the same id at a new size
					}
					got, want = c.access(ids[i], sizes[i]), o.access(ids[i], sizes[i])
				}
				res, oracle := residents(c), o.residents(firstBuffer)
				if got != want || c.used != o.used || c.hits != o.hits || c.misses != o.misses ||
					!reflect.DeepEqual(res, oracle) {
					t.Fatalf("capacity %d seed %d op %d: hit %v used %d hits %d misses %d residents %v; oracle %v %d %d %d %v",
						capacity, seed, op, got, c.used, c.hits, c.misses, res,
						want, o.used, o.hits, o.misses, oracle)
				}
				blocks := 0
				for _, r := range res {
					if !r.buffer {
						blocks++
					}
				}
				if len(c.index) != blocks {
					t.Fatalf("capacity %d seed %d op %d: index holds %d ids for %d resident blocks",
						capacity, seed, op, len(c.index), blocks)
				}
				peak = max(peak, len(res))
				if slots := len(c.next) - 1; slots != peak {
					t.Fatalf("capacity %d seed %d op %d: %d slots, at most %d objects ever resident",
						capacity, seed, op, slots, peak)
				}
			}
		}
	}
}

// warmOracle is Warm as it stood on the container/list LRU: each
// received buffer is accessed under a fresh id, counted up from
// firstBuffer across all processors.
func warmOracle(pr *program.Program, capacity int, missFixed, missPerByte float64, firstBuffer uint64) *Warming {
	w := &Warming{Charges: make([][]float64, len(pr.Steps))}
	caches := make([]*listLRU, pr.P)
	for i := range caches {
		caches[i] = newListLRU(capacity)
	}
	totals := make([]float64, pr.P)
	pending := make([][]int, pr.P)
	nextBuffer := firstBuffer
	for s, step := range pr.Steps {
		w.Charges[s] = make([]float64, pr.P)
		for proc, c := range caches {
			warm := 0.0
			for _, bytes := range pending[proc] {
				c.access(nextBuffer, bytes)
				nextBuffer++
				warm += missFixed + missPerByte*float64(bytes)
			}
			pending[proc] = nil
			for _, call := range step.Comp[proc] {
				bytes := 8 * call.BlockSize * call.BlockSize
				if !c.access(call.Block, bytes) {
					warm += missFixed + missPerByte*float64(bytes)
				}
			}
			w.Charges[s][proc] = warm
			totals[proc] += warm
		}
		for _, m := range step.Comm.Msgs {
			if m.Src != m.Dst {
				pending[m.Dst] = append(pending[m.Dst], int(m.Bytes))
			}
		}
	}
	for proc, c := range caches {
		w.Max = max(w.Max, totals[proc])
		w.Hits += c.hits
		w.Misses += c.misses
	}
	return w
}

// TestWarmMatchesListOracle replays random 3-processor programs through
// Warm and through warmOracle, whose buffer ids start at 2^40, outside
// the programs' block ids. Those come from the bottom of the uint64
// range, from around 2^32 and 2^63 and from the top, and blocks and
// messages share two sizes (32 and 128 bytes), so a Warm that held
// buffers under ids in any of those ranges would let a block hit on a
// buffer somewhere.
func TestWarmMatchesListOracle(t *testing.T) {
	ids := []uint64{0, 1, 2, 3, 1 << 32, 1<<32 + 1, 1<<32 + 2, 1<<32 + 3,
		1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pr := program.New(3)
		for range 4 + rng.Intn(12) {
			s := pr.AddStep()
			for range rng.Intn(8) {
				s.AddOpOn(rng.Intn(3), blockops.Op4, 2+2*rng.Intn(2), ids[rng.Intn(len(ids))])
			}
			for range rng.Intn(6) {
				src, dst, bytes := rng.Intn(3), rng.Intn(3), 32<<(2*rng.Intn(2))
				if src == dst {
					s.Comm.AddLocal(src, bytes)
				} else {
					s.Comm.Add(src, dst, bytes)
				}
			}
		}
		for _, capacity := range []int{0, 256, 1024} {
			got := Warm(pr, capacity, 0.5, 1.0/128)
			if want := warmOracle(pr, capacity, 0.5, 1.0/128, 1<<40); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d capacity %d: Warm = %+v, oracle %+v", seed, capacity, *got, *want)
			}
		}
	}
}

// TestLRUSteadyStateAllocationFree: once the LRU is warm, block
// accesses (hits, misses and size changes) and buffer loads allocate
// nothing. The measured run is one batch, so a single allocation in it
// fails the test.
func TestLRUSteadyStateAllocationFree(t *testing.T) {
	c := newLRU(16 << 10)
	i := 0
	batch := func() {
		for n := 0; n < 20000; n++ {
			c.load(256 + i%3*128)
			c.access(uint64(i%13), 512+i%7/6*64)
			i++
		}
	}
	batch() // grows the slot arrays and the index to the working set
	if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
		t.Fatalf("warm LRU allocated %v times in %d operations", allocs, 2*20000)
	}
	if c.hits == 0 || c.misses == 0 {
		t.Fatalf("hits = %d misses = %d; the batch must exercise both", c.hits, c.misses)
	}
}
