// Package cache is the per-processor cache model shared by the machine
// emulator and the cache-aware predictor. The paper's measured running
// times diverge from its LogGP prediction at small block sizes because
// of cache effects, which the authors isolate by timing a "bring the
// blocks into the cache" section separately; the emulator reproduces
// that mechanism with this model, and the predictor charges the same
// loads in its cache-aware mode.
//
// The model is an LRU cache over variable-size objects (basic blocks and
// received message buffers) with a byte capacity — block granularity
// rather than line granularity, matching how the blocked algorithms
// touch memory. A block is named by its program.OpCall.Block id, and
// any uint64 is a valid id: no part of the id space is reserved. A
// received buffer is a fresh object that no later access can name, so
// it takes a place in recency order, and evicts or is evicted like a
// block, but is never indexed under an id and can never be hit. A
// program's touch order never depends on simulated time, so Warm
// replays it once and both consumers read the charges.
package cache

import (
	"fmt"

	"loggpsim/internal/program"
)

// Warming is one program's cache-loading charges: what each processor
// pays, step by step, to bring the objects its computation touches
// into its cache.
type Warming struct {
	// Charges[s][p] is processor p's loading charge, in microseconds,
	// in the computation phase of step s.
	Charges [][]float64
	// Max is the maximum over processors of the summed charges (the
	// paper's separately timed cache-warming section).
	Max float64
	// Hits and Misses count accesses over all processors.
	Hits, Misses int
}

// Warm replays the program's touch order through one LRU of capacity
// bytes per processor and prices every load at missFixed + missPerByte
// per byte. In each step a processor first loads the message buffers
// it received in the previous step's communication phase (always a
// miss: every buffer is a fresh object, held in recency order but under
// no id, so no block id can alias it), then touches the blocks its
// operations write (b×b float64s, a miss unless resident). Self
// messages are local copies and never load a buffer. The program must
// be valid (see program.Validate).
func Warm(pr *program.Program, capacity int, missFixed, missPerByte float64) *Warming {
	w := &Warming{Charges: make([][]float64, len(pr.Steps))}
	flat := make([]float64, len(pr.Steps)*pr.P)
	caches := make([]*lru, pr.P)
	for i := range caches {
		caches[i] = newLRU(capacity)
	}
	totals := make([]float64, pr.P)
	// pending holds, per processor, the byte sizes of the buffers
	// received in the previous communication phase.
	pending := make([][]int, pr.P)
	for s, step := range pr.Steps {
		charges := flat[s*pr.P : (s+1)*pr.P]
		w.Charges[s] = charges
		for proc, c := range caches {
			warm := 0.0
			for _, bytes := range pending[proc] {
				c.load(bytes)
				warm += missFixed + missPerByte*float64(bytes)
			}
			pending[proc] = pending[proc][:0]
			for _, call := range step.Comp[proc] {
				bytes := 8 * call.BlockSize * call.BlockSize
				if !c.access(call.Block, bytes) {
					warm += missFixed + missPerByte*float64(bytes)
				}
			}
			charges[proc] = warm
			totals[proc] += warm
		}
		for _, m := range step.Comm.Msgs {
			if m.Src != m.Dst {
				pending[m.Dst] = append(pending[m.Dst], m.Bytes)
			}
		}
	}
	for proc, c := range caches {
		if totals[proc] > w.Max {
			w.Max = totals[proc]
		}
		w.Hits += c.hits
		w.Misses += c.misses
	}
	return w
}

// lru is a byte-capacity LRU over variable-size objects. Objects live
// in parallel slot arrays linked into a circular recency list through
// slot 0, a sentinel: next[0] is the most recently used slot and
// prev[0] the least. Freed slots are chained through next from free
// (0 when there is none), so once the arrays and the index have grown
// to the working set no access allocates.
type lru struct {
	capacity int
	used     int

	prev, next []int32
	ids        []uint64 // a block's id; unused for a buffer
	sizes      []int
	indexed    []bool // the slot holds a block, found in index by its id
	free       int32
	index      map[uint64]int32 // block id → slot; buffers are not here

	hits, misses int
}

// newLRU returns a cache holding at most capacity bytes. A zero or
// negative capacity misses on every access.
func newLRU(capacity int) *lru {
	return &lru{
		capacity: capacity,
		prev:     []int32{0},
		next:     []int32{0},
		ids:      []uint64{0},
		sizes:    []int{0},
		indexed:  []bool{false},
		index:    make(map[uint64]int32),
	}
}

// access touches block id, returning true on a hit: the block is
// resident at the same size. On a miss the block is loaded and then
// indexed under its id. Re-accessing a resident block with a different
// size is treated as a miss of the new size (the old copy is dropped).
func (c *lru) access(id uint64, bytes int) bool {
	if s, ok := c.index[id]; ok {
		if c.sizes[s] == bytes {
			c.unlink(s)
			c.pushFront(s)
			c.hits++
			return true
		}
		c.remove(s)
	}
	if s := c.load(bytes); s != 0 {
		c.ids[s], c.indexed[s] = id, true
		c.index[id] = s
	}
	return false
}

// load counts a miss and brings in an object under no id: a received
// buffer, which no later access can name, or a block that access then
// indexes. It evicts least recently used objects until the object fits
// and returns the slot the object now occupies at the most recent end.
// An object larger than the whole capacity is not retained and evicts
// nothing: load returns 0.
func (c *lru) load(bytes int) int32 {
	if bytes < 0 {
		panic(fmt.Sprintf("cache: negative object size %d", bytes))
	}
	c.misses++
	if bytes > c.capacity {
		return 0
	}
	for c.used+bytes > c.capacity {
		c.remove(c.prev[0])
	}
	s := c.free
	if s != 0 {
		c.free = c.next[s]
	} else {
		s = int32(len(c.next))
		c.prev = append(c.prev, 0)
		c.next = append(c.next, 0)
		c.ids = append(c.ids, 0)
		c.sizes = append(c.sizes, 0)
		c.indexed = append(c.indexed, false)
	}
	c.sizes[s], c.indexed[s] = bytes, false
	c.used += bytes
	c.pushFront(s)
	return s
}

// remove evicts the object in slot s and frees the slot.
func (c *lru) remove(s int32) {
	c.unlink(s)
	if c.indexed[s] {
		delete(c.index, c.ids[s])
	}
	c.used -= c.sizes[s]
	c.next[s] = c.free
	c.free = s
}

func (c *lru) unlink(s int32) {
	c.next[c.prev[s]] = c.next[s]
	c.prev[c.next[s]] = c.prev[s]
}

func (c *lru) pushFront(s int32) {
	c.prev[s] = 0
	c.next[s] = c.next[0]
	c.prev[c.next[0]] = s
	c.next[0] = s
}
