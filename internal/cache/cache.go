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
// touch memory. A program's touch order never depends on simulated
// time, so Warm replays it once and both consumers read the charges.
package cache

import (
	"container/list"
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
// miss: every buffer is a fresh object), then touches the blocks its
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
	nextBufferID := uint64(1) << 32 // distinct from block ids
	for s, step := range pr.Steps {
		charges := flat[s*pr.P : (s+1)*pr.P]
		w.Charges[s] = charges
		for proc, c := range caches {
			warm := 0.0
			for _, bytes := range pending[proc] {
				c.access(nextBufferID, bytes)
				nextBufferID++
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

// lru is a byte-capacity LRU over variable-size objects.
type lru struct {
	capacity int
	used     int
	order    *list.List // front = most recently used; values are *entry
	index    map[uint64]*list.Element

	hits, misses int
}

type entry struct {
	id    uint64
	bytes int
}

// newLRU returns a cache holding at most capacity bytes. A zero or
// negative capacity misses on every access.
func newLRU(capacity int) *lru {
	return &lru{
		capacity: capacity,
		order:    list.New(),
		index:    make(map[uint64]*list.Element),
	}
}

// access touches the object, returning true on a hit. On a miss the
// object is loaded, evicting least-recently-used objects as needed; an
// object larger than the whole capacity is counted as a miss and not
// retained. Re-accessing a resident object with a different size is
// treated as a miss of the new size (the old copy is dropped).
func (c *lru) access(id uint64, bytes int) bool {
	if bytes < 0 {
		panic(fmt.Sprintf("cache: negative object size %d", bytes))
	}
	if el, ok := c.index[id]; ok {
		if el.Value.(*entry).bytes == bytes {
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
	c.index[id] = c.order.PushFront(&entry{id: id, bytes: bytes})
	c.used += bytes
	return false
}

func (c *lru) evict(el *list.Element) {
	e := el.Value.(*entry)
	c.order.Remove(el)
	delete(c.index, e.id)
	c.used -= e.bytes
}
