// Package resultcache is the content-addressed result cache behind the
// prediction service: a sharded in-process LRU+TTL store keyed by
// canonical content hashes (see key.go).
//
// Why a result cache is safe here at all: every prediction layer in
// this repository is deterministic by construction — hash-seeded
// faults, worker-count-independent sweeps, bit-identical lane replays —
// so a response is a pure function of its canonical request. There is
// no staleness: an entry can never be wrong, only absent. That inverts
// the usual role of the TTL — it is a memory-pressure knob (how long
// cold entries may occupy RAM), not a correctness knob, and the default
// of "never expire" is sound.
//
// Design:
//
//   - Sharding. The key space is split over N independently-locked
//     shards (N rounded up to a power of two, selected by the key's
//     leading hash bits) so a hot server's hit path never convoys on
//     one mutex. Capacity is divided statically: each shard owns
//     MaxBytes/N bytes and MaxEntries/N entries, so shards never
//     coordinate. Anything shard-ordered that becomes observable
//     (statistics, occupancy) is produced by indexing the shard slice
//     in order — never by ranging a map (cmd/loggpvet enforces this).
//
//   - Bounded memory, cost-aware eviction. Each entry is charged its
//     response size against the byte budget and records the
//     recomputation cost its request was priced at by
//     analyze.EstimateWork. Eviction walks a small sample from the LRU
//     tail and evicts the cheapest-to-recompute candidate, so under
//     pressure the cache preferentially retains the entries whose loss
//     would cost the most simulator time (a deterministic, list-ordered
//     variant of GreedyDual-style policies).
//
//   - No coalescing here. The cache is a store: Get, Put, Export and
//     Stats. Concurrent misses for one key are coalesced by the caller
//     (internal/serve keys its own flight.Group with the cache key plus
//     the request's deadline and budget, so a follower never inherits
//     a degradation it did not ask for); whether an outcome is stored
//     is the caller's decision (Meta.Store), so degraded results can be
//     shared with coalesced requests without being cached.
package resultcache

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Cache. The zero value selects the defaults.
type Config struct {
	// Shards is the number of independently locked segments; rounded up
	// to a power of two. Zero selects 16.
	Shards int
	// MaxBytes bounds the summed entry sizes; zero selects 256 MiB.
	// Negative disables the byte bound.
	MaxBytes int64
	// MaxEntries bounds the entry count; zero selects 65536. Negative
	// disables the entry bound.
	MaxEntries int
	// TTL is how long an entry may be served after it was stored. Zero
	// means entries never expire — sound, because entries are content-
	// addressed results of deterministic computations; the TTL only
	// bounds how long cold entries occupy memory.
	TTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.MaxBytes == 0 {
		c.MaxBytes = 256 << 20
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = 1 << 16
	}
	return c
}

// Meta describes one computed value to the cache.
type Meta struct {
	// Size is the bytes the entry charges against the byte budget
	// (the serve layer charges the encoded response body plus the
	// request bytes it keeps).
	Size int
	// Cost is the recomputation cost in analyze.Work units; eviction
	// under pressure prefers evicting low-cost entries.
	Cost float64
	// Store reports whether the value should be retained at all —
	// false for degraded or error outcomes, which are never cached.
	Store bool
}

// Stats is a counter snapshot (see Cache.Stats).
type Stats struct {
	// Hits and Misses count Get outcomes.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Stores counts retained values; Evictions capacity-pressure
	// removals; Expired TTL removals; Oversize values too large for a
	// shard's byte budget (never stored).
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
	Expired   int64 `json:"expired"`
	Oversize  int64 `json:"oversize"`
	// Entries and Bytes are current totals; Shards the per-shard
	// occupancy, indexed by shard number.
	Entries int64        `json:"entries"`
	Bytes   int64        `json:"bytes"`
	Shards  []ShardStats `json:"shards"`
}

// ShardStats is one shard's occupancy.
type ShardStats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Cache is a sharded content-addressed result cache. Construct with
// New; all methods are safe for concurrent use.
type Cache[V any] struct {
	cfg    Config
	mask   uint64
	shards []shard[V]
	now    func() time.Time // test seam; time.Now in production

	hits, misses, stores, evictions, expired, oversize atomic.Int64
}

type shard[V any] struct {
	mu         sync.Mutex
	index      map[Key]*list.Element
	lru        *list.List // front = most recently used; values are *entry[V]
	bytes      int64
	maxBytes   int64
	maxEntries int
}

type entry[V any] struct {
	key     Key
	val     V
	size    int64
	cost    float64
	expires int64 // unixnano; 0 = never
}

// evictSample is how many LRU-tail entries eviction considers before
// removing the cheapest-to-recompute among them. Small enough to be
// O(1), large enough that one expensive straggler at the tail does not
// pin the shard.
const evictSample = 4

// New builds a cache. The zero Config is usable.
func New[V any](cfg Config) *Cache[V] {
	cfg = cfg.withDefaults()
	c := &Cache[V]{
		cfg:    cfg,
		mask:   uint64(cfg.Shards - 1),
		shards: make([]shard[V], cfg.Shards),
		now:    time.Now,
	}
	perBytes := cfg.MaxBytes
	if perBytes > 0 {
		perBytes = cfg.MaxBytes / int64(cfg.Shards)
		if perBytes < 1 {
			perBytes = 1
		}
	}
	perEntries := cfg.MaxEntries
	if perEntries > 0 {
		perEntries = cfg.MaxEntries / cfg.Shards
		if perEntries < 1 {
			perEntries = 1
		}
	}
	for i := range c.shards {
		c.shards[i].index = make(map[Key]*list.Element)
		c.shards[i].lru = list.New()
		c.shards[i].maxBytes = perBytes
		c.shards[i].maxEntries = perEntries
	}
	return c
}

// shardFor selects by the key's leading hash bits — uniform, since the
// key is itself a cryptographic hash.
func (c *Cache[V]) shardFor(key Key) *shard[V] {
	idx := (uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
		uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56) & c.mask
	return &c.shards[idx]
}

// Get returns the value stored for key, if present and unexpired.
func (c *Cache[V]) Get(key Key) (V, bool) {
	var zero V
	s := c.shardFor(key)
	now := c.now().UnixNano()
	s.mu.Lock()
	el, ok := s.index[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return zero, false
	}
	e := el.Value.(*entry[V])
	if e.expires != 0 && now >= e.expires {
		s.remove(el, e)
		s.mu.Unlock()
		c.expired.Add(1)
		c.misses.Add(1)
		return zero, false
	}
	s.lru.MoveToFront(el)
	v := e.val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put stores v for key, charging meta.Size bytes and recording
// meta.Cost for eviction. A no-op when meta.Store is false or the value
// alone exceeds a shard's whole byte budget.
func (c *Cache[V]) Put(key Key, v V, meta Meta) {
	if !meta.Store {
		return
	}
	s := c.shardFor(key)
	size := int64(meta.Size)
	if size < 0 {
		size = 0
	}
	if s.maxBytes > 0 && size > s.maxBytes {
		c.oversize.Add(1)
		return
	}
	var expires int64
	if c.cfg.TTL > 0 {
		expires = c.now().Add(c.cfg.TTL).UnixNano()
	}
	s.mu.Lock()
	if el, ok := s.index[key]; ok {
		// Deterministic computations make a same-key overwrite a
		// same-value overwrite; refresh the entry in place.
		e := el.Value.(*entry[V])
		s.bytes += size - e.size
		e.val, e.size, e.cost, e.expires = v, size, meta.Cost, expires
		s.lru.MoveToFront(el)
	} else {
		e := &entry[V]{key: key, val: v, size: size, cost: meta.Cost, expires: expires}
		s.index[key] = s.lru.PushFront(e)
		s.bytes += size
	}
	evicted, expired := s.evictOver(c.now().UnixNano())
	s.mu.Unlock()
	c.stores.Add(1)
	c.evictions.Add(evicted)
	c.expired.Add(expired)
}

// remove unlinks el/e from the shard. Callers hold the shard lock.
func (s *shard[V]) remove(el *list.Element, e *entry[V]) {
	s.lru.Remove(el)
	delete(s.index, e.key)
	s.bytes -= e.size
}

// evictOver brings the shard back under its budgets, preferring expired
// entries and then the cheapest-to-recompute of a small LRU-tail
// sample. Callers hold the shard lock.
func (s *shard[V]) evictOver(now int64) (evicted, expired int64) {
	for (s.maxBytes > 0 && s.bytes > s.maxBytes) ||
		(s.maxEntries > 0 && s.lru.Len() > s.maxEntries) {
		var victim *list.Element
		var victimCost float64
		sampled := 0
		for el := s.lru.Back(); el != nil && sampled < evictSample; el = el.Prev() {
			e := el.Value.(*entry[V])
			if e.expires != 0 && now >= e.expires {
				victim = el
				break
			}
			// Strictly-smaller keeps ties on the least recently used.
			if victim == nil || e.cost < victimCost {
				victim, victimCost = el, e.cost
			}
			sampled++
		}
		if victim == nil {
			return evicted, expired // empty shard; nothing to do
		}
		e := victim.Value.(*entry[V])
		s.remove(victim, e)
		if e.expires != 0 && now >= e.expires {
			expired++
		} else {
			evicted++
		}
	}
	return evicted, expired
}

// Entry is one exported cache entry (see Export).
type Entry[V any] struct {
	Key  Key
	Val  V
	Size int64
	Cost float64
}

// Export snapshots up to limit live entries (limit <= 0 means all),
// interleaved across shards by recency rank: every shard's most recent
// live entry in shard index order, then every shard's second, and so
// on. A limit therefore keeps the hottest entries of every shard, and
// the result is a deterministic function of the cache state and
// recency order. Expired entries are skipped and take no rank. Export
// does not touch recency or the hit/miss counters — it is an
// observation, used by the cluster handoff pass to stream a draining
// peer's hot set to its successors.
func (c *Cache[V]) Export(limit int) []Entry[V] {
	if limit <= 0 {
		limit = int(^uint(0) >> 1)
	}
	now := c.now().UnixNano()
	// No shard can contribute more than limit entries, so each shard's
	// walk stops there; its lock is held only for its own walk.
	ranked := make([][]Entry[V], len(c.shards))
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil && len(ranked[i]) < limit; el = el.Next() {
			e := el.Value.(*entry[V])
			if e.expires != 0 && now >= e.expires {
				continue
			}
			ranked[i] = append(ranked[i], Entry[V]{Key: e.key, Val: e.val, Size: e.size, Cost: e.cost})
		}
		s.mu.Unlock()
		total += len(ranked[i])
	}
	want := min(total, limit)
	out := make([]Entry[V], 0, want)
	for rank := 0; len(out) < want; rank++ {
		for i := 0; i < len(ranked) && len(out) < want; i++ {
			if rank < len(ranked[i]) {
				out = append(out, ranked[i][rank])
			}
		}
	}
	return out
}

// Stats snapshots the counters and per-shard occupancy. The shard slice
// is indexed in shard order — an intentionally deterministic ordering
// (see the package comment on map iteration).
func (c *Cache[V]) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stores:    c.stores.Load(),
		Evictions: c.evictions.Load(),
		Expired:   c.expired.Load(),
		Oversize:  c.oversize.Load(),
		Shards:    make([]ShardStats, len(c.shards)),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Shards[i] = ShardStats{Entries: s.lru.Len(), Bytes: s.bytes}
		s.mu.Unlock()
		st.Entries += int64(st.Shards[i].Entries)
		st.Bytes += st.Shards[i].Bytes
	}
	return st
}
