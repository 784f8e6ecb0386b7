package resultcache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func keyOf(parts ...string) Key {
	b := NewKeyBuilder("test")
	for _, p := range parts {
		b.String(p)
	}
	return b.Sum()
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New[string](Config{})
	k := keyOf("a")
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Put(k, "value", Meta{Size: 5, Cost: 1, Store: true})
	v, ok := c.Get(k)
	if !ok || v != "value" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 || st.Entries != 1 || st.Bytes != 5 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStoreFalseIsNotRetained(t *testing.T) {
	c := New[string](Config{})
	k := keyOf("degraded")
	c.Put(k, "nope", Meta{Size: 4, Store: false})
	if _, ok := c.Get(k); ok {
		t.Fatal("Store:false value was retained")
	}
}

func TestEntryCapEvictsLeastRecentlyUsed(t *testing.T) {
	// One shard so the LRU order is globally observable.
	c := New[int](Config{Shards: 1, MaxEntries: 3, MaxBytes: -1})
	ks := make([]Key, 4)
	for i := range ks {
		ks[i] = keyOf(fmt.Sprint(i))
	}
	for i := 0; i < 3; i++ {
		c.Put(ks[i], i, Meta{Size: 1, Cost: 1, Store: true})
	}
	c.Get(ks[0]) // refresh 0; 1 is now the LRU tail
	c.Put(ks[3], 3, Meta{Size: 1, Cost: 1, Store: true})
	if _, ok := c.Get(ks[1]); ok {
		t.Fatal("LRU entry survived the entry cap")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.Get(ks[i]); !ok {
			t.Fatalf("entry %d evicted, want LRU victim only", i)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestByteCapEnforced(t *testing.T) {
	c := New[int](Config{Shards: 1, MaxBytes: 100, MaxEntries: -1})
	for i := 0; i < 10; i++ {
		c.Put(keyOf(fmt.Sprint(i)), i, Meta{Size: 30, Cost: 1, Store: true})
	}
	if st := c.Stats(); st.Bytes > 100 {
		t.Fatalf("resident bytes %d exceed the 100-byte budget", st.Bytes)
	}
}

func TestCostAwareEvictionPrefersCheapEntries(t *testing.T) {
	c := New[int](Config{Shards: 1, MaxEntries: 3, MaxBytes: -1})
	cheap, exp1, exp2 := keyOf("cheap"), keyOf("exp1"), keyOf("exp2")
	// Insert the expensive entries first so "cheap" is the most
	// recently used — pure LRU would evict exp1, cost-aware eviction
	// must pick the cheap one despite its recency.
	c.Put(exp1, 1, Meta{Size: 1, Cost: 1e6, Store: true})
	c.Put(exp2, 2, Meta{Size: 1, Cost: 1e6, Store: true})
	c.Put(cheap, 3, Meta{Size: 1, Cost: 1, Store: true})
	c.Put(keyOf("new"), 4, Meta{Size: 1, Cost: 1e6, Store: true})
	if _, ok := c.Get(cheap); ok {
		t.Fatal("cheap entry survived; eviction is not cost-aware")
	}
	for _, k := range []Key{exp1, exp2} {
		if _, ok := c.Get(k); !ok {
			t.Fatal("expensive entry evicted while a cheap one was in the sample")
		}
	}
}

func TestTTLExpiresLazily(t *testing.T) {
	c := New[int](Config{TTL: time.Minute})
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }
	k := keyOf("t")
	c.Put(k, 7, Meta{Size: 1, Cost: 1, Store: true})
	if _, ok := c.Get(k); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get(k); ok {
		t.Fatal("expired entry served")
	}
	st := c.Stats()
	if st.Expired != 1 || st.Entries != 0 {
		t.Fatalf("stats after expiry %+v", st)
	}
}

func TestOversizeValueNotStored(t *testing.T) {
	c := New[int](Config{Shards: 1, MaxBytes: 64})
	c.Put(keyOf("big"), 1, Meta{Size: 65, Cost: 1, Store: true})
	if st := c.Stats(); st.Entries != 0 || st.Oversize != 1 {
		t.Fatalf("oversize store leaked in: %+v", st)
	}
}

func TestShardOccupancyIsReported(t *testing.T) {
	c := New[int](Config{Shards: 4})
	for i := 0; i < 64; i++ {
		c.Put(keyOf(fmt.Sprint(i)), i, Meta{Size: 8, Cost: 1, Store: true})
	}
	st := c.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("shard stats length %d, want 4", len(st.Shards))
	}
	var total int64
	populated := 0
	for _, s := range st.Shards {
		total += int64(s.Entries)
		if s.Entries > 0 {
			populated++
		}
	}
	if total != 64 || st.Entries != 64 {
		t.Fatalf("occupancy does not add up: %+v", st)
	}
	// SHA-256 keys spread essentially uniformly; with 64 keys over 4
	// shards every shard is populated with overwhelming probability.
	if populated != 4 {
		t.Fatalf("only %d of 4 shards populated", populated)
	}
}

func TestPutRefreshAdjustsBytes(t *testing.T) {
	c := New[int](Config{Shards: 1})
	k := keyOf("r")
	c.Put(k, 1, Meta{Size: 10, Cost: 1, Store: true})
	c.Put(k, 1, Meta{Size: 4, Cost: 1, Store: true})
	if st := c.Stats(); st.Bytes != 4 || st.Entries != 1 {
		t.Fatalf("refresh accounting broken: %+v", st)
	}
}

// TestConcurrentMixedUse is the package's -race soak: readers, writers,
// read-through fills and statistics snapshots hammer a tiny cache whose
// budgets force constant eviction.
func TestConcurrentMixedUse(t *testing.T) {
	c := New[int](Config{Shards: 4, MaxEntries: 32, MaxBytes: 1 << 12})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keyOf(fmt.Sprint(i % 48))
				switch i % 3 {
				case 0:
					c.Put(k, i, Meta{Size: 64, Cost: float64(i), Store: true})
				case 1:
					c.Get(k)
				default:
					if _, ok := c.Get(k); !ok {
						c.Put(k, i, Meta{Size: 64, Cost: float64(i), Store: true})
					}
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > 32 || st.Bytes > 1<<12 {
		t.Fatalf("budgets exceeded after soak: %+v", st)
	}
}

func TestExportSnapshotsLiveEntriesHottestFirst(t *testing.T) {
	// One shard so the LRU walk order is globally observable.
	c := New[string](Config{Shards: 1, MaxBytes: -1, MaxEntries: -1})
	ks := make([]Key, 3)
	for i := range ks {
		ks[i] = keyOf(fmt.Sprint("export-", i))
		c.Put(ks[i], fmt.Sprint("v", i), Meta{Size: 2, Cost: float64(i), Store: true})
	}
	// Touch entry 0 so it is hottest again: expected order 0, 2, 1.
	if _, ok := c.Get(ks[0]); !ok {
		t.Fatal("missing primed entry")
	}
	got := c.Export(0)
	if len(got) != 3 {
		t.Fatalf("Export returned %d entries, want 3", len(got))
	}
	wantOrder := []Key{ks[0], ks[2], ks[1]}
	for i, e := range got {
		if e.Key != wantOrder[i] {
			t.Fatalf("Export[%d].Key = %s, want %s", i, e.Key, wantOrder[i])
		}
	}
	if got[0].Val != "v0" || got[0].Size != 2 || got[0].Cost != 0 {
		t.Fatalf("Export[0] = %+v", got[0])
	}
	if lim := c.Export(2); len(lim) != 2 || lim[0].Key != ks[0] || lim[1].Key != ks[2] {
		t.Fatalf("Export(2) = %d entries, want the 2 hottest", len(lim))
	}
	// Export must not perturb recency or the hit/miss counters.
	before := c.Stats()
	c.Export(0)
	after := c.Stats()
	if before.Hits != after.Hits || before.Misses != after.Misses {
		t.Fatal("Export moved the hit/miss counters")
	}
}

// TestExportInterleavesShardsByRecency pins the limit contract: a
// limit of one entry per shard returns every non-empty shard's most
// recent entry, in shard order, instead of filling up from shard 0's
// whole LRU list.
func TestExportInterleavesShardsByRecency(t *testing.T) {
	const shards = 4
	c := New[int](Config{Shards: shards, MaxBytes: -1, MaxEntries: -1})
	shardOf := func(k Key) int {
		s := c.shardFor(k)
		for i := range c.shards {
			if &c.shards[i] == s {
				return i
			}
		}
		t.Fatalf("key %s maps to no shard", k)
		return -1
	}
	var newest [shards]*Key
	for i := 0; i < 16*shards; i++ {
		k := keyOf(fmt.Sprint("interleave-", i))
		c.Put(k, i, Meta{Size: 1, Cost: 1, Store: true})
		newest[shardOf(k)] = &k
	}
	var want []Key
	for _, k := range newest {
		if k != nil {
			want = append(want, *k)
		}
	}
	got := c.Export(shards)
	if len(got) != len(want) {
		t.Fatalf("Export(%d) returned %d entries, want %d (one per non-empty shard)", shards, len(got), len(want))
	}
	for i, e := range got {
		if e.Key != want[i] {
			t.Errorf("Export(%d)[%d] = %s (shard %d), want %s (shard %d)",
				shards, i, e.Key, shardOf(e.Key), want[i], shardOf(want[i]))
		}
	}
}

func TestExportSkipsExpiredEntries(t *testing.T) {
	c := New[string](Config{Shards: 1, TTL: time.Minute})
	now := time.Unix(0, 0)
	c.now = func() time.Time { return now }
	c.Put(keyOf("stale"), "old", Meta{Size: 3, Cost: 1, Store: true})
	now = now.Add(2 * time.Minute)
	c.Put(keyOf("fresh"), "new", Meta{Size: 3, Cost: 1, Store: true})
	got := c.Export(0)
	if len(got) != 1 || got[0].Val != "new" {
		t.Fatalf("Export = %+v, want only the fresh entry", got)
	}
}
