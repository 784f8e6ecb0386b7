// Package ring is a deterministic consistent-hash ring over canonical
// result-cache keys: it decides, for any content hash, which peer of a
// predictd cluster owns the entry — and which peers stand next in line
// when the owner is down, draining, or shedding.
//
// Three properties carry the cluster's correctness story:
//
//   - Cross-process determinism. Every placement is a pure function of
//     (members, replicas, salt): virtual-node points come from an
//     explicit FNV-1a over length-framed inputs, members are sorted
//     before placement, and no map is ever iterated. Two routers built
//     from the same configuration — in different processes, on
//     different days — agree about every owner, which is what lets any
//     router instance route any key to the peer whose cache holds it.
//
//   - Minimal disruption. A member owns exactly the arcs behind its own
//     virtual points. Removing it frees only those arcs (each adopted
//     by the next point clockwise); adding it claims only the arcs its
//     new points split. Every other key keeps its owner, so a
//     membership change invalidates the smallest possible slice of
//     cluster-wide cache locality — the classic consistent-hashing
//     guarantee, property-tested in ring_test.go.
//
//   - Ordered failover. Owners(key, n) returns n *distinct* members in
//     clockwise order: the owner first, then the natural successors.
//     The router fails over along exactly this list, so a key's
//     fallback peer is as stable as its owner.
//
// The Salt exists for tests and for operators running several disjoint
// rings over one peer set: it perturbs every placement deterministically
// without touching member identity.
package ring

import (
	"fmt"
	"sort"
)

// Config tunes ring construction. The zero value selects the defaults.
type Config struct {
	// Replicas is the number of virtual points per member; more points
	// smooth the load split at the cost of a larger table. Values < 1
	// select 128.
	Replicas int
	// Salt perturbs every point placement deterministically. Two rings
	// with different salts carve the key space independently.
	Salt string
}

func (c Config) withDefaults() Config {
	if c.Replicas < 1 {
		c.Replicas = 128
	}
	return c
}

// Ring is an immutable consistent-hash ring. Build with New; derive
// changed memberships with Add/Remove. Immutability is what makes the
// router's concurrent lookups trivially safe — a membership change
// swaps a pointer, never mutates a table under readers.
type Ring struct {
	cfg     Config
	members []string // sorted, unique
	points  []point  // sorted by hash, ties by (member, replica)
}

// point is one virtual node: a position on the 64-bit circle and the
// member that owns the arc ending there.
type point struct {
	hash    uint64
	member  int32 // index into members
	replica int32 // which virtual node of that member (tie-break only)
}

// New builds a ring over members. Members must be non-empty and unique;
// order does not matter (they are sorted before placement, so any
// process that knows the set builds the identical ring).
func New(members []string, cfg Config) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("ring: no members")
	}
	cfg = cfg.withDefaults()
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	for i, m := range sorted {
		if m == "" {
			return nil, fmt.Errorf("ring: empty member name")
		}
		if i > 0 && sorted[i-1] == m {
			return nil, fmt.Errorf("ring: duplicate member %q", m)
		}
	}
	r := &Ring{
		cfg:     cfg,
		members: sorted,
		points:  make([]point, 0, len(sorted)*cfg.Replicas),
	}
	for mi, m := range sorted {
		for v := 0; v < cfg.Replicas; v++ {
			r.points = append(r.points, point{
				hash:    pointHash(cfg.Salt, m, v),
				member:  int32(mi),
				replica: int32(v),
			})
		}
	}
	// Hash ties (vanishingly rare but possible) resolve by member name
	// then replica index, so the table order — and therefore every
	// ownership answer — is a pure function of the configuration.
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		if a.member != b.member {
			return r.members[a.member] < r.members[b.member]
		}
		return a.replica < b.replica
	})
	return r, nil
}

// Members returns the member set in sorted order. The slice is shared;
// callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// Fingerprint is a deterministic checksum of the ring's entire
// geometry — configuration, members, and every virtual point in table
// order — rendered as 16 hex digits. Two parties (a router and a peer,
// or two router replicas) that report the same fingerprint agree about
// every ownership decision, because the point table is a pure function
// of what the fingerprint covers; comparing 16 bytes replaces
// comparing member lists plus salts plus replica counts. Golden
// vectors in ring_test.go pin the value per configuration, so an
// accidental change to point placement — which would strand every
// cached entry on the wrong peer — fails loudly.
func (r *Ring) Fingerprint() string {
	h := fnv64(fnvOffset)
	h.str("loggpsim/ring/fingerprint/v1")
	h.str(r.cfg.Salt)
	h.u64(uint64(r.cfg.Replicas))
	h.u64(uint64(len(r.members)))
	for _, m := range r.members {
		h.str(m)
	}
	for _, p := range r.points {
		h.u64(p.hash)
		h.u64(uint64(p.member))
		h.u64(uint64(p.replica))
	}
	return fmt.Sprintf("%016x", fmix64(uint64(h)))
}

// Owner returns the member owning key — the first virtual point at or
// clockwise after the key's position.
func (r *Ring) Owner(key []byte) string {
	return r.members[r.points[r.find(key)].member]
}

// Owners returns up to n distinct members in clockwise order from the
// key's position: the owner first, then the failover successors. n is
// clamped to the member count.
func (r *Ring) Owners(key []byte, n int) []string {
	if n > len(r.members) {
		n = len(r.members)
	}
	if n < 1 {
		return nil
	}
	out := make([]string, 0, n)
	seen := make([]bool, len(r.members))
	for i, start := 0, r.find(key); len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// find returns the index of the first point at or clockwise after the
// key's position, wrapping past the top of the circle.
func (r *Ring) find(key []byte) int {
	h := keyHash(r.cfg.Salt, key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Add returns a new ring with member added. The original is unchanged.
func (r *Ring) Add(member string) (*Ring, error) {
	return New(append(append([]string(nil), r.members...), member), r.cfg)
}

// Remove returns a new ring without member. The original is unchanged.
func (r *Ring) Remove(member string) (*Ring, error) {
	rest := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != member {
			rest = append(rest, m)
		}
	}
	if len(rest) == len(r.members) {
		return nil, fmt.Errorf("ring: %q is not a member", member)
	}
	return New(rest, r.cfg)
}

// FNV-1a, written out so the hash is visibly a pure function of its
// framed inputs: no process seed (unlike hash/maphash), no global
// state, identical in every process that runs this code.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type fnv64 uint64

func (h *fnv64) bytes(p []byte) {
	x := uint64(*h)
	for _, b := range p {
		x = (x ^ uint64(b)) * fnvPrime
	}
	*h = fnv64(x)
}

func (h *fnv64) str(s string) {
	// Length prefix first: ("ab","c") and ("a","bc") must not collide.
	h.u64(uint64(len(s)))
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x = (x ^ uint64(s[i])) * fnvPrime
	}
	*h = fnv64(x)
}

func (h *fnv64) u64(v uint64) {
	var p [8]byte
	for i := range p {
		p[i] = byte(v >> (8 * i))
	}
	h.bytes(p[:])
}

// fmix64 is the murmur3 finalizer: FNV-1a alone avalanches poorly in
// its high bits for short inputs (sequential keys land on one tiny arc
// of the circle), and the ring positions points by exactly those high
// bits. The mixer is a fixed bijection — still a pure function of the
// input, still identical in every process.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// pointHash places one virtual node: a function of (salt, member,
// replica) only.
func pointHash(salt, member string, replica int) uint64 {
	h := fnv64(fnvOffset)
	h.str("loggpsim/ring/point/v1")
	h.str(salt)
	h.str(member)
	h.u64(uint64(replica))
	return fmix64(uint64(h))
}

// Stagger derives a deterministic fraction in [0,1) from (name,
// attempt). The cluster router spaces retry and reprobe schedules with
// it: different peers (and successive attempts at one peer) land at
// different offsets, which is what randomized jitter buys, but the
// schedule is a pure function of its inputs — the determinism
// discipline's replacement for math/rand jitter.
func Stagger(name string, attempt int) float64 {
	h := fnv64(fnvOffset)
	h.str("loggpsim/ring/stagger/v1")
	h.str(name)
	h.u64(uint64(attempt))
	return float64(fmix64(uint64(h))>>11) / (1 << 53)
}

// keyHash positions a key on the circle, in a domain separated from the
// point placements so a key can never collide with a member's own
// encoding by construction.
func keyHash(salt string, key []byte) uint64 {
	h := fnv64(fnvOffset)
	h.str("loggpsim/ring/key/v1")
	h.str(salt)
	h.u64(uint64(len(key)))
	h.bytes(key)
	return fmix64(uint64(h))
}
