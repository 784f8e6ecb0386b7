package eventq

import "math"

// Tournament is a fixed-size tie-counting min-tree over the indices
// 0..n-1, each carrying a float64 key; indices with no candidate hold
// +Inf. It is the one selection structure behind every indexed
// scheduler core: after a commit only one or two processors' keys move,
// so the minimum must not cost a full rescan.
//
// Every node holds its subtree's minimum key and the number of leaves
// holding it. Update re-merges the log n nodes on one leaf's path; Min
// and Nth descend from the root in log n steps. The tree answers the
// two selections the reference schedulers make with their ascending
// linear scans: the lowest index at the minimum (a strict-less scan's
// winner, Min) and the k-th member of the equal-minimum set in
// ascending index order (the Figure-2 loop's random tie-break, Nth with
// k drawn over Ties).
type Tournament struct {
	n    int
	base int       // number of leaves (power of two >= n)
	min  []float64 // min[v] = smallest key under node v; nodes 1..2*base-1, leaf i at base+i
	cnt  []int32   // cnt[v] = leaves under node v holding min[v]; 0 when min[v] is +Inf
}

// Reset re-dimensions the tree for n indices and sets every key to +Inf,
// reusing the previous storage when it is large enough.
func (t *Tournament) Reset(n int) {
	t.n = max(n, 0)
	base := 1
	for base < n {
		base <<= 1
	}
	t.base = base
	if cap(t.min) < 2*base {
		t.min = make([]float64, 2*base)
		t.cnt = make([]int32, 2*base)
	}
	t.min, t.cnt = t.min[:2*base], t.cnt[:2*base]
	inf := math.Inf(1)
	for v := range t.min {
		t.min[v] = inf
	}
	clear(t.cnt)
}

// Update sets index i's key and re-merges the nodes above it. Merging
// is symmetric — the smaller minimum wins, equal minima add their
// counts — so each level reads only the sibling of the path node.
func (t *Tournament) Update(i int, key float64) {
	mn, cn := t.min, t.cnt
	v := t.base + i
	c := int32(0)
	if !math.IsInf(key, 1) {
		c = 1
	}
	mn[v], cn[v] = key, c
	for v > 1 {
		sk, sc := mn[v^1], cn[v^1]
		v >>= 1
		if sk < key {
			key, c = sk, sc
		} else if sk == key {
			c += sc
		}
		mn[v], cn[v] = key, c
	}
}

// Ties returns how many indices hold the minimum key, and 0 when every
// key is +Inf.
func (t *Tournament) Ties() int {
	if t.n == 0 {
		return 0
	}
	return int(t.cnt[1])
}

// Nth returns the k-th (counting from zero) of the indices holding the
// minimum key, in ascending index order. k must lie in [0, Ties()).
func (t *Tournament) Nth(k int) int {
	mn, cn, base := t.min, t.cnt, t.base
	m := mn[1]
	v := 1
	for v < base {
		v <<= 1 // left child; v+1 is the right
		if mn[v] != m {
			v++
		} else if c := int(cn[v]); k >= c {
			k -= c
			v++
		}
	}
	return v - base
}

// Min returns the lowest index holding the smallest key, and that key.
// When every key is +Inf it returns -1.
func (t *Tournament) Min() (int, float64) {
	if t.Ties() == 0 {
		return -1, math.Inf(1)
	}
	return t.Nth(0), t.min[1]
}
