// Package eventq provides the priority-queue machinery used by the
// simulators: a time-keyed min-heap that is stable (entries with equal
// keys come out in insertion order), so simulation runs are fully
// deterministic, and Tournament, the tie-counting selection tree the
// scheduler cores pick their next processor from.
package eventq

// Queue is a min-heap of values keyed by a float64 time stamp. Ties are
// broken by insertion order. The zero value is an empty queue ready to
// use.
type Queue[T any] struct {
	entries []entry[T]
	nextSeq uint64
}

type entry[T any] struct {
	key   float64
	seq   uint64
	value T
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return len(q.entries) }

// Empty reports whether the queue holds no values.
func (q *Queue[T]) Empty() bool { return len(q.entries) == 0 }

// Push inserts value with the given time key.
func (q *Queue[T]) Push(key float64, value T) {
	q.entries = append(q.entries, entry[T]{key: key, seq: q.nextSeq, value: value})
	q.nextSeq++
	q.up(len(q.entries) - 1)
}

// Peek returns the minimum-key value without removing it. It panics on an
// empty queue; check Empty first.
func (q *Queue[T]) Peek() (key float64, value T) {
	e := q.entries[0]
	return e.key, e.value
}

// Pop removes and returns the minimum-key value. It panics on an empty
// queue; check Empty first.
func (q *Queue[T]) Pop() (key float64, value T) {
	e := q.entries[0]
	last := len(q.entries) - 1
	q.entries[0] = q.entries[last]
	q.entries[last] = entry[T]{} // release the value for GC
	q.entries = q.entries[:last]
	if last > 0 {
		q.down(0)
	}
	return e.key, e.value
}

func (q *Queue[T]) less(i, j int) bool {
	a, b := q.entries[i], q.entries[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.entries[i], q.entries[parent] = q.entries[parent], q.entries[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.entries)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		small := left
		if right := left + 1; right < n && q.less(right, left) {
			small = right
		}
		if !q.less(small, i) {
			return
		}
		q.entries[i], q.entries[small] = q.entries[small], q.entries[i]
		i = small
	}
}

// Reserve grows the queue's backing storage so that at least n values can
// be pushed without further allocation. Pattern ingestion uses it to
// pre-size receive queues from the message counts instead of growing the
// heap incrementally. A growing Reserve at least doubles the capacity,
// so a queue reused across ever larger rounds reallocates a logarithmic
// number of times, not once per round.
func (q *Queue[T]) Reserve(n int) {
	if need := len(q.entries) + n; need > cap(q.entries) {
		grown := make([]entry[T], len(q.entries), max(need, 2*cap(q.entries)))
		copy(grown, q.entries)
		q.entries = grown
	}
}

// Clear empties the queue, keeping the backing storage for reuse and
// resetting the insertion-order counter, so a cleared queue behaves
// exactly like a zero-value one (equal-key ties come out in the order of
// the pushes that follow).
func (q *Queue[T]) Clear() {
	clear(q.entries) // release held values for GC
	q.entries = q.entries[:0]
	q.nextSeq = 0
}

// Drain removes all values in key order and returns them. It is
// DrainInto(nil).
func (q *Queue[T]) Drain() []T {
	return q.DrainInto(nil)
}

// DrainInto removes all values in key order, appending them to dst and
// returning the extended slice. dst's existing backing is reused where
// possible, so a caller that drains repeatedly into the same buffer pays
// no steady-state allocation; the queue's own entry storage is likewise
// retained for the next round of pushes.
func (q *Queue[T]) DrainInto(dst []T) []T {
	if need := len(dst) + q.Len(); need > cap(dst) {
		grown := make([]T, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for !q.Empty() {
		_, v := q.Pop()
		dst = append(dst, v)
	}
	return dst
}
