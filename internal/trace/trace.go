// Package trace represents the communication steps that the simulators
// replay: directed multigraphs whose nodes are processors and whose edges
// are messages with byte lengths (the paper's Section 4 input format).
//
// Message order matters: the messages a processor sends are queued in the
// order they appear in the pattern, which the standard simulation
// algorithm honours ("send available messages as soon as possible", in
// queue order).
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Msg is one message of a communication step.
//
// Its fields are int32, so a message takes 12 bytes. A program is its
// messages and operations, and at the paper's scale (blocked GE, N=960,
// b=8) it holds over a million messages: the field width sets most of
// a program's memory. Processor indices and sizes therefore range over
// int32 (sizes up to 2^31−1 bytes); the JSON form is unchanged.
// Add and AddLocal store a src, dst or size outside int32 as -1, which
// Validate rejects, so a bad value never wraps into an in-range index
// or a positive size; Decode refuses such a JSON number outright.
type Msg struct {
	// Src and Dst are processor indices in [0, P).
	Src int32 `json:"src"`
	Dst int32 `json:"dst"`
	// Bytes is the message length; must be at least 1.
	Bytes int32 `json:"bytes"`
}

// Pattern is one communication step: the set of messages exchanged, with
// per-source ordering given by slice order.
type Pattern struct {
	// P is the number of processors participating in the step.
	P int `json:"p"`
	// Msgs lists the messages. For a fixed Src, earlier entries are
	// sent earlier.
	Msgs []Msg `json:"msgs"`
	// AllowLocal declares that self messages (src == dst) in this
	// pattern are intentional local memory transfers: the LogGP
	// simulators skip them and the machine emulator charges a
	// memory-copy cost. Without the flag Validate rejects self messages,
	// so an accidental self-send is caught before it silently vanishes
	// inside a scheduler. Generators that deliberately model co-located
	// data movement (GE, Cannon, stencil, triangular solve, capture) set
	// it via AddLocal or WithLocalTransfers.
	AllowLocal bool `json:"allow_local,omitempty"`
}

// New returns an empty pattern over p processors.
func New(p int) *Pattern {
	return &Pattern{P: p}
}

// Add appends a message of the given size and returns the pattern for
// chaining. A self message (src == dst) added through Add is rejected by
// Validate — and therefore by every scheduler entry point — unless the
// pattern allows local transfers; intentional local transfers go through
// AddLocal (or WithLocalTransfers), keeping Add chainable and panic-free
// while still catching accidental self-sends before they reach the
// schedulers.
//
// A src, dst or bytes outside int32 is stored as -1 (see Msg).
func (pt *Pattern) Add(src, dst, bytes int) *Pattern {
	pt.Msgs = append(pt.Msgs, Msg{Src: narrow(src), Dst: narrow(dst), Bytes: narrow(bytes)})
	return pt
}

// narrow converts v to a Msg field: -1, which Validate rejects both as
// a processor index and as a size, when v lies outside int32.
func narrow(v int) int32 {
	if v != int(int32(v)) {
		return -1
	}
	return int32(v)
}

// AddLocal appends an intentional local transfer (a self message on proc)
// and marks the pattern as allowing them.
func (pt *Pattern) AddLocal(proc, bytes int) *Pattern {
	pt.AllowLocal = true
	return pt.Add(proc, proc, bytes)
}

// WithLocalTransfers marks the pattern as deliberately carrying self
// messages (local memory transfers) and returns it for chaining.
func (pt *Pattern) WithLocalTransfers() *Pattern {
	pt.AllowLocal = true
	return pt
}

// Validate checks processor bounds, message sizes, and — unless the
// pattern declares AllowLocal — the absence of self messages. Unlike the
// schedulers' historical first-error behaviour it accumulates every
// violation and returns them as one joined error (errors.Join), so a
// malformed generated pattern reports all of its defects at once.
//
// Self messages (src == dst) are only legal when flagged via AllowLocal /
// AddLocal / WithLocalTransfers: the LogGP simulators skip them (the
// paper treats them as local memory transfers) while the machine
// emulator charges a memory-copy cost; an unflagged one is almost always
// a generator bug and is rejected before it can reach the schedulers.
func (pt *Pattern) Validate() error {
	if pt.P <= 0 {
		return fmt.Errorf("trace: pattern has no processors (P=%d)", pt.P)
	}
	var errs []error
	for i, m := range pt.Msgs {
		if m.Src < 0 || int(m.Src) >= pt.P {
			errs = append(errs, fmt.Errorf("trace: msg %d: src %d out of range [0,%d)", i, m.Src, pt.P))
		}
		if m.Dst < 0 || int(m.Dst) >= pt.P {
			errs = append(errs, fmt.Errorf("trace: msg %d: dst %d out of range [0,%d)", i, m.Dst, pt.P))
		}
		if m.Bytes < 1 {
			errs = append(errs, fmt.Errorf("trace: msg %d: size %d bytes; must be >= 1", i, m.Bytes))
		}
		if m.Src == m.Dst && !pt.AllowLocal {
			errs = append(errs, fmt.Errorf("trace: msg %d: self message %d->%d; local transfers must be declared with AddLocal or WithLocalTransfers", i, m.Src, m.Dst))
		}
	}
	return errors.Join(errs...)
}

// FormatCycle renders a witness cycle as "P3 -> P5 -> P3" (0-based
// processor indices).
func FormatCycle(cycle []int) string {
	if len(cycle) == 0 {
		return "(none)"
	}
	var b strings.Builder
	for _, p := range cycle {
		fmt.Fprintf(&b, "P%d -> ", p)
	}
	fmt.Fprintf(&b, "P%d", cycle[0])
	return b.String()
}

// Clone returns a deep copy of the pattern.
func (pt *Pattern) Clone() *Pattern {
	c := &Pattern{P: pt.P, Msgs: make([]Msg, len(pt.Msgs)), AllowLocal: pt.AllowLocal}
	copy(c.Msgs, pt.Msgs)
	return c
}

// SendQueues returns, for each processor, the indices into Msgs of the
// messages it sends, in send order. Self messages are included; callers
// that ignore them filter explicitly.
func (pt *Pattern) SendQueues() [][]int {
	q := make([][]int, pt.P)
	for i, m := range pt.Msgs {
		q[m.Src] = append(q[m.Src], i)
	}
	return q
}

// InDegrees returns the number of messages each processor receives
// (excluding self messages, which never cross the network).
func (pt *Pattern) InDegrees() []int {
	d := make([]int, pt.P)
	for _, m := range pt.Msgs {
		if m.Src != m.Dst {
			d[m.Dst]++
		}
	}
	return d
}

// OutDegrees returns the number of messages each processor sends
// (excluding self messages).
func (pt *Pattern) OutDegrees() []int {
	d := make([]int, pt.P)
	for _, m := range pt.Msgs {
		if m.Src != m.Dst {
			d[m.Src]++
		}
	}
	return d
}

// TotalBytes returns the total network volume of the step (self messages
// excluded), summed in int so it stays exact past int32.
func (pt *Pattern) TotalBytes() int {
	total := 0
	for _, m := range pt.Msgs {
		if m.Src != m.Dst {
			total += int(m.Bytes)
		}
	}
	return total
}

// NetworkMessages returns the number of messages that cross the network.
func (pt *Pattern) NetworkMessages() int {
	n := 0
	for _, m := range pt.Msgs {
		if m.Src != m.Dst {
			n++
		}
	}
	return n
}

// HasCycle reports whether the processor dependency graph (an edge from
// src to dst for every network message) contains a directed cycle. The
// worst-case algorithm deadlocks on cyclic patterns and must break them
// randomly (Section 4.2), so callers use this to anticipate that path.
// FindCycle additionally produces a minimal witness cycle.
func (pt *Pattern) HasCycle() bool {
	adj := make([][]int, pt.P)
	for _, m := range pt.Msgs {
		if m.Src != m.Dst {
			adj[m.Src] = append(adj[m.Src], int(m.Dst))
		}
	}
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make([]int, pt.P)
	var visit func(int) bool
	visit = func(u int) bool {
		state[u] = inStack
		for _, v := range adj[u] {
			switch state[v] {
			case inStack:
				return true
			case unvisited:
				if visit(v) {
					return true
				}
			}
		}
		state[u] = done
		return false
	}
	for u := 0; u < pt.P; u++ {
		if state[u] == unvisited && visit(u) {
			return true
		}
	}
	return false
}

// FindCycle returns a minimal witness cycle of the processor dependency
// graph — the processors of a shortest directed cycle, in order — or nil
// if the pattern is acyclic. Minimality makes the witness actionable:
// the reported processors really are mutually waiting on one another,
// with no incidental bystanders, which is what the static analyzer
// prints when it refuses to certify a pattern deadlock-free. It is
// CycleScratch.Find on fresh scratch.
func (pt *Pattern) FindCycle() []int {
	var cs CycleScratch
	return cs.Find(pt)
}

// CycleScratch is the working storage of a cycle search. A caller that
// searches many patterns, as the static analyzer does once per program
// step, keeps one and reuses it, so each search allocates only its
// witness. The zero value is ready to use; a CycleScratch must not be
// used concurrently.
type CycleScratch struct {
	work, arena []int
	adj         [][]int
}

// Find returns FindCycle's witness for pt, searching in the scratch's
// storage, which it grows to the largest pattern searched so far. The
// returned cycle does not share that storage.
func (cs *CycleScratch) Find(pt *Pattern) []int {
	p := pt.P
	// Deduplicated adjacency (multi-edges add nothing to cycle finding)
	// in first-occurrence order: the network messages' destinations
	// grouped by source in message order (a counting sort into one
	// arena), then each source's repeats dropped against a stamp per
	// destination.
	cs.work = grow(cs.work, 4*p+1)
	work := cs.work
	clear(work)
	off, next, stamp := work[:p+1], work[p+1:2*p+1], work[2*p+1:3*p+1]
	for _, m := range pt.Msgs {
		if m.Src != m.Dst {
			off[m.Src+1]++
		}
	}
	for s := 0; s < p; s++ {
		off[s+1] += off[s]
	}
	copy(next, off[:p])
	cs.arena = grow(cs.arena, off[p])
	arena := cs.arena
	for _, m := range pt.Msgs {
		if m.Src != m.Dst {
			arena[next[m.Src]] = int(m.Dst)
			next[m.Src]++
		}
	}
	cs.adj = grow(cs.adj, p)
	adj := cs.adj
	for s := 0; s < p; s++ {
		out := arena[off[s]:off[s]] // compacts in place: writes trail reads
		for _, v := range arena[off[s]:off[s+1]] {
			if stamp[v] != s+1 {
				stamp[v] = s + 1
				out = append(out, v)
			}
		}
		adj[s] = out
	}
	// Shortest cycle through each start vertex via BFS; the global
	// minimum over starts is a shortest cycle of the graph. O(P·(P+E))
	// on deduplicated edges — patterns are small next to simulation.
	var best []int
	dist, parent, queue := next, stamp, work[3*p+1:] // the sort is done with next and stamp
	for s := 0; s < p; s++ {
		for i := range dist {
			dist[i], parent[i] = -1, -1
		}
		dist[s] = 0
		queue[0] = s
		for head, tail := 0, 1; head < tail; head++ {
			u := queue[head]
			if best != nil && dist[u]+1 >= len(best) {
				continue // cannot improve on the best cycle found so far
			}
			for _, v := range adj[u] {
				if v == s {
					// Cycle s -> ... -> u -> s of length dist[u]+1.
					cyc := make([]int, 0, dist[u]+1)
					for w := u; w != -1; w = parent[w] {
						cyc = append(cyc, w)
					}
					// Reverse into s-first order.
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					if best == nil || len(cyc) < len(best) {
						best = cyc
					}
					continue
				}
				if dist[v] == -1 {
					dist[v], parent[v] = dist[u]+1, u
					queue[tail] = v
					tail++
				}
			}
		}
		if len(best) == 2 {
			break // no directed cycle is shorter than 2
		}
	}
	return best
}

// grow returns buf resized to n entries, reusing its backing when it is
// large enough and otherwise at least doubling it, so patterns that grow
// step by step reallocate it only logarithmically often; the contents
// are not cleared.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = make([]T, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// String summarizes the pattern.
func (pt *Pattern) String() string {
	return fmt.Sprintf("pattern{P=%d msgs=%d net=%d bytes=%d}",
		pt.P, len(pt.Msgs), pt.NetworkMessages(), pt.TotalBytes())
}

// Encode writes the pattern as JSON.
func (pt *Pattern) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pt)
}

// Decode reads a JSON pattern and validates it.
func Decode(r io.Reader) (*Pattern, error) {
	var pt Pattern
	if err := json.NewDecoder(r).Decode(&pt); err != nil {
		return nil, fmt.Errorf("trace: decoding pattern: %w", err)
	}
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	return &pt, nil
}
