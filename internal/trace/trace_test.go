package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		pt   *Pattern
		ok   bool
	}{
		{"empty ok", New(4), true},
		{"simple", New(2).Add(0, 1, 8), true},
		{"self message flagged ok", New(2).AddLocal(1, 8), true},
		{"self message unflagged", New(2).Add(1, 1, 8), false},
		{"no processors", New(0), false},
		{"src out of range", New(2).Add(2, 0, 8), false},
		{"negative src", New(2).Add(-1, 0, 8), false},
		{"dst out of range", New(2).Add(0, 5, 8), false},
		{"zero bytes", New(2).Add(0, 1, 0), false},
		{"negative bytes", New(2).Add(0, 1, -4), false},
		// Values outside int32 are stored as -1, never wrapped.
		{"dst past int32 wraps in range", New(2).Add(0, 1<<32+1, 8), false},
		{"src past int32 wraps in range", New(2).Add(1<<32, 1, 8), false},
		{"bytes past int32 wraps negative", New(2).Add(0, 1, 1<<31), false},
		{"bytes past int32 wraps positive", New(2).Add(0, 1, 1<<32+8), false},
		{"local proc past int32", New(2).AddLocal(1<<32, 8), false},
		{"largest size", New(2).Add(0, 1, math.MaxInt32), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.pt.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

// A message is three int32 fields: a program's memory is mostly its
// messages.
func TestMsgIsTwelveBytes(t *testing.T) {
	if got := unsafe.Sizeof(Msg{}); got != 12 {
		t.Fatalf("Msg takes %d bytes, want 12", got)
	}
}

func TestSendQueuesPreserveOrder(t *testing.T) {
	pt := New(3).Add(0, 1, 8).Add(0, 2, 8).Add(1, 0, 8).Add(0, 1, 16)
	q := pt.SendQueues()
	if len(q[0]) != 3 || q[0][0] != 0 || q[0][1] != 1 || q[0][2] != 3 {
		t.Fatalf("proc 0 queue = %v, want [0 1 3]", q[0])
	}
	if len(q[1]) != 1 || q[1][0] != 2 {
		t.Fatalf("proc 1 queue = %v, want [2]", q[1])
	}
	if len(q[2]) != 0 {
		t.Fatalf("proc 2 queue = %v, want empty", q[2])
	}
}

func TestDegreesAndVolume(t *testing.T) {
	pt := New(3).Add(0, 1, 10).Add(0, 2, 20).Add(1, 2, 30).Add(2, 2, 99)
	in := pt.InDegrees()
	out := pt.OutDegrees()
	if in[0] != 0 || in[1] != 1 || in[2] != 2 {
		t.Errorf("InDegrees = %v", in)
	}
	if out[0] != 2 || out[1] != 1 || out[2] != 0 {
		t.Errorf("OutDegrees = %v (self message must not count)", out)
	}
	if got := pt.TotalBytes(); got != 60 {
		t.Errorf("TotalBytes = %d, want 60 (self message excluded)", got)
	}
	if got := pt.NetworkMessages(); got != 3 {
		t.Errorf("NetworkMessages = %d, want 3", got)
	}
}

// Sizes are int32 but their sums are int: three messages of the
// largest size total past int32 exactly.
func TestTotalBytesPastInt32(t *testing.T) {
	pt := New(2).Add(0, 1, math.MaxInt32).Add(1, 0, math.MaxInt32).Add(0, 1, math.MaxInt32)
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := pt.TotalBytes(), 3*math.MaxInt32; got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
}

func TestHasCycle(t *testing.T) {
	tests := []struct {
		name string
		pt   *Pattern
		want bool
	}{
		{"empty", New(3), false},
		{"chain", New(3).Add(0, 1, 1).Add(1, 2, 1), false},
		{"two cycle", New(2).Add(0, 1, 1).Add(1, 0, 1), true},
		{"ring", Ring(5, 1), true},
		{"self loop only", New(2).Add(0, 0, 1), false},
		{"diamond dag", New(4).Add(0, 1, 1).Add(0, 2, 1).Add(1, 3, 1).Add(2, 3, 1), false},
		{"figure3", Figure3(), false},
		{"back edge deep", New(4).Add(0, 1, 1).Add(1, 2, 1).Add(2, 3, 1).Add(3, 1, 1), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.pt.HasCycle(); got != tt.want {
				t.Fatalf("HasCycle() = %v, want %v", got, tt.want)
			}
		})
	}
}

// findCycleMap is FindCycle with the map-based edge dedup it had before
// the counting sort: the oracle for TestFindCycleMatchesMapOracle.
func findCycleMap(pt *Pattern) []int {
	adj := make([][]int, pt.P)
	seen := make(map[[2]int]bool, len(pt.Msgs))
	for _, m := range pt.Msgs {
		if m.Src == m.Dst {
			continue
		}
		k := [2]int{int(m.Src), int(m.Dst)}
		if !seen[k] {
			seen[k] = true
			adj[m.Src] = append(adj[m.Src], int(m.Dst))
		}
	}
	var best []int
	dist := make([]int, pt.P)
	parent := make([]int, pt.P)
	queue := make([]int, 0, pt.P)
	for s := 0; s < pt.P; s++ {
		for i := range dist {
			dist[i], parent[i] = -1, -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if best != nil && dist[u]+1 >= len(best) {
				continue
			}
			for _, v := range adj[u] {
				if v == s {
					cyc := make([]int, 0, dist[u]+1)
					for w := u; w != -1; w = parent[w] {
						cyc = append(cyc, w)
					}
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
					queue = append(queue, v)
				}
			}
		}
		if len(best) == 2 {
			break
		}
	}
	return best
}

// TestFindCycleMatchesMapOracle holds FindCycle's witness to the map
// version's on random patterns of up to 64 processors: mostly forward
// edges with a few back edges, so both acyclic patterns and cycles of
// many lengths occur, plus self messages and repeated edges. The
// witness depends on each source's first-occurrence edge order, so any
// reordering of the adjacency shows.
func TestFindCycleMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cyclic := 0
	for i := 0; i < 2000; i++ {
		p := 1 + rng.Intn(64)
		pt := New(p)
		for n := rng.Intn(4 * p); n > 0; n-- {
			src, dst := rng.Intn(p), rng.Intn(p)
			switch r := rng.Intn(10); {
			case r == 0:
				pt.AddLocal(src, 8)
			case r == 1 && len(pt.Msgs) > 0:
				m := pt.Msgs[rng.Intn(len(pt.Msgs))]
				pt.Add(int(m.Src), int(m.Dst), 8)
			case r < 9 && src > dst:
				pt.Add(dst, src, 8)
			default:
				pt.Add(src, dst, 8)
			}
		}
		got, want := pt.FindCycle(), findCycleMap(pt)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern %d (P=%d, %d msgs): FindCycle %v, map oracle %v", i, p, len(pt.Msgs), got, want)
		}
		if want != nil {
			cyclic++
		}
	}
	if cyclic < 200 || cyclic > 1800 {
		t.Fatalf("%d of 2000 random patterns are cyclic; the generator should mix both kinds", cyclic)
	}
}

// One CycleScratch reused across patterns of mixed sizes finds exactly
// the witnesses fresh scratch finds.
func TestCycleScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var cs CycleScratch
	for i := 0; i < 500; i++ {
		p := 1 + rng.Intn(48)
		pt := New(p)
		for n := rng.Intn(6 * p); n > 0; n-- {
			pt.Add(rng.Intn(p), rng.Intn(p), 8)
		}
		pt.AllowLocal = true
		got, want := cs.Find(pt), pt.FindCycle()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern %d (P=%d, %d msgs): reused scratch %v, fresh %v", i, p, len(pt.Msgs), got, want)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	pt := Figure3()
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	if pt.P != 10 {
		t.Fatalf("P = %d, want 10", pt.P)
	}
	if len(pt.Msgs) != 11 {
		t.Fatalf("message count = %d, want 11", len(pt.Msgs))
	}
	// Prose constraints (0-based): P4 (=3) receives from P1 (=0) and P2
	// (=1); P8 (=7) receives from P4 (=3) and P6 (=5); P4's second send
	// goes to P7 (=6).
	in := map[int32][]int32{}
	for _, m := range pt.Msgs {
		in[m.Dst] = append(in[m.Dst], m.Src)
	}
	if got := in[3]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("senders to P4 = %v, want [0 1]", got)
	}
	if got := in[7]; len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("senders to P8 = %v, want [3 5]", got)
	}
	q := pt.SendQueues()[3]
	if len(q) != 2 || pt.Msgs[q[1]].Dst != 6 {
		t.Errorf("P4's second send goes to %d, want 6", pt.Msgs[q[1]].Dst)
	}
	for _, m := range pt.Msgs {
		if m.Bytes != Figure3MessageBytes {
			t.Errorf("message %v has %d bytes; all must be %d", m, m.Bytes, Figure3MessageBytes)
		}
	}
}

func TestGenerators(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		pt := Ring(6, 64)
		if err := pt.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(pt.Msgs) != 6 || !pt.HasCycle() {
			t.Fatalf("ring: msgs=%d cycle=%v", len(pt.Msgs), pt.HasCycle())
		}
	})
	t.Run("shift negative wraps", func(t *testing.T) {
		pt := Shift(5, -1, 8)
		if err := pt.Validate(); err != nil {
			t.Fatal(err)
		}
		if pt.Msgs[0].Dst != 4 {
			t.Fatalf("Shift(5,-1): proc 0 sends to %d, want 4", pt.Msgs[0].Dst)
		}
	})
	t.Run("alltoall", func(t *testing.T) {
		pt := AllToAll(4, 8)
		if err := pt.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(pt.Msgs) != 12 {
			t.Fatalf("alltoall msgs = %d, want 12", len(pt.Msgs))
		}
		for i, d := range pt.InDegrees() {
			if d != 3 {
				t.Fatalf("proc %d in-degree %d, want 3", i, d)
			}
		}
	})
	t.Run("hypercube", func(t *testing.T) {
		pt := HypercubeExchange(3, 1, 8)
		if err := pt.Validate(); err != nil {
			t.Fatal(err)
		}
		if pt.P != 8 || pt.Msgs[0].Dst != 2 || pt.Msgs[2].Dst != 0 {
			t.Fatalf("hypercube wrong partners: %v", pt.Msgs)
		}
	})
	t.Run("gather scatter", func(t *testing.T) {
		g := Gather(5, 2, 8)
		s := Scatter(5, 2, 8)
		if g.InDegrees()[2] != 4 || s.OutDegrees()[2] != 4 {
			t.Fatalf("gather in=%v scatter out=%v", g.InDegrees(), s.OutDegrees())
		}
	})
	t.Run("random valid and reproducible", func(t *testing.T) {
		a := Random(8, 40, 256, 42)
		b := Random(8, 40, 256, 42)
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(a.Msgs) != len(b.Msgs) {
			t.Fatal("same seed produced different patterns")
		}
		for i := range a.Msgs {
			if a.Msgs[i] != b.Msgs[i] {
				t.Fatal("same seed produced different messages")
			}
		}
	})
	t.Run("random dag acyclic", func(t *testing.T) {
		for seed := int64(0); seed < 20; seed++ {
			pt := RandomDAG(8, 30, 128, seed)
			if err := pt.Validate(); err != nil {
				t.Fatal(err)
			}
			if pt.HasCycle() {
				t.Fatalf("seed %d: RandomDAG produced a cycle", seed)
			}
		}
	})
	t.Run("butterfly", func(t *testing.T) {
		pt := Butterfly(3, 64)
		if err := pt.Validate(); err != nil {
			t.Fatal(err)
		}
		// 2^dims processors, one message per processor per dimension.
		if pt.P != 8 || len(pt.Msgs) != 8*3 {
			t.Fatalf("butterfly: P=%d msgs=%d, want P=8 msgs=24", pt.P, len(pt.Msgs))
		}
		// Every stage is a symmetric pairwise exchange: in- and
		// out-degree dims at every processor, and each message is
		// mirrored within its stage.
		for i, d := range pt.InDegrees() {
			if d != 3 || pt.OutDegrees()[i] != 3 {
				t.Fatalf("proc %d degrees in=%d out=%d, want 3/3", i, d, pt.OutDegrees()[i])
			}
		}
		for stage := 0; stage < 3; stage++ {
			for _, m := range pt.Msgs[stage*8 : (stage+1)*8] {
				if m.Dst != m.Src^(1<<stage) {
					t.Fatalf("stage %d: %d -> %d, want partner %d",
						stage, m.Src, m.Dst, m.Src^(1<<stage))
				}
			}
		}
		if !pt.HasCycle() {
			t.Fatal("butterfly exchanges are mutual, so the pattern must be cyclic")
		}
	})
}

func TestJSONRoundTrip(t *testing.T) {
	pt := Figure3()
	var buf bytes.Buffer
	if err := pt.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.P != pt.P || len(got.Msgs) != len(pt.Msgs) {
		t.Fatalf("round trip mismatch: %v vs %v", got, pt)
	}
	for i := range pt.Msgs {
		if got.Msgs[i] != pt.Msgs[i] {
			t.Fatalf("msg %d mismatch: %v vs %v", i, got.Msgs[i], pt.Msgs[i])
		}
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	for _, bad := range []string{
		`{"p":0,"msgs":[]}`,
		`{"p":2,"msgs":[{"src":5,"dst":0,"bytes":1}]}`,
		`{"p":2,"msgs":[{"src":0,"dst":1,"bytes":0}]}`,
		`not json`,
	} {
		if _, err := Decode(strings.NewReader(bad)); err == nil {
			t.Errorf("Decode(%q) accepted invalid input", bad)
		}
	}
}

// A JSON number outside int32 is refused with encoding/json's range
// error, wrapped, rather than narrowed into the message.
func TestDecodeRejectsOutOfRange(t *testing.T) {
	for _, bad := range []string{
		`{"p":2,"msgs":[{"src":0,"dst":4294967297,"bytes":8}]}`,
		`{"p":2,"msgs":[{"src":-2147483649,"dst":1,"bytes":8}]}`,
		`{"p":2,"msgs":[{"src":0,"dst":1,"bytes":2147483648}]}`,
	} {
		_, err := Decode(strings.NewReader(bad))
		var rangeErr *json.UnmarshalTypeError
		if !errors.As(err, &rangeErr) || !strings.HasPrefix(err.Error(), "trace: decoding pattern: ") {
			t.Errorf("Decode(%q) = %v, want a wrapped *json.UnmarshalTypeError", bad, err)
		}
	}
	if _, err := Decode(strings.NewReader(`{"p":2,"msgs":[{"src":0,"dst":1,"bytes":2147483647}]}`)); err != nil {
		t.Errorf("largest size refused: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	pt := Ring(4, 8)
	c := pt.Clone()
	c.Msgs[0].Bytes = 999
	if pt.Msgs[0].Bytes == 999 {
		t.Fatal("Clone shares message storage")
	}
}

func TestStringMentionsCounts(t *testing.T) {
	s := Figure3().String()
	for _, want := range []string{"P=10", "msgs=11"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// Property: for random patterns, in-degrees and out-degrees both sum to
// the network message count, and total bytes is bounded by count*max.
func TestDegreeSumsProperty(t *testing.T) {
	f := func(seed int64, pRaw, mRaw uint8) bool {
		p := int(pRaw%16) + 2
		m := int(mRaw % 64)
		pt := Random(p, m, 512, seed)
		if pt.Validate() != nil {
			return false
		}
		sumIn, sumOut := 0, 0
		for _, d := range pt.InDegrees() {
			sumIn += d
		}
		for _, d := range pt.OutDegrees() {
			sumOut += d
		}
		n := pt.NetworkMessages()
		return sumIn == n && sumOut == n && pt.TotalBytes() <= n*512
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuiltin(t *testing.T) {
	for _, name := range BuiltinNames() {
		pt, err := Builtin(name, 8, 64, 3)
		if err != nil {
			t.Errorf("Builtin(%q): %v", name, err)
			continue
		}
		if err := pt.Validate(); err != nil {
			t.Errorf("Builtin(%q) invalid: %v", name, err)
		}
	}
	if _, err := Builtin("nope", 8, 64, 3); err == nil {
		t.Error("unknown builtin accepted")
	}
	// hypercube rounds the processor count up to a power of two.
	pt, err := Builtin("hypercube", 6, 8, 0)
	if err != nil || pt.P != 8 {
		t.Errorf("hypercube P = %d, %v; want 8", pt.P, err)
	}
}
