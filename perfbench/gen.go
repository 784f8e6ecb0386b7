package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"loggpsim/internal/loadgen"
	"loggpsim/internal/loggp"
	"loggpsim/internal/robust"
	"loggpsim/internal/serve"
)

// Workload generators. Every input is a function of the workload seed;
// the program under test sees only the generated requests.

const (
	// zipfUniverse and zipfSkew are the loadtest's request universe and
	// Zipf exponent (make loadtest: -universe 64 -skew 1.3).
	zipfUniverse = 64
	zipfSkew     = 1.3
	// zipfSequenceLen bounds one pre-generated replay order; a run that
	// outlasts it wraps around (every entry is a warm hit either way).
	zipfSequenceLen = 1 << 18

	// coldWarmup is how many requests warm serve-cold's evaluators in
	// set-up (coldWarmupBodies).
	coldWarmup = 16
	// coldCacheEntries is serve-cold's result-cache entry budget
	// (predictd -cache-entries). It sits far below the number of
	// distinct requests a run sends, so steady-state inserts evict.
	coldCacheEntries = 256
)

// zipfCorpusSeed fixes the serve-zipf and cluster-zipf request universe
// to the loadtest's (make loadtest: -seed 1). The universe is not drawn
// from the workload seed because a Zipf replay spends about a quarter
// of its requests on entry 0 and a tenth on entry 1: with a per-seed
// universe the cost of a hit — which depends on the size of the hot
// entries' answers — would change with the seed by up to 2x, and the
// spread across seeds would measure the draw, not the code.
const zipfCorpusSeed = 1

// zipfBodies is the serve-zipf and cluster-zipf request universe.
func zipfBodies() [][]byte {
	return toBytes(loadgen.Corpus(zipfUniverse, zipfCorpusSeed))
}

// zipfOrder is the workload seed's replay order over zipfBodies: index 0
// is hottest.
func zipfOrder(seed int64) []int {
	return loadgen.Sequence(zipfSequenceLen, zipfUniverse, zipfSkew, seed)
}

// coldBlock is how many request shapes the serve-cold stream cycles
// through: loadgen.Corpus's requests over a universe of coldBlock, from
// the fixed corpus seed, so the stream keeps the loadtest's mode mix.
// Every block of coldBlock requests holds each shape once, in an order
// drawn from the workload seed. So every seed sends the same mix of
// request costs, and the spread across seeds measures the code, not how
// many expensive requests a seed happened to draw.
const coldBlock = 200

func coldShapes() []serve.Request {
	corpus := loadgen.Corpus(coldBlock, zipfCorpusSeed)
	shapes := make([]serve.Request, len(corpus))
	for k, body := range corpus {
		r, err := decodeRequest([]byte(body))
		if err != nil {
			panic(fmt.Sprintf("loadgen corpus entry %d: %v", k, err))
		}
		shapes[k] = *r
	}
	return shapes
}

// coldRequest renders a shape as request i of the stream. Seeded modes
// take i+1 as their seed; analyze mode, which ignores the seed, takes an
// explicit Meiko CS-2 machine whose L differs per index. So no two
// indexes share a canonical key.
func coldRequest(shape serve.Request, i int) []byte {
	r := shape
	if r.Mode == serve.ModeAnalyze {
		m := loggp.MeikoCS2(r.Workload.Procs)
		r.Machine = serve.Machine{L: m.L * (1 + float64(i+1)*1e-7), O: m.O, Gap: m.Gap, G: m.G}
	} else {
		r.Seed = int64(i + 1)
	}
	b, err := json.Marshal(&r)
	if err != nil {
		panic(fmt.Sprintf("cold request %d: %v", i, err))
	}
	return b
}

// coldBodies generates the serve-cold stream's first n requests. Their
// indexes start after coldWarmupBodies'.
func coldBodies(seed int64, n int) [][]byte {
	shapes := coldShapes()
	r := rand.New(rand.NewSource(seed))
	var order []int
	out := make([][]byte, n)
	for i := range out {
		if i%coldBlock == 0 {
			order = r.Perm(coldBlock)
		}
		out[i] = coldRequest(shapes[order[i%coldBlock]], coldWarmup+i)
	}
	return out
}

// coldWarmupBodies are the requests serve-cold's set-up warms the
// server with: the first coldWarmup shapes in corpus order, the same for
// every seed so set-up costs the same, with indexes no stream request
// takes.
func coldWarmupBodies() [][]byte {
	shapes := coldShapes()
	out := make([][]byte, coldWarmup)
	for i := range out {
		out[i] = coldRequest(shapes[i], i)
	}
	return out
}

func toBytes(ss []string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// Figure-7 workload inputs: the paper's 960×960 matrix on the
// reconstructed 8-processor Meiko CS-2, the 14 reconstructed block
// sizes, and the two layouts Figure 7 compares. The sweep keeps the
// paper's seed 1, on which the §6.3 claims are stated; the workload seed
// drives the Monte-Carlo envelope.
const (
	fig7N       = 960
	fig7P       = 8
	fig7Seed    = 1
	fig7Samples = 4
)

// fig7Layouts are the sweep's layouts by their layout.Layout names, in
// experiments.RunBothLayouts order.
var fig7Layouts = []string{"diagonal", "row-cyclic"}

// fig7Perturb is BenchmarkEnvelopeLockstep's perturbation.
var fig7Perturb = robust.Perturb{L: 0.2, O: 0.1, Gap: 0.2, G: 0.15}
