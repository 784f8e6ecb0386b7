// Package machine is the repository's stand-in for the paper's Meiko
// CS-2 testbed: a deterministic discrete-event emulator that *executes*
// an oblivious block program in virtual time and produces the "measured"
// curves of Figures 7–9. It extends the pure LogGP prediction with
// exactly the four effects the paper identifies as the gap between its
// prediction and reality (Section 6.3):
//
//   - a per-processor cache model (package cache): operand blocks and
//     received message buffers must be loaded before use; misses cost
//     time that is accounted separately, like the paper's separately
//     timed "bring the blocks into the cache" section. The touch order
//     never depends on simulated time, so Run replays it once
//     (cache.Warm) and both of its passes read the same charges;
//   - the overhead of iterating through all the blocks a processor is
//     assigned, paid once per step (the paper's explanation for its
//     computation-time underestimation at small block sizes);
//   - local message transfers (self messages), which the LogGP
//     simulation skips but a real machine pays as memory copies;
//   - network variance: a seeded non-negative jitter on message arrival
//     times (the LogGP parameters are averages, not exact values).
//
// With all four knobs zeroed the emulator degenerates to the standard
// LogGP prediction, which the tests assert.
package machine

import (
	"fmt"
	"math/rand"

	"loggpsim/internal/cache"
	"loggpsim/internal/cost"
	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
	"loggpsim/internal/sim"
)

// Config controls one emulated execution.
type Config struct {
	// Params is the LogGP description of the machine's network.
	Params loggp.Params
	// Cost prices the basic operations (the emulated machine's true
	// kernel speeds).
	Cost cost.Model
	// Seed drives jitter and simulator tie-breaks.
	Seed int64

	// CacheBytes is the per-processor cache capacity; zero disables the
	// cache model entirely.
	CacheBytes int
	// MissFixed and MissPerByte price one cache miss: fixed microseconds
	// plus microseconds per byte loaded.
	MissFixed   float64
	MissPerByte float64

	// IterPerBlock is the per-step overhead, in microseconds, a
	// processor pays per block it is assigned (scanning its block list
	// each step). AssignedBlocks gives the per-processor block counts;
	// nil disables the iteration overhead.
	IterPerBlock   float64
	AssignedBlocks []int

	// LocalFixed and LocalPerByte price a self message (local memory
	// copy).
	LocalFixed   float64
	LocalPerByte float64

	// JitterFrac scales the network jitter: each message's arrival is
	// delayed by a uniform random amount in [0, JitterFrac·L].
	JitterFrac float64

	// Network, when non-nil, routes messages over an explicit topology
	// fabric instead of the flat LogGP network (see sim.Config.Network).
	// The fabric is Reset before each of the emulator's two passes.
	Network interface {
		Arrival(src, dst, bytes int, inject float64) float64
		Reset()
	}
}

// Default returns the emulator configuration used by the experiments:
// a 1 MiB per-processor cache, 200 MB/s miss fill, 500 MB/s local
// copies, and ±25% latency jitter.
func Default(params loggp.Params, model cost.Model) Config {
	return Config{
		Params:       params,
		Cost:         model,
		CacheBytes:   1 << 20,
		MissFixed:    0.5,
		MissPerByte:  0.005,
		IterPerBlock: 0.05,
		LocalFixed:   1,
		LocalPerByte: 0.002,
		JitterFrac:   0.25,
	}
}

// Result reports one emulated execution.
type Result struct {
	// Total is the finishing time including cache-warming costs — the
	// paper's "measured with caching" curve.
	Total float64
	// TotalNoCache is the finishing time of the identical execution with
	// the cache-warming charges removed — the paper's "measured without
	// the extra caching section" curve.
	TotalNoCache float64
	// Comp is the maximum per-processor computation time: operation
	// costs plus iteration overhead (Figure 9's measured curve).
	Comp float64
	// Comm is the maximum per-processor time spent in communication
	// phases, including waiting and local copies (Figure 8's measured
	// curve).
	Comm float64
	// CacheWarm is the maximum per-processor time spent loading blocks
	// into the cache (the separately timed section).
	CacheWarm float64
	// Hits and Misses aggregate the cache statistics over all
	// processors.
	Hits, Misses int
}

// Run emulates the program twice — once with cache-warming charges, once
// without — and reports both finishing times plus the decomposition of
// the charged run. The cache model is replayed once (cache.Warm): the
// touch order never depends on simulated time, so both passes read the
// same charges.
func Run(pr *program.Program, cfg Config) (*Result, error) {
	if cfg.Cost == nil {
		return nil, fmt.Errorf("machine: no cost model")
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if cfg.AssignedBlocks != nil && len(cfg.AssignedBlocks) != pr.P {
		return nil, fmt.Errorf("machine: %d assigned-block counts for %d processors",
			len(cfg.AssignedBlocks), pr.P)
	}
	var warming *cache.Warming
	if cfg.CacheBytes > 0 {
		warming = cache.Warm(pr, cfg.CacheBytes, cfg.MissFixed, cfg.MissPerByte)
	}
	// One simulator session serves both passes: run re-aims it with
	// Reconfigure, so the second pass reuses the first one's scheduler
	// state and queue storage instead of rebuilding it.
	sess := &sim.Session{}
	charged, err := run(pr, cfg, warming, sess)
	if err != nil {
		return nil, err
	}
	warm, err := run(pr, cfg, nil, sess)
	if err != nil {
		return nil, err
	}
	charged.TotalNoCache = warm.Total
	if warming != nil {
		charged.CacheWarm = warming.Max
		charged.Hits, charged.Misses = warming.Hits, warming.Misses
	}
	return charged, nil
}

// run performs one emulated execution, adding each step's cache-loading
// charges to the computation phase when warming is non-nil.
func run(pr *program.Program, cfg Config, warming *cache.Warming, sess *sim.Session) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// The emulator only reads clocks, so the replay runs in quiet mode
	// (no timeline recording; see sim.Config.NoTimeline).
	simCfg := sim.Config{Params: cfg.Params, Seed: cfg.Seed, NoTimeline: true}
	if cfg.JitterFrac > 0 {
		maxJitter := cfg.JitterFrac * cfg.Params.L
		simCfg.Jitter = func(int, int) float64 { return rng.Float64() * maxJitter }
	}
	if cfg.Network != nil {
		cfg.Network.Reset()
		simCfg.Network = cfg.Network
	}
	if err := sess.Reconfigure(pr.P, simCfg); err != nil {
		return nil, err
	}

	res := &Result{}
	compT := make([]float64, pr.P)
	commT := make([]float64, pr.P)

	durs := make([]float64, pr.P)
	var before, after []float64 // clock scratch, reused across steps
	var stepRes sim.Result      // reused quiet-mode step result
	for stepIdx, step := range pr.Steps {
		// Computation phase: iteration overhead + cache warming +
		// operation costs.
		for proc := range durs {
			comp := 0.0
			if cfg.AssignedBlocks != nil {
				comp += cfg.IterPerBlock * float64(cfg.AssignedBlocks[proc])
			}
			for _, call := range step.Comp[proc] {
				comp += cfg.Cost.Cost(call.Op, call.BlockSize)
			}
			compT[proc] += comp
			warm := 0.0
			if warming != nil {
				warm = warming.Charges[stepIdx][proc]
			}
			durs[proc] = comp + warm
		}
		if err := sess.Compute(durs); err != nil {
			return nil, fmt.Errorf("machine: step %d: %w", stepIdx, err)
		}

		// Local transfers: the sender copies self messages in memory.
		for proc := range durs {
			durs[proc] = 0
		}
		for _, m := range step.Comm.Msgs {
			if m.Src == m.Dst {
				durs[m.Src] += cfg.LocalFixed + cfg.LocalPerByte*float64(m.Bytes)
			}
		}
		before = sess.ClocksInto(before)
		if err := sess.Compute(durs); err != nil {
			return nil, fmt.Errorf("machine: step %d: %w", stepIdx, err)
		}
		if err := sess.CommunicateInto(&stepRes, step.Comm); err != nil {
			return nil, fmt.Errorf("machine: step %d: %w", stepIdx, err)
		}
		after = sess.ClocksInto(after)
		for proc := range commT {
			commT[proc] += after[proc] - before[proc]
		}
	}

	res.Total = sess.Finish()
	for proc := 0; proc < pr.P; proc++ {
		if compT[proc] > res.Comp {
			res.Comp = compT[proc]
		}
		if commT[proc] > res.Comm {
			res.Comm = commT[proc]
		}
	}
	return res, nil
}
