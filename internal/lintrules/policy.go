package lintrules

import "strings"

// Policy selects which rule families apply to one package. The zero
// value applies nothing; DefaultPolicy is what an unlisted module
// package gets (the repo-wide floor: float-accumulation order and pool
// poisoning are hazards everywhere, and every package contributes
// purity facts to the call-graph whether or not any diagnostic rule
// applies to it).
type Policy struct {
	// MapRange forbids ranging over a map outside _test.go files.
	MapRange bool
	// OwnedRand forbids the global math/rand generators.
	OwnedRand bool
	// WallClock forbids time.Now/Since/Until.
	WallClock bool
	// NonFinite forbids math.NaN and arithmetic on math.Inf.
	NonFinite bool
	// CtxPoll requires unbounded loops in context-taking functions to
	// poll their context.
	CtxPoll bool
	// PoolPoison forbids a sync.Pool.Put in a function that recovers.
	PoolPoison bool
	// FloatOrder forbids accumulating floats across map- or
	// channel-ordered iteration.
	FloatOrder bool
	// ErrDrop forbids discarding error results in serve/cache paths.
	ErrDrop bool
	// PurityEntry declares every function of the package an entry point
	// of the determinism contract: no call path from it may reach a
	// forbidden source (wall clock, global RNG, environment reads,
	// escaping map iteration) anywhere in the module.
	PurityEntry bool
}

// The three named profiles plus the repo-wide floor. See the package
// comment for the rationale behind each grouping.
var (
	// schedulerPolicy: packages that own virtual time and seeded
	// randomness (the simulator cores and everything that feeds them
	// charges, seeds, or tie-breaks).
	schedulerPolicy = Policy{
		MapRange: true, OwnedRand: true, WallClock: true, NonFinite: true,
		CtxPoll: true, PoolPoison: true, FloatOrder: true,
		PurityEntry: true,
	}
	// timelinePolicy: orders the simulated timeline but owns no
	// randomness of its own.
	timelinePolicy = Policy{
		MapRange: true, NonFinite: true, PoolPoison: true, FloatOrder: true,
	}
	// servicePolicy: the prediction-service layer — answers with the
	// schedulers' numbers, so iteration order, finiteness, and owned
	// randomness still apply, but the wall clock is legitimate
	// (deadlines, Retry-After, Server-Timing).
	servicePolicy = Policy{
		MapRange: true, OwnedRand: true, NonFinite: true,
		CtxPoll: true, PoolPoison: true, FloatOrder: true,
	}
	// DefaultPolicy is the repo-wide floor for unlisted packages.
	DefaultPolicy = Policy{PoolPoison: true, FloatOrder: true}
)

// errDrop augments a profile with the discarded-error rule (the
// serve/cache paths, where a swallowed error turns into a wrong or
// missing response instead of a crash).
func errDrop(p Policy) Policy { p.ErrDrop = true; return p }

// policies is the per-package policy table, keyed by module-relative
// import path ("internal/sim", "cmd/predictd", "." for the module
// root). Every internal/ package MUST have an explicit entry — the
// fixture-discipline meta-test walks the tree and fails on a silent
// scope gap. cmd/ and examples/ packages may fall through to the
// segment fallback or DefaultPolicy.
var policies = map[string]Policy{
	// Scheduler core: the two simulator engines, the event queue
	// machinery, the fault injector, the Monte-Carlo envelope sweep,
	// the lockstep lane engine, the pooled evaluator, the parallel
	// sweep engine that derives per-cell seeds, the cache model whose
	// charges feed the predictions, and the machine emulator whose
	// seeded jitter produces the "measured" curves.
	"internal/sim":       schedulerPolicy,
	"internal/worstcase": schedulerPolicy,
	"internal/eventq":    schedulerPolicy,
	"internal/faults":    schedulerPolicy,
	"internal/robust":    schedulerPolicy,
	"internal/lanes":     schedulerPolicy,
	"internal/predictor": schedulerPolicy,
	"internal/sweep":     schedulerPolicy,
	"internal/cache":     schedulerPolicy,
	"internal/machine":   schedulerPolicy,

	// Timeline construction and rendering.
	"internal/timeline": timelinePolicy,

	// Consistent-hash placement: the ring is the geometry every router
	// instance must independently agree on, so it carries the full
	// scheduler contract — placement is a pure function of (members,
	// salt), with no map order, wall clock, or global randomness.
	"internal/ring": schedulerPolicy,

	// Prediction service and its supporting machinery. resultcache
	// carries the full scheduler contract (wall clock included, both
	// directly and through calls, as a purity entry point) plus the
	// discarded-error rule: its canonical key construction addresses
	// cache entries, so any nondeterminism there silently splits one
	// entry into many, and a store of deterministic answers has no use
	// for real time.
	"internal/serve":       errDrop(servicePolicy),
	"internal/cluster":     errDrop(servicePolicy),
	"internal/resultcache": errDrop(schedulerPolicy),
	"internal/loadgen":     servicePolicy,
	"cmd/predictd":         errDrop(servicePolicy),
	"cmd/predictrouter":    errDrop(servicePolicy),

	// Everything else in the module gets the repo-wide floor,
	// explicitly listed so scope gaps are loud (see the meta-test).
	"internal/analyze":     DefaultPolicy,
	"internal/apps":        DefaultPolicy,
	"internal/blockops":    DefaultPolicy,
	"internal/cannon":      DefaultPolicy,
	"internal/capture":     DefaultPolicy,
	"internal/collectives": DefaultPolicy,
	"internal/cost":        DefaultPolicy,
	"internal/experiments": DefaultPolicy,
	"internal/fit":         DefaultPolicy,
	"internal/ge":          DefaultPolicy,
	"internal/layout":      DefaultPolicy,
	"internal/lintrules":   DefaultPolicy,
	"internal/loggp":       DefaultPolicy,
	"internal/matrix":      DefaultPolicy,
	"internal/network":     DefaultPolicy,
	"internal/profiling":   DefaultPolicy,
	"internal/program":     DefaultPolicy,
	"internal/scaling":     DefaultPolicy,
	"internal/search":      DefaultPolicy,
	"internal/sensitivity": DefaultPolicy,
	"internal/stats":       DefaultPolicy,
	"internal/stencil":     DefaultPolicy,
	"internal/trace":       DefaultPolicy,
	"internal/trisolve":    DefaultPolicy,
	"internal/vruntime":    DefaultPolicy,

	"cmd/analyze":     DefaultPolicy,
	"cmd/appredict":   DefaultPolicy,
	"cmd/commviz":     DefaultPolicy,
	"cmd/experiments": DefaultPolicy,
	"cmd/gepredict":   DefaultPolicy,
	"cmd/loggpsim":    DefaultPolicy,
	"cmd/loggpvet":    DefaultPolicy,
	"cmd/robust":      DefaultPolicy,

	".": DefaultPolicy,
}

// ModuleRel returns pkgPath relative to the module prefix: "." for the
// module root, the trimmed path for module packages, and pkgPath
// unchanged for anything else (the fixture modules rely on the segment
// fallback below).
func ModuleRel(pkgPath, module string) string {
	if pkgPath == module {
		return "."
	}
	if rest, ok := strings.CutPrefix(pkgPath, module+"/"); ok {
		return rest
	}
	return pkgPath
}

// pkgSegment returns the final segment of an import path.
func pkgSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// PolicyFor resolves the policy for a module-relative package path. An
// explicit table entry wins; otherwise the final path segment is tried
// against internal/ then cmd/ (this is how the testdata fixture
// packages — "sim" in module lintfixtures — inherit the policy of the
// repository package they model); otherwise DefaultPolicy.
func PolicyFor(rel string) Policy {
	if p, ok := policies[rel]; ok {
		return p
	}
	seg := pkgSegment(rel)
	if p, ok := policies["internal/"+seg]; ok {
		return p
	}
	if p, ok := policies["cmd/"+seg]; ok {
		return p
	}
	return DefaultPolicy
}

// Covered reports whether any diagnostic rule applies to the package.
// Since the repo-wide floor applies float-order and pool-poison
// everywhere, every module package is covered; the function remains so
// callers can gate on future policy shapes rather than assuming it.
func Covered(rel string) bool {
	return PolicyFor(rel) != Policy{}
}

// Policies returns a copy of the policy table for tests and tooling.
func Policies() map[string]Policy {
	out := make(map[string]Policy, len(policies))
	for k, v := range policies {
		out[k] = v
	}
	return out
}
