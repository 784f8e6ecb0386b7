package lintrules

import "sort"

// RuleInfo is one registered rule family: its machine name, the
// one-line description used in SARIF rule metadata, and the full
// explanation printed by `loggpvet -explain <name>`.
type RuleInfo struct {
	Name  string
	Short string
	Doc   string
}

// ruleRegistry holds every rule family the suite can emit. The
// fixture-discipline meta-test requires each entry to demonstrate at
// least one true positive ("// want <rule>") and one true negative
// ("// ok <rule>") under testdata/fixtures.
var ruleRegistry = []RuleInfo{
	{
		Name:  "maprange",
		Short: "map iteration order must not reach timeline- or response-visible values",
		Doc: `maprange — range over a map in timeline-affecting code.

Go randomizes map iteration order on every range. In the packages that
construct or order the simulated timeline (and in the service layer,
where iteration order would become response- or cache-key-visible), any
value fed from a map range silently varies between runs, breaking the
repository's same-seed ⇒ identical-timeline contract and the
differential suites built on it.

Fix: collect the keys, sort them, iterate the sorted slice. Test files
are exempt — building inputs from a map is fine when the assertion does
not depend on order.`,
	},
	{
		Name:  "globalrand",
		Short: "scheduler randomness must flow from seeds through owned sources",
		Doc: `globalrand — package-level math/rand or math/rand/v2 call.

The global generators draw from shared, unseedable-in-isolation state:
two runs with the same Config.Seed diverge the moment any other
goroutine also draws. Scheduler and service randomness must flow from a
seed through an owned source (rand.New(rand.NewSource(seed)), NewPCG,
NewChaCha8, NewZipf over an owned source) so every replay sees the same
stream. The constructors themselves are the sanctioned path and do not
fire the rule.`,
	},
	{
		Name:  "wallclock",
		Short: "simulators that own virtual time must not read the wall clock",
		Doc: `wallclock — time.Now/Since/Until inside a scheduler package.

The simulators OWN virtual time: every timestamp is derived from the
cost model and the event order. Reading the wall clock there is a
category error — it injects a value that differs every run into code
whose whole contract is bit-identical replay. The service layer is
exempt (deadlines, Retry-After and Server-Timing are genuinely real
time), which is why this is a separate rule from globalrand rather
than one "nondeterministic source" family. The result cache is not
exempt: it stores deterministic answers and has no use for the clock.`,
	},
	{
		Name:  "nonfinite",
		Short: "clock arithmetic must stay finite; Inf only as a sentinel",
		Doc: `nonfinite — math.NaN, or math.Inf as an arithmetic operand.

Clock arithmetic must stay finite. math.Inf is a legal sentinel (the
schedulers use it for "no candidate") in assignments and comparisons,
but as an operand of +, -, * or / it yields Inf/NaN clocks that
propagate through every later max(); math.NaN() has no legal use in
simulator code at all — NaN even breaks the sentinel comparisons.`,
	},
	{
		Name:  "ctxpoll",
		Short: "unbounded loops in deadline-scoped evaluators must poll their context",
		Doc: `ctxpoll — a condition-less for-loop that never references the
function's context.Context parameter.

predictd prices a deadline into every admitted request and threads a
context through the evaluators; the guarantee only holds if every
unbounded loop on the evaluation path polls that context. A for {} that
never references ctx outlives any deadline the caller set — under load
that is a worker slot leaked until process exit.

Fix: select on ctx.Done() or check ctx.Err() each iteration. Bounded
loops (for i := 0; i < n; i++, range over a slice) are exempt, as are
functions that take no context — they are not deadline-scoped.`,
	},
	{
		Name:  "poolpoison",
		Short: "never repool an object reclaimed on a panic path",
		Doc: `poolpoison — sync.Pool.Put lexically inside a function that calls
recover().

An evaluator that panicked was mid-operation when the stack unwound:
its sessions, arenas and queues are in an unknown state. Returning it
to the pool trades an isolated failure for a silently wrong answer on
some unrelated later request. The repository's rule (DESIGN.md §5g) is
poison-not-repool: drop the object and let the pool's New construct a
fresh one.

The check is lexical per recovery scope: a Put in the same function
body (nested literals excluded — each literal is its own scope) as a
recover() call fires; the sanctioned pattern — Put only on the
non-panic path, recover in a literal that never Puts — stays silent.`,
	},
	{
		Name:  "floatorder",
		Short: "do not accumulate floats across map- or channel-ordered iteration",
		Doc: `floatorder — float accumulation (x += v, x = x + v, ...) inside a
range over a map or a channel, into a variable declared outside the
loop.

Floating-point addition is not associative: summing the same values in
two different orders yields two different bit patterns, so a float
accumulated across randomized map order (or goroutine completion order
on a channel) differs run to run even though the multiset of inputs is
identical. This holds repo-wide — not just in scheduler packages —
because any such sum that later reaches a prediction, a cache key, or
a report breaks byte-identical replay.

Fix: accumulate over a sorted slice, or accumulate integers.`,
	},
	{
		Name:  "errdrop",
		Short: "serve/cache paths must not discard error results",
		Doc: `errdrop — a call statement whose discarded results include an error,
in the serve/cache packages.

On the service path a swallowed error does not crash: it becomes a
wrong or missing response, an unstored cache entry, or a leaked slot —
failures the robustness contract (shed, degrade, drain) exists to make
explicit. Handle the error, or assign it to _ to acknowledge the
discard in code review.

Exempt: deferred cleanup calls, the fmt print family, and writers whose
contracts guarantee a nil error (strings.Builder, bytes.Buffer,
hash.Hash, hash/maphash).`,
	},
	{
		Name:  "purity",
		Short: "no call path from scheduler entry points to a nondeterministic source",
		Doc: `purity — an interprocedural call chain from a determinism entry point
to a forbidden source.

The single-pass rules see one package at a time; purity closes the gap
between packages. Every module package is summarized — for each
declared function, the call chain (if any) to a forbidden source: the
wall clock (time.Now/Since/Until), the global math/rand generators, the
process environment (os.Getenv/LookupEnv/Environ), or a map iteration
whose order escapes into ordering-sensitive values. Summaries flow
between packages through the vet driver's .vetx facts files, so a
scheduler entry point calling a helper that reads the wall clock three
packages down is reported at the boundary call, with the full chain:

    (sim.Session).Run reaches the wall clock: (sim.Session).Run →
    calls stats.WallMean (sim/sim.go:41:9) → time.Now (wall clock)
    (stats/stats.go:12:10)

Entry-point packages are declared in the policy table (the scheduler
cores, evaluators, sweep, faults, eventq, and the result cache, whose
keys must stay pure and whose store keeps no clock). The call graph is
conservative: static calls only — paths through function values,
interface methods, and goroutines are not tracked (DESIGN.md §5j), so
a report is always a real syntactic path, and silence is not a proof.`,
	},
	{
		Name:  "baseline",
		Short: "stale baseline entry: the pinned finding no longer exists",
		Doc: `baseline — a lint.baseline.json entry matched fewer findings than its
count.

Baseline entries pin sanctioned pre-existing findings by (package,
rule, file, count). When the underlying finding is fixed or moves, the
entry goes stale and fails the run instead of lingering as a silent
hole the rule can no longer see through. Delete the entry (or lower
its count) to match reality.`,
	},
}

// Rules returns the registered rule families sorted by name.
func Rules() []RuleInfo {
	out := append([]RuleInfo(nil), ruleRegistry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Explain returns the full documentation for one rule.
func Explain(name string) (RuleInfo, bool) {
	for _, r := range ruleRegistry {
		if r.Name == name {
			return r, true
		}
	}
	return RuleInfo{}, false
}
