# Build/verify targets for the loggpsim repository. Every program-level
# prediction (predictor, robust envelopes, predictd's simulate,
# worstcase and envelope modes) runs on one engine, internal/lanes.
# One session, sim.Session, runs both of the paper's algorithms one
# pattern at a time (Figure 2, and Section 4.2 in its WorstCase mode,
# which package worstcase configures); it serves single patterns, the
# emulator, and the oracle the engine is tested against.
#
#   make ci      — what a CI runner executes: vet + determinism lint +
#                  differential tests under -race + race-enabled full
#                  suite
#   make test    — fast tier-1 check (go build + go test)
#   make vet     — go vet, and fail if gofmt -l reports any file
#   make bench-check — vet and short-test the benchmark module
#                  (perfbench/, a nested module the root ./... skips),
#                  so a program API break it depends on fails CI
#   make lint    — determinism certification (cmd/loggpvet driver mode)
#                  over the repo against the checked-in baseline
#   make lint-sarif — same run, writing bin/lint.sarif (SARIF 2.1.0)
#   make race    — full test suite under the race detector
#   make diff    — differential tests under the race detector: the
#                  tournament tree vs its linear-scan oracles, the
#                  slice-backed cache LRU and cache.Warm vs their
#                  container/list oracles, sim's indexed scheduler
#                  cores vs the reference_test.go scans, the
#                  worst-case session vs its independent reference
#                  session, the lane engine vs the session-replay
#                  oracle in every mode and the envelope vs its
#                  per-sample oracle, and every bound certificate vs
#                  the walk_test.go oracle
#   make bench   — figure, scheduler-core (P=64/256 stress and the
#                  Figure-7 GE programs at P=8, standard and worst
#                  case), predictor (steady-state reuse and the
#                  high-in-degree all-to-all and butterfly programs at
#                  P=64/256), fault-hook overhead, bound-certificate,
#                  and Figure-7 program-build, cache-warming,
#                  lane-engine (one lane over the 28 programs, five
#                  over the 14 diagonal ones) and emulator benchmarks,
#                  printed to stdout
#   make sweep   — serial-vs-parallel sweep benchmark pair only
#   make bench-envelope — Figure-7 envelope throughput, scalar test
#                  oracle vs lockstep lane engine, at samples
#                  16/64/256, printed to stdout
#   make fuzz-smoke — short fuzz of the standard and worst-case
#                  scheduler cores against their reference oracles, of
#                  one lane against the session-replay oracle, the
#                  fault injector, the checkpoint/resume journal,
#                  predictd's canonical cache key, its strict request
#                  decoder, its cache-import verifier and the static
#                  deadlock verdict and bound certificate (part of ci)
#   make serve-smoke — boot the real predictd binary on an ephemeral
#                  port and drive the robustness contract end to end:
#                  healthy requests, 400/413 rejection, deadline
#                  and budget degradation to bound certificates (an
#                  envelope priced per lane), 429 shedding under
#                  overload, SIGTERM drain with exit 0, and SIGINT
#                  stopping a running envelope (part of ci)
#   make cluster-smoke — boot three predictd peers behind the real
#                  predictrouter binary, replay a Zipf workload through
#                  the router undisturbed (hit rate ≥ 0.9), then again
#                  while one peer is SIGKILLed mid-replay and restarted:
#                  zero failed responses, every 200 byte-identical to a
#                  single-process baseline, killed peer probed back to
#                  healthy (part of ci)
#   make loadtest-smoke — replay a Zipf workload against cache-on and
#                  cache-off predictd processes: zero errors and
#                  byte-identical repeated servings in both, cache-on
#                  hit rate ≥ 0.9 and ≥ 10x the cache-off req/s (part
#                  of ci)
#   make resize-smoke — grow a 2-peer cluster to 3, then drain and
#                  remove the original first peer, all mid-replay under
#                  load through the router's admin API: zero failed
#                  responses, byte-identity vs the single-process
#                  baseline, post-resize hit rate ≥ 0.9, handoff
#                  entries moved and none lost, final epoch 3 (part
#                  of ci)

GO ?= go
LOGGPVET := $(CURDIR)/bin/loggpvet
FUZZTIME ?= 15s

.PHONY: all build test vet bench-check lint lint-sarif race diff bench sweep bench-envelope fuzz-smoke serve-smoke cluster-smoke loadtest-smoke resize-smoke ci

all: ci

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$unformatted"; exit 1; \
	fi

# perfbench/ is a module of its own, so the root build and tests never
# compile it; this keeps a program API change that breaks the benchmark
# from passing CI.
bench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short -count=1 ./...

# Determinism certification: cmd/loggpvet in driver mode re-executes
# itself under `go vet -vettool=`, aggregates the whole module's
# findings (single-pass rules + the interprocedural purity call-graph;
# see internal/lintrules), and applies the checked-in
# lint.baseline.json globally — new findings AND stale baseline entries
# both fail. Per-rule true-positive/true-negative fixtures live under
# internal/lintrules/testdata/fixtures.
lint:
	$(GO) build -o $(LOGGPVET) ./cmd/loggpvet
	$(LOGGPVET) ./...

# Same run, but also writing a SARIF 2.1.0 log (baselined findings
# included as suppressed results) for code-scanning consumers.
lint-sarif:
	$(GO) build -o $(LOGGPVET) ./cmd/loggpvet
	$(LOGGPVET) -sarif bin/lint.sarif ./...

# The concurrent paths (internal/sweep, search.Memoized, the parallel
# sweeps in experiments/sensitivity/scaling) must stay race-clean.
race:
	$(GO) test -race ./...

# The indexed scheduler cores must stay bit-identical to the reference
# scans in internal/sim/reference_test.go, and the worst-case mode to
# the independent reference session in
# internal/worstcase/reference_test.go, which shares no code with sim
# (DESIGN.md §perf); run the differential suites under -race so a data
# race in the session-reuse machinery cannot hide behind identical
# output. The selection tree all three indexed cores share
# (eventq.Tournament) is checked first against its own linear-scan
# oracles, including the Figure-2 tie-break with a twin RNG, and so are
# the cache model's slice-backed LRU, and cache.Warm on it, against the
# container/list LRU they replaced (internal/cache/cache_test.go). The
# lane engine makes the same claim against the session loop the
# predictor used to run (sessionReplay in internal/lanes/oracle_test.go,
# every mode; DESIGN.md §5c), envelopes against the per-sample oracle
# runScalar in internal/robust/scalar_test.go (DESIGN.md §5h), and every
# bound certificate — the shape pricer behind PatternBounds, Check,
# BoundProgram and CheckProgram — against the per-message walk in
# internal/analyze/walk_test.go (DESIGN.md §5e), so their differential
# suites run here too.
diff:
	$(GO) test -race -run 'Tournament.*Scan' ./internal/eventq
	$(GO) test -race -run 'MatchesListOracle' ./internal/cache
	$(GO) test -race -run 'Reference|Reset|Reconfigure|Fuzz' \
		./internal/sim ./internal/worstcase
	$(GO) test -race -run 'Lockstep|Shape|Lanes|Sandwich|CheckProgram' \
		./internal/robust ./internal/analyze ./internal/lanes

# Figure-level benchmarks (repo root), the scheduler-core stress
# benchmarks (sim's session in both modes, against sim's reference scans
# and against worstcase's reference session), the predictor on one
# reused evaluator (the GE reuse case and high-in-degree programs, where
# the lane engine's run-head heaps carry the receives), the fault-hook
# overhead benchmarks, the bound certificate benchmarks (predictd's
# analyze corpus and the Figure-7 programs), and building,
# cache-warming and emulating the 28 Figure-7 programs and replaying
# them on the lane engine (the sweep predictor's one lane, and the
# envelope's five lanes over the diagonal half). The repo's recorded,
# repeatable numbers come from perfbench (perfbench/README.md).
bench:
	$(GO) test -run NONE -bench . -benchmem .
	$(GO) test -run NONE -benchmem \
		-bench 'BenchmarkScheduler|BenchmarkSession|BenchmarkWorstcaseScheduler|BenchmarkPredict(Reuse|Fresh|LargeP)' \
		./internal/sim ./internal/worstcase ./internal/predictor
	$(GO) test -run NONE -benchmem \
		-bench 'BenchmarkFaultHook|BenchmarkWorstcaseFaultHook' \
		./internal/sim ./internal/worstcase
	$(GO) test -run NONE -benchmem -bench BenchmarkCertificate ./internal/analyze
	$(GO) test -run NONE -benchmem -bench 'BenchmarkWarm|BenchmarkBuildProgram' \
		./internal/cache ./internal/ge
	$(GO) test -run NONE -benchmem -bench 'BenchmarkEngineFigure7$$|BenchmarkRunFigure7' \
		./internal/lanes ./internal/machine

sweep:
	$(GO) test -run NONE -bench 'BenchmarkSweep(Serial|Parallel)|BenchmarkQuietModeSimulation' -benchmem .

# Envelope-throughput benchmark: the Figure-7 sweep at samples 16/64/256
# through the scalar per-sample test oracle (runScalar in
# internal/robust/scalar_test.go, one one-lane prediction per sample)
# and the lockstep lane engine (all samples as lanes of one run). The
# scalar s256 leg alone runs for minutes; the long -timeout is
# deliberate.
bench-envelope:
	$(GO) test -run NONE -benchmem -benchtime 1x -timeout 120m \
		-bench 'BenchmarkEnvelope(Scalar|Lockstep)' ./internal/robust

# Short fuzz runs of the robustness-critical state machines and
# verifiers: the scheduler cores (sim's paper, send-priority and
# global-order cores and its worst-case mode on arbitrary patterns and
# machines, P 2-16, each bit-identical to its reference_test.go oracle
# — the worst case to worstcase's independent reference session — and
# every timeline passing the LogGP verifier), one lane of the
# program engine (random small programs under every mode combination,
# seed and fault plan, bit-identical to the session-replay oracle), the
# fault injector's
# retry/backoff accounting (clock monotonicity, no lost messages below
# MaxRetries), the checkpoint journal's resume path (any interrupted
# prefix resumes byte-identically), predictd's canonical cache key
# (equivalent spellings share a key), its strict request decoder (an
# accepted body re-marshals to the same key; one more non-whitespace
# byte is refused), its cache-import verifier (a hostile handoff line
# is dropped without touching the cache; an accepted one is stored
# byte-exact), and the static analyzer (the deadlock verdict predicts
# the worst-case scheduler's forced releases; Check's certificate
# equals the walk oracle's and both schedulers finish inside it). `go
# test -fuzz` takes one fuzz target per invocation, hence one line
# each. -fuzzminimizetime caps the minimization of a newly interesting
# input at 1s (the default is 60s), so each run spends its FUZZTIME
# fuzzing rather than minimizing one input.
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzSimulationAlgorithms -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/sim
	$(GO) test -run NONE -fuzz FuzzWorstcaseScheduler -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/worstcase
	$(GO) test -run NONE -fuzz FuzzLanesMatchSessions -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/lanes
	$(GO) test -run NONE -fuzz FuzzSendOutcome -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/faults
	$(GO) test -run NONE -fuzz FuzzJournalResume -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/sweep
	$(GO) test -run NONE -fuzz FuzzCanonicalKey -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run NONE -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run NONE -fuzz FuzzCacheImport -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run NONE -fuzz FuzzDeadlockVerdict -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/analyze

# End-to-end smoke of the hardened prediction service: builds the real
# cmd/predictd binary, boots it on a random port, and asserts the
# shed/degrade/drain behaviour from outside the process (see
# cmd/predictd/main_test.go; the scripted interrupt tests of
# cmd/experiments and cmd/robust run here too — -count=1 forces the
# binaries to actually run rather than replaying cached results).
serve-smoke:
	$(GO) test -count=1 -v -run 'TestPredictd(EndToEnd|RejectsBadFlags)|TestSigint' \
		./cmd/predictd ./cmd/robust ./cmd/experiments

# End-to-end chaos smoke of the cluster router: builds the real
# predictd and predictrouter binaries, boots 3 peers behind the router,
# and drives the robustness headline from outside — an undisturbed
# replay at the single process's hit rate, then SIGKILL a peer
# mid-replay: zero failed (non-200, non-shed) responses, byte-identity
# against a single-process baseline, recovery to healthy after restart
# (see cmd/predictrouter/main_test.go).
cluster-smoke:
	$(GO) test -count=1 -v -run 'TestPredictrouter(ClusterChaos|RejectsBadFlags)' ./cmd/predictrouter

# Result-cache smoke: cache-on and cache-off predictd processes replay
# one Zipf workload (4000 and 400 requests, universe 64, 8 clients),
# three times each. Every replay must be free of errors and byte
# mismatches and the cache-on leg must hit at ≥ 0.9; its best req/s
# must be ≥ 10x the cache-off leg's best (see TestPredictdCacheReplay
# in cmd/predictd/main_test.go).
loadtest-smoke:
	$(GO) test -count=1 -v -run TestPredictdCacheReplay ./cmd/predictd

# Live-resize proof: a 2-peer cluster grows to 3, then the original
# first peer is drained and removed, all mid-replay under load. The leg
# demands zero failed responses and byte-identity against the
# single-process baseline throughout; the follow-up verification replay
# must hit the cache at ≥ 0.9, the router must count handoff entries
# moved and none lost, and the final epoch must be 3 (see
# TestPredictrouterResize in cmd/predictrouter/main_test.go).
resize-smoke:
	$(GO) test -count=1 -v -run TestPredictrouterResize ./cmd/predictrouter

ci: vet bench-check lint lint-sarif test diff race fuzz-smoke serve-smoke cluster-smoke loadtest-smoke resize-smoke
