# Build/verify targets for the loggpsim repository.
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
#   make diff    — scheduler differential tests (indexed vs reference
#                  cores) under the race detector
#   make bench   — figure + large-P scheduler benchmarks; writes the
#                  scheduler results to BENCH_scheduler.json and the
#                  fault-hook overhead results to BENCH_faults.json
#   make sweep   — serial-vs-parallel sweep benchmark pair only
#   make bench-envelope — Figure-7 envelope throughput, scalar vs
#                  lockstep lane engine, at samples 16/64/256; writes
#                  BENCH_envelope.json
#   make fuzz-smoke — short fuzz of the fault injector, the
#                  checkpoint/resume journal, predictd's canonical cache
#                  key and its cache-import verifier (part of ci)
#   make serve-smoke — boot the real predictd binary on an ephemeral
#                  port and drive the robustness contract end to end:
#                  healthy requests, 400/413 rejection, deadline
#                  degradation to bound certificates, 429 shedding
#                  under overload, SIGTERM drain with exit 0 (part
#                  of ci)
#   make cluster-smoke — boot three predictd peers behind the real
#                  predictrouter binary, replay a Zipf workload through
#                  the router, SIGKILL one peer mid-replay and restart
#                  it: zero failed responses, every 200 byte-identical
#                  to a single-process baseline, killed peer probed
#                  back to healthy (part of ci)
#   make loadtest — replay the Zipf-skewed mixed workload against
#                  cache-on and cache-off predictd processes, then
#                  against a 3-peer predictrouter cluster (undisturbed
#                  and with one peer killed mid-replay), and record all
#                  legs into BENCH_serve.json; fails below a 90% hit
#                  rate (single and cluster), a 10x speedup, or on any
#                  chaos failure or byte-identity mismatch
#   make loadtest-smoke — small single-process loadtest leg pair
#                  asserting a nonzero hit rate and byte-identical
#                  repeated servings; no artifact (part of ci)
#   make resize-smoke — grow a 2-peer cluster to 3, then drain and
#                  remove the original first peer, all mid-replay under
#                  load through the router's admin API: zero failed
#                  responses, byte-identity vs the single-process
#                  baseline, post-resize hit rate ≥ 0.9 (part of ci)

GO ?= go
LOGGPVET := $(CURDIR)/bin/loggpvet
FUZZTIME ?= 15s

.PHONY: all build test vet bench-check lint lint-sarif race diff bench sweep bench-envelope fuzz-smoke serve-smoke cluster-smoke loadtest loadtest-smoke resize-smoke ci

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
# scans (DESIGN.md §perf); run the differential suites under -race so a
# data race in the session-reuse machinery cannot hide behind identical
# output. The lockstep lane engine and the certificate shape pricer make
# the same claim against scalar replays (DESIGN.md §5h), so their
# differential suites run here too.
diff:
	$(GO) test -race -run 'Reference|Reset|Reconfigure|Fuzz' \
		./internal/sim ./internal/worstcase
	$(GO) test -race -run 'Lockstep|Shape|Lanes' \
		./internal/robust ./internal/analyze ./internal/lanes

# Figure-level benchmarks (repo root) plus the scheduler-core stress
# benchmarks; the scheduler run is also recorded, with -benchmem, as
# test2json output in BENCH_scheduler.json for regression tracking.
bench:
	$(GO) test -run NONE -bench . -benchmem .
	$(GO) test -run NONE -json -benchmem \
		-bench 'BenchmarkScheduler|BenchmarkSession|BenchmarkWorstcaseScheduler|BenchmarkPredict(Reuse|Fresh)' \
		./internal/sim ./internal/worstcase ./internal/predictor \
		> BENCH_scheduler.json
	$(GO) test -run NONE -json -benchmem \
		-bench 'BenchmarkFaultHook|BenchmarkWorstcaseFaultHook' \
		./internal/sim ./internal/worstcase \
		> BENCH_faults.json

sweep:
	$(GO) test -run NONE -bench 'BenchmarkSweep(Serial|Parallel)|BenchmarkQuietModeSimulation' -benchmem .

# Envelope-throughput benchmark: the Figure-7 sweep at samples 16/64/256
# through the scalar per-sample path and the lockstep lane engine, both
# recorded as test2json output in BENCH_envelope.json so the batched
# path's speedup is tracked in-repo. The scalar s256 leg alone runs for
# minutes; the long -timeout is deliberate.
bench-envelope:
	$(GO) test -run NONE -json -benchmem -benchtime 1x -timeout 120m \
		-bench 'BenchmarkEnvelope(Scalar|Lockstep)' ./internal/robust \
		> BENCH_envelope.json

# Short fuzz runs of the robustness-critical state machines and
# verifiers: the fault injector's retry/backoff accounting (clock
# monotonicity, no lost messages below MaxRetries), the checkpoint
# journal's resume path (any interrupted prefix resumes
# byte-identically), predictd's canonical cache key (equivalent
# spellings share a key), and its cache-import verifier (a hostile
# handoff line is dropped without touching the cache; an accepted one
# is stored byte-exact). `go test -fuzz` takes one fuzz target per
# invocation, hence one line each.
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzSendOutcome -fuzztime $(FUZZTIME) ./internal/faults
	$(GO) test -run NONE -fuzz FuzzJournalResume -fuzztime $(FUZZTIME) ./internal/sweep
	$(GO) test -run NONE -fuzz FuzzCanonicalKey -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run NONE -fuzz FuzzCacheImport -fuzztime $(FUZZTIME) ./internal/serve

# End-to-end smoke of the hardened prediction service: builds the real
# cmd/predictd binary, boots it on a random port, and asserts the
# shed/degrade/drain behaviour from outside the process (see
# cmd/predictd/main_test.go; the scripted interrupt tests of
# cmd/experiments and cmd/robust run here too — -count=1 forces the
# binaries to actually run rather than replaying cached results).
serve-smoke:
	$(GO) test -count=1 -v -run 'TestPredictd|TestSigint' \
		./cmd/predictd ./cmd/robust ./cmd/experiments

# End-to-end chaos smoke of the cluster router: builds the real
# predictd and predictrouter binaries, boots 3 peers behind the router,
# and drives the robustness headline from outside — SIGKILL a peer
# mid-replay, zero failed (non-200, non-shed) responses, byte-identity
# against a single-process baseline, recovery to healthy after restart
# (see cmd/predictrouter/main_test.go).
cluster-smoke:
	$(GO) test -count=1 -v -run 'TestPredictrouter' ./cmd/predictrouter

# Result-cache + cluster benchmark: cmd/loadgen builds predictd and
# predictrouter, replays the identical Zipf workload against a cache-on
# process, a cache-off process, a 3-peer cluster behind the router, and
# the same cluster with one peer SIGKILLed mid-replay and restarted;
# all legs land in BENCH_serve.json. The -min-* floors turn the ISSUE
# acceptance numbers into assertions (the chaos leg's zero-failure and
# byte-identity demands are unconditional).
loadtest:
	$(GO) run ./cmd/loadgen -requests 4000 -off-requests 400 \
		-universe 64 -skew 1.3 -seed 1 -cluster 3 \
		-min-hit-rate 0.9 -min-speedup 10 -min-cluster-hit-rate 0.9 \
		-out BENCH_serve.json

# CI-sized loadtest: two short single-process legs, no artifact; asserts
# the cache is actually hitting (rate > 0) and every repeated serving
# stayed byte-identical (cmd/loadgen exits non-zero on any mismatch).
# The cluster path has its own CI stage (cluster-smoke).
loadtest-smoke:
	$(GO) run ./cmd/loadgen -requests 300 -off-requests 60 \
		-universe 24 -skew 1.3 -seed 1 -cluster 0 \
		-min-hit-rate 0.01 -out ""

# Live-resize proof: a 2-peer cluster grows to 3, then the original
# first peer is drained and removed, all mid-replay under load. The leg
# demands zero failed responses and byte-identity against the
# single-process baseline throughout; the follow-up verification replay
# must hit the cache at ≥ 0.9 — the drain's cache handoff made that
# possible, so the floor is the handoff working.
resize-smoke:
	$(GO) run ./cmd/loadgen -requests 1600 -off-requests 0 -cluster 0 \
		-universe 64 -skew 1.3 -seed 1 -resize-peers 2 \
		-resize-script "join:2@400,drain:0@800,remove:0@1200" \
		-min-resize-hit-rate 0.9 -out ""

ci: vet bench-check lint lint-sarif test diff race fuzz-smoke serve-smoke cluster-smoke loadtest-smoke resize-smoke
