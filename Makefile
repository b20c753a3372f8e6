GO ?= go

.PHONY: check fmt build vet test race corpus update-goldens bench-smoke profile bench fig2-ledger dataplane-ledger recovery-ledger scale-ledger tenk-ledger ctrlplane-ledger stateplane-ledger faultsearch-ledger

# check is the full gate: gofmt-clean sources, vet, build, race-enabled tests,
# the self-verifying scenario corpus under the full differential matrix, and
# the benchmark smoke pass (every registered benchmark plus the
# equivalence/allocation pins).
check: fmt vet build race corpus bench-smoke

# fmt fails listing any Go file gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# corpus runs every scenarios/**/*.pim — the found/ counterexamples included —
# under the 5-cell differential matrix (ref+fast paths, heap+wheel schedulers,
# 1 and 2 shards, flat and map MFIB stores) and checks each run against the
# scenario's embedded golden digest (DESIGN.md §15).
corpus:
	$(GO) run ./cmd/pimscript -corpus scenarios

# update-goldens regenerates every scenario's embedded golden section after an
# intended behavior change. Review the diff: a digest change is a claim that
# the simulation's observable behavior changed on purpose.
update-goldens:
	$(GO) run ./cmd/pimscript -update scenarios

# bench-smoke is the single benchmark smoke gate. It runs every registered
# benchmark once at smoke size through the shared refuse-to-record machinery
# (`pimbench run all -smoke` — a new benchmark registered via bench.Register
# joins this gate with no Makefile edit), repeats the scaling sweep with 4
# shards to exercise the sharded-execution gate (DESIGN.md §12), replays a
# fault scenario under the online invariant checker (§10), runs the §4
# dense/sparse walkthrough (examples/interop) and fails unless the dense
# region's membership reaches the border and its member receives the sparse
# source's packets, pins the pooled frame path (equivalence +
# poison-on-release, §13) and the per-engine AllocsPerRun counts, runs the focused race passes the old per-subsystem
# smokes carried, and compiles-and-runs the perf-sensitive microbenchmarks so
# a regression that breaks them (not just slows them) is caught by `make check`.
bench-smoke:
	$(GO) run ./cmd/pimbench run all -smoke
	$(GO) run ./cmd/pimbench run scaling -smoke -shards 4
	$(GO) run ./cmd/pimscript -check scenarios/rpfailover.pim
	@out=$$($(GO) run ./examples/interop) && echo "$$out" && \
		echo "$$out" | grep -qF 'member-existence flooded to the border: true' && \
		echo "$$out" | grep -qF 'dense-region member received: 5/5' || \
		{ echo "examples/interop: dense-region membership did not reach the border"; exit 1; }
	$(GO) test -run 'TestScenarios(FramePoolEquivalence|PoisonedPool)' -count=1 ./internal/script/
	$(GO) test -run 'ZeroAlloc' -count=1 ./internal/core/ ./internal/pimdm/ ./internal/dvmrp/ ./internal/cbt/ ./internal/mospf/ ./internal/igmp/
	$(GO) test -run 'TestFlatMapStoreLockstep' -count=1 ./internal/mfib/
	$(GO) test -race -count=1 ./internal/telemetry/ ./internal/script/ ./internal/netsim/... ./internal/parallel/... ./internal/faultsearch/ ./internal/faults/ ./internal/mfib/ ./internal/unicast/
	$(GO) test -run XXX -bench 'BenchmarkDijkstraReuse|BenchmarkLANDeliver|BenchmarkScheduler(Churn|Dense)' -benchtime 10x ./internal/topology/ ./internal/netsim/
	$(GO) test -run XXX -bench 'BenchmarkEngineFig2a' -benchtime 1x .
	$(GO) test -run XXX -bench 'BenchmarkLPM(Trie|Linear)256' -benchtime 10x ./internal/unicast/
	$(GO) test -run XXX -bench 'BenchmarkOracleRecompute(50|1000)$$' -benchtime 1x ./internal/unicast/
	$(GO) test -run XXX -bench 'BenchmarkRPF(CacheHit|Uncached)' -benchtime 10x ./internal/rpf/
	$(GO) test -run XXX -bench 'BenchmarkFanout(Compiled|Reference)' -benchtime 10x ./internal/mfib/
	$(GO) test -run XXX -bench 'BenchmarkDataplane(Shared|Dense)(Fast|Ref)' -benchtime 1x ./internal/experiments/

# bench is the full metric-reporting benchmark suite (EXPERIMENTS.md).
bench:
	$(GO) test -bench . -benchmem ./...

# profile captures CPU and heap profiles of a pimbench run for pprof; set
# PROFILE_ARGS to profile a different benchmark (default: the CI-sized
# control-plane churn benchmark).
profile:
	$(GO) run ./cmd/pimbench run $(or $(PROFILE_ARGS),ctrlplane -smoke) -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof; inspect with: $(GO) tool pprof cpu.pprof"

# The *-ledger targets run a benchmark at full size and append a
# machine-readable entry to its ledger (see EXPERIMENTS.md). Recording is
# refused if the benchmark's differential gate fails.
fig2-ledger:
	$(GO) run ./cmd/pimbench run fig2 -label $(or $(LABEL),run)

dataplane-ledger:
	$(GO) run ./cmd/pimbench run dataplane -label $(or $(LABEL),run)

recovery-ledger:
	$(GO) run ./cmd/pimbench run recovery -label $(or $(LABEL),run)

# scale-ledger appends heap and wheel entries for the large-internet scaling
# sweeps; set SHARDS to also record a sharded pass gated against the
# sequential grid.
scale-ledger:
	$(GO) run ./cmd/pimbench run scaling -label $(or $(LABEL),run) -shards $(or $(SHARDS),1)

tenk-ledger:
	$(GO) run ./cmd/pimbench run tenk -label $(or $(LABEL),run) -shards $(or $(SHARDS),4)

ctrlplane-ledger:
	$(GO) run ./cmd/pimbench run ctrlplane -label $(or $(LABEL),run)

# stateplane-ledger records the MFIB footprint/walk comparison (flat arena
# store vs reference map store); recording is refused unless the two stores
# produce observably identical runs (DESIGN.md §16).
stateplane-ledger:
	$(GO) run ./cmd/pimbench run stateplane -label $(or $(LABEL),run)

# faultsearch-ledger runs the full-budget fault-schedule search and adds any
# newly found minimized counterexample to the scenarios/found/ corpus (run
# `make update-goldens` afterwards to embed the new files' digests).
faultsearch-ledger:
	$(GO) run ./cmd/pimbench run faultsearch -seed $(or $(SEED),1) -budget $(or $(BUDGET),600) -emit scenarios/found -label $(or $(LABEL),run)
