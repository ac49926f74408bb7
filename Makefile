GO ?= go

.PHONY: all build test test-short vet bench bench-lookup bench-round bench-tenant bench-recovery bench-tiered bench-fabric bench-serve bench-cache bench-compare bench-all chaos experiments examples cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Fault-injected Fig 8 soak: reconvergence and transactional-round
# invariants under the default and outage chaos profiles, repeated.
chaos:
	$(GO) test -run TestChaos -count=3 -v ./internal/experiments

# One benchmark per paper table/figure plus the design-choice ablations.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run '^$$' .

# Lookup fast-path benchmarks (LookupIndexBatch as a batch of one and as a
# full batch, vs the linear scan) plus the committed BENCH_lookup.json
# baseline.
bench-lookup:
	$(GO) test -bench 'Lookup' -benchmem -run '^$$' ./internal/tcam
	$(GO) run ./cmd/adabench -lookup-out BENCH_lookup.json lookup

# Control-round benchmarks (incremental vs full repopulation) plus the
# committed BENCH_round.json baseline. adabench exits non-zero when the
# converged round is less than 5x faster than full repopulation.
bench-round:
	$(GO) test -bench 'Round' -benchmem -run '^$$' ./internal/experiments
	$(GO) run ./cmd/adabench -round-out BENCH_round.json roundbench

# Multi-tenant arbitration: elastic vs static split on one shared table,
# plus the committed BENCH_tenant.json baseline.
bench-tenant:
	$(GO) test -run TenantBench -v ./internal/experiments
	$(GO) run ./cmd/adabench -tenant-out BENCH_tenant.json tenant

# Failure model v2: silent-corruption detection latency, anti-entropy
# repair writes vs full repopulation, and the arithmetic error of the
# corruption window, plus the committed BENCH_recovery.json artefact.
bench-recovery:
	$(GO) test -run TestRecoveryBenchAcceptance -v ./internal/experiments
	$(GO) run ./cmd/adabench -recovery-out BENCH_recovery.json recovery

# Tiered TCAM+SRAM store: error-vs-budget sweep extending 10× past the
# TCAM slice at unchanged ternary capacity, the fingerprint differential
# against the pure table, and the committed BENCH_tiered.json artefact.
bench-tiered:
	$(GO) test -run 'TestTieredBenchAcceptance|TestTieredDifferential' -v ./internal/experiments
	$(GO) run ./cmd/adabench -tiered-out BENCH_tiered.json tiered

# Sharded multi-switch fabric: elastic rebalancing vs static placement at
# 64 switches, the replay-scaling grid, and round latency under per-switch
# faults, plus the committed BENCH_fabric.json artefact.
bench-fabric:
	$(GO) test -run TestFabricBenchElasticBeatsStatic -v ./internal/experiments
	$(GO) run ./cmd/adabench -fabric-out BENCH_fabric.json fabric

# Service-mode soak: drift-paced control rounds vs the paper's fixed
# repopulation cadence over identical streams, with tenant churn, injected
# faults, a mid-soak crash/restart, and leak/allocation accounting, plus
# the committed BENCH_serve.json artefact.
bench-serve:
	$(GO) test -run TestServeBenchAcceptance -v ./internal/experiments
	$(GO) run ./cmd/adabench -serve-out BENCH_serve.json serve

# Lookup-cache hot path: the Zipf × cache-size sweep with cached-vs-uncached
# throughput, standalone dedup rows, the 500-round bitwise differential
# (churn, faults, crash/restart), and the committed BENCH_cache.json
# artefact. The acceptance test asserts that the cached path stays
# allocation-free per batch; adabench exits non-zero when the headline
# speedup is below 2x.
bench-cache:
	$(GO) test -run TestCacheBenchAcceptance -v -timeout 30m ./internal/experiments
	$(GO) run ./cmd/adabench -cache-out BENCH_cache.json cache

# A/B comparison capture for benchstat. Run once before a change and once
# after, then diff:
#   make bench-compare OUT=before.txt
#   ...edit...
#   make bench-compare OUT=after.txt
#   benchstat before.txt after.txt
# (benchstat: go run golang.org/x/perf/cmd/benchstat@latest works too.)
OUT ?= bench.txt
bench-compare:
	$(GO) test -bench . -benchmem -count 6 -run '^$$' ./internal/tcam ./internal/core ./internal/experiments | tee $(OUT)

# All committed benchmark baselines in one go.
bench-all: bench-lookup bench-round bench-tenant bench-recovery bench-tiered bench-fabric bench-serve bench-cache

# Regenerate every evaluation table/figure as text.
experiments:
	$(GO) run ./cmd/adabench all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ratelimiter
	$(GO) run ./examples/rcp
	$(GO) run ./examples/heavyhitter
	$(GO) run ./examples/multitenant

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
