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

# Lookup fast-path benchmarks: LookupIndexBatch as a batch of one, as a
# full batch and from parallel readers, against the linear scan, over
# random 32-bit prefixes (trie), a width-16 full cover (16-bit LUT) and an
# even and an ADA-peaked width-17 tiling (direct index) at 128, 1024 and
# 8192 entries. Use -cpu 1,2,4 for the parallel curve.
bench-lookup:
	$(GO) test -bench 'Lookup' -benchmem -run '^$$' ./internal/tcam

# Control-round speed gate: a converged incremental round against full
# repopulation at a 1024-entry budget, timed in the same run; it fails when
# full repopulation is less than 5x slower. Then Algorithm 3 alone in the
# dataplane (width 17, 4096 entries) and control (width 16, 1024 entries)
# shapes, and the committed BENCH_round.json: writes, recomputed entries
# and modelled delay per churn level.
bench-round:
	$(GO) test -bench 'Round' -benchmem -run '^$$' ./internal/core
	$(GO) test -bench 'ADAAllocate' -benchmem -run '^$$' ./internal/population
	$(GO) run ./cmd/adabench -out . round

# Multi-tenant arbitration: elastic vs static split on one shared table,
# plus the committed BENCH_tenant.json baseline.
bench-tenant:
	$(GO) test -run TenantBench -v ./internal/experiments
	$(GO) run ./cmd/adabench -out . tenant

# Failure model v2: silent-corruption detection latency, anti-entropy
# repair writes vs full repopulation, and the arithmetic error of the
# corruption window, plus the committed BENCH_recovery.json artefact.
bench-recovery:
	$(GO) test -run TestRecoveryBenchAcceptance -v ./internal/experiments
	$(GO) run ./cmd/adabench -out . recovery

# Tiered TCAM+SRAM store: error-vs-budget sweep extending 10× past the
# TCAM slice at unchanged ternary capacity, the fingerprint differential
# against the pure table, and the committed BENCH_tiered.json artefact.
bench-tiered:
	$(GO) test -run 'TestTieredBenchAcceptance|TestTieredDifferential' -v ./internal/experiments
	$(GO) run ./cmd/adabench -out . tiered

# Sharded multi-switch fabric: the replay rate of the sharded
# ObserveEvalPacked ingest on the experiment's elastic fabric, then elastic
# rebalancing vs static placement at 64 switches with modelled round
# latency under per-switch faults, plus the committed BENCH_fabric.json
# artefact.
bench-fabric:
	$(GO) test -bench 'ShardedIngest' -benchmem -run '^$$' ./internal/fabric
	$(GO) test -run TestFabricBenchElasticBeatsStatic -v ./internal/experiments
	$(GO) run ./cmd/adabench -out . fabric

# Service-mode soak: drift-paced control rounds vs the paper's fixed
# repopulation cadence over identical streams, with tenant churn, injected
# faults, a mid-soak crash/restart, and leak/allocation accounting, plus
# the committed BENCH_serve.json artefact.
bench-serve:
	$(GO) test -run TestServeBenchAcceptance -v ./internal/experiments
	$(GO) run ./cmd/adabench -out . serve

# Lookup-cache hot path: uncached and 4096-slot cached eval at
# Zipf s = 0.6, 1.1 and 1.4 over the width-17 exact population, then the
# speed gate, which fails when the cache is less than 2x faster than
# uncached eval at s = 1.1. The cached-vs-uncached differential is the tier-1
# test TestCachedMatchesUncached in internal/core.
bench-cache:
	$(GO) test -bench 'CachedEval|CacheFloor' -benchmem -run '^$$' ./internal/arith

# A/B comparison capture for benchstat. Run once before a change and once
# after, then diff:
#   make bench-compare OUT=before.txt
#   ...edit...
#   make bench-compare OUT=after.txt
#   benchstat before.txt after.txt
# (benchstat: go run golang.org/x/perf/cmd/benchstat@latest works too.)
# The speed gates (Benchmark*Floor) stay out of the capture: a missed floor
# fails its package and drops its samples, and tee would hide the exit
# status. bench-round and bench-cache run them.
OUT ?= bench.txt
bench-compare:
	$(GO) test -bench . -skip 'Floor$$' -benchmem -count 6 -run '^$$' ./internal/tcam ./internal/arith ./internal/core ./internal/fabric | tee $(OUT)

# Every speed benchmark and gate above, and every committed benchmark
# baseline, in one go.
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
