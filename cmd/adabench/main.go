// Command adabench regenerates the paper's tables and figures.
//
// Usage:
//
//	adabench [-parallel N] [-zipf S] [-lookup-out FILE] [-round-out FILE] [-tenant-out FILE] [-recovery-out FILE] [-tiered-out FILE] [-fabric-out FILE] [-serve-out FILE] [-cache-out FILE] [experiment...]
//
// Experiments: cache fabric fig1a fig1b fig1c fig5 fig6 fig7a
// fig7b fig7c fig8 fig9 fig10 lookup recovery roundbench serve table2 tenant
// tiered xcp all (default: all). cache is the lookup-cache experiment: a
// Zipf-skew × cache-size sweep comparing cached vs uncached single-thread
// eval throughput (plus standalone intra-batch dedup rows), with a built-in
// differential that drives a cached and an uncached control plane through
// identical churn, faults, audits, and a crash/restart and fails on any
// bitwise divergence. serve is the service-mode soak: identical
// phase-shifting workloads run once under the drift-paced pacer (with error
// SLO and rolling TCAM write budget) and once under the paper's fixed
// repopulation cadence, comparing round counts, TCAM writes, and error
// percentiles under tenant churn, injected faults, and a mid-soak
// crash/restart. Each prints the same rows/series the paper reports;
// see EXPERIMENTS.md for the paper-vs-measured record. recovery is the
// failure model v2 experiment: silent TCAM corruption against the read-back
// audit, measuring detection latency, anti-entropy repair writes vs full
// repopulation, and the arithmetic error of the corruption window. tiered
// sweeps error vs calculation budget for the tiered TCAM+SRAM store against
// a pure TCAM table: the tiered budgets extend 10× past the TCAM slice at
// unchanged ternary capacity, and a fingerprint differential proves the
// tiering is bit-identical to the pure reference. fabric shards dozens of
// drifting tenants across a 64-switch fabric and compares elastic
// rebalancing (switch-local arbiters plus cross-switch migration) against
// static equal placement, reporting aggregate error, per-switch round
// latency under injected faults, and the replay-scaling grid.
//
// -parallel sets the replay worker count for the experiments that feed
// operand streams through the monitoring path (fig7c, fig9, lookup,
// fabric); 0 uses all cores, 1 restores the sequential replay. Results are
// worker-count independent — register increments are commutative.
// -lookup-out writes the lookup microbenchmark rows as JSON (the committed
// BENCH_lookup.json baseline) in addition to printing the table; -round-out
// does the same for the control-round benchmark (BENCH_round.json),
// -tenant-out for the multi-tenant sharing benchmark (BENCH_tenant.json),
// -recovery-out for the corruption-recovery benchmark (BENCH_recovery.json), -tiered-out for the tiered-store budget
// sweep (BENCH_tiered.json), -fabric-out for the sharded-fabric benchmark
// (BENCH_fabric.json), -serve-out for the service-mode soak
// (BENCH_serve.json), and -cache-out for the lookup-cache sweep
// (BENCH_cache.json).
//
// -zipf overrides the operand-stream Zipf exponent for the serve experiment
// (0 = uniform draws; negative keeps its default workload); the chosen skew
// is recorded in the JSON so committed baselines are self-describing.
//
// cache and roundbench also enforce their wall-clock floors (see
// cacheSpeedupFloor and roundSpeedupFloor): the run prints its table and
// writes its JSON, and adabench exits 1 after the remaining experiments if
// a measured speedup is below its floor. The tests of those experiments
// assert only machine-independent properties, so the floors live here, in
// the bench gate.
//
// Invalid flag values (e.g. a negative -parallel) are usage errors: adabench
// prints the usage text and exits with status 2; experiment failures exit 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/ada-repro/ada/internal/experiments"
)

var (
	parallel  = flag.Int("parallel", 0, "replay workers for fig7c/fig9/lookup (0 = all cores)")
	lookupOut = flag.String("lookup-out", "", "write lookup benchmark rows as JSON to this file")
	roundOut  = flag.String("round-out", "", "write control-round benchmark rows as JSON to this file")
	tenantOut = flag.String("tenant-out", "", "write multi-tenant sharing benchmark result as JSON to this file")
	recovOut  = flag.String("recovery-out", "", "write corruption-recovery benchmark rows as JSON to this file")
	tieredOut = flag.String("tiered-out", "", "write tiered-store budget sweep rows as JSON to this file")
	fabricOut = flag.String("fabric-out", "", "write sharded-fabric benchmark result as JSON to this file")
	serveOut  = flag.String("serve-out", "", "write service-mode soak benchmark result as JSON to this file")
	cacheOut  = flag.String("cache-out", "", "write lookup-cache benchmark result as JSON to this file")
	zipfS     = flag.Float64("zipf", -1, "override the operand-stream Zipf exponent for serve (0 = uniform; <0 = experiment default)")
)

// Wall-clock floors the bench runs enforce. cacheSpeedupFloor is the cached
// over uncached eval throughput at the cache sweep's headline cell;
// roundSpeedupFloor is full repopulation over the converged incremental
// round at the 1024-entry budget.
const (
	cacheSpeedupFloor = 2.0
	roundSpeedupFloor = 5.0
)

// errBelowFloor marks a run that completed but missed its wall-clock floor.
var errBelowFloor = errors.New("below its wall-clock floor")

// validateFlags rejects flag values that parse but make no sense; main
// treats a non-nil return as a usage error (exit 2).
func validateFlags(parallel int) error {
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", parallel)
	}
	return nil
}

// runners maps experiment names to their runs. A run that renders its
// table but then misses a bench floor returns both, the error wrapping
// errBelowFloor; run prints the table and goes on to the next experiment.
var runners = map[string]func() (string, error){
	"fig1a": func() (string, error) {
		rows, err := experiments.RunFig1a(experiments.DefaultFig1aConfig())
		if err != nil {
			return "", err
		}
		return experiments.RenderFig1a(rows), nil
	},
	"fig1b": func() (string, error) {
		res, err := experiments.RunFig1b(experiments.DefaultFig1bConfig())
		if err != nil {
			return "", err
		}
		return experiments.RenderFig1b(res), nil
	},
	"fig1c": func() (string, error) {
		return experiments.RenderFig1c(experiments.RunFig1c(experiments.DefaultFig1cConfig())), nil
	},
	"fig5": func() (string, error) {
		rows, err := experiments.RunFig5(experiments.DefaultFig5Config())
		if err != nil {
			return "", err
		}
		return experiments.RenderFig5(rows), nil
	},
	"fig6": func() (string, error) {
		rows, err := experiments.RunFig6(experiments.DefaultFig6Config())
		if err != nil {
			return "", err
		}
		return experiments.RenderFig6(rows), nil
	},
	"fig7a": func() (string, error) {
		rows, err := experiments.RunFig7a(experiments.DefaultFig7aConfig())
		if err != nil {
			return "", err
		}
		return experiments.RenderFig7a(rows), nil
	},
	"fig7b": func() (string, error) {
		return experiments.RenderFig7b(experiments.RunFig7b([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})), nil
	},
	"fig7c": func() (string, error) {
		cfg := experiments.DefaultFig7cConfig()
		cfg.Workers = *parallel
		rows, err := experiments.RunFig7c(cfg)
		if err != nil {
			return "", err
		}
		return experiments.RenderFig7c(rows), nil
	},
	"fig8": func() (string, error) {
		rows, err := experiments.RunFig8(experiments.DefaultFig8Config())
		if err != nil {
			return "", err
		}
		return experiments.RenderFig8(rows), nil
	},
	"fig9": func() (string, error) {
		cfg := experiments.DefaultFig9Config()
		cfg.Workers = *parallel
		rows, err := experiments.RunFig9(cfg)
		if err != nil {
			return "", err
		}
		return experiments.RenderFig9(rows), nil
	},
	"fig10": func() (string, error) {
		rows, err := experiments.RunFig10(experiments.DefaultFig10Config())
		if err != nil {
			return "", err
		}
		return experiments.RenderFig10(rows), nil
	},
	"xcp": func() (string, error) {
		rows, err := experiments.RunExtXCP(experiments.DefaultExtXCPConfig())
		if err != nil {
			return "", err
		}
		return experiments.RenderExtXCP(rows), nil
	},
	"lookup": func() (string, error) {
		cfg := experiments.DefaultLookupBenchConfig()
		if *parallel > 0 {
			cfg.Workers = []int{1, *parallel}
		}
		rows, err := experiments.RunLookupBench(cfg)
		if err != nil {
			return "", err
		}
		if *lookupOut != "" {
			if err := experiments.WriteLookupBenchJSON(*lookupOut, rows); err != nil {
				return "", err
			}
		}
		return experiments.RenderLookupBench(rows), nil
	},
	"recovery": func() (string, error) {
		rows, err := experiments.RunRecoveryBench(experiments.DefaultRecoveryBenchConfig())
		if err != nil {
			return "", err
		}
		if *recovOut != "" {
			if err := experiments.WriteRecoveryBenchJSON(*recovOut, rows); err != nil {
				return "", err
			}
		}
		return experiments.RenderRecoveryBench(rows), nil
	},
	"roundbench": func() (string, error) {
		rows, err := experiments.RunRoundBench(experiments.DefaultRoundBenchConfig())
		if err != nil {
			return "", err
		}
		if *roundOut != "" {
			if err := experiments.WriteRoundBenchJSON(*roundOut, rows); err != nil {
				return "", err
			}
		}
		out := experiments.RenderRoundBench(rows)
		for _, r := range rows {
			if r.Churn == 0 && r.Speedup < roundSpeedupFloor {
				return out, fmt.Errorf("%w: converged round speedup %.1fx, floor %.0fx", errBelowFloor, r.Speedup, roundSpeedupFloor)
			}
		}
		return out, nil
	},
	"tiered": func() (string, error) {
		rows, err := experiments.RunTieredBench(experiments.DefaultTieredBenchConfig())
		if err != nil {
			return "", err
		}
		if *tieredOut != "" {
			if err := experiments.WriteTieredBenchJSON(*tieredOut, rows); err != nil {
				return "", err
			}
		}
		return experiments.RenderTieredBench(rows), nil
	},
	"fabric": func() (string, error) {
		cfg := experiments.DefaultFabricBenchConfig()
		if *parallel > 0 {
			cfg.Workers = *parallel
		}
		res, err := experiments.RunFabricBench(cfg)
		if err != nil {
			return "", err
		}
		if *fabricOut != "" {
			if err := experiments.WriteFabricBenchJSON(*fabricOut, res); err != nil {
				return "", err
			}
		}
		return experiments.RenderFabricBench(res), nil
	},
	"serve": func() (string, error) {
		cfg := experiments.DefaultServeBenchConfig()
		if *zipfS >= 0 {
			cfg.ZipfS = *zipfS
		}
		res, err := experiments.RunServeBench(cfg)
		if err != nil {
			return "", err
		}
		if *serveOut != "" {
			if err := experiments.WriteServeBenchJSON(*serveOut, res); err != nil {
				return "", err
			}
		}
		return experiments.RenderServeBench(res), nil
	},
	"tenant": func() (string, error) {
		res, err := experiments.RunTenantBench(experiments.DefaultTenantBenchConfig())
		if err != nil {
			return "", err
		}
		if *tenantOut != "" {
			if err := experiments.WriteTenantBenchJSON(*tenantOut, res); err != nil {
				return "", err
			}
		}
		return experiments.RenderTenantBench(res), nil
	},
	"cache": func() (string, error) {
		res, err := experiments.RunCacheBench(experiments.DefaultCacheBenchConfig())
		if err != nil {
			return "", err
		}
		if *cacheOut != "" {
			if err := experiments.WriteCacheBenchJSON(*cacheOut, res); err != nil {
				return "", err
			}
		}
		out := experiments.RenderCacheBench(res)
		if res.HeadlineSpeedup < cacheSpeedupFloor {
			return out, fmt.Errorf("%w: headline speedup %.2fx, floor %.0fx", errBelowFloor, res.HeadlineSpeedup, cacheSpeedupFloor)
		}
		return out, nil
	},
	"table2": func() (string, error) {
		rows, err := experiments.RunTable2(experiments.DefaultTable2Config())
		if err != nil {
			return "", err
		}
		return experiments.RenderTable2(rows), nil
	},
}

func order() []string {
	names := make([]string, 0, len(runners))
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: adabench [experiment...]\nexperiments: %v all\n", order())
	}
	flag.Parse()
	if err := validateFlags(*parallel); err != nil {
		fmt.Fprintln(os.Stderr, "adabench:", err)
		flag.Usage()
		os.Exit(2)
	}
	names := flag.Args()
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		names = order()
	}
	if err := run(names); err != nil {
		fmt.Fprintln(os.Stderr, "adabench:", err)
		os.Exit(1)
	}
}

// run runs the named experiments in order. It stops at the first failure,
// except that a missed wall-clock floor is reported after the remaining
// experiments have run.
func run(names []string) error {
	var floors []error
	for _, name := range names {
		r, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want one of %v)", name, order())
		}
		start := time.Now()
		out, err := r()
		if out != "" {
			fmt.Println(out)
		}
		if errors.Is(err, errBelowFloor) {
			floors = append(floors, fmt.Errorf("%s: %w", name, err))
		} else if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return errors.Join(floors...)
}
