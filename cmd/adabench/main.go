// Command adabench regenerates the paper's tables and figures.
//
// Usage:
//
//	adabench [-parallel N] [-out DIR] [experiment...]
//
// Experiments: fabric fig1a fig1b fig1c fig5 fig6 fig7a fig7b fig7c fig8
// fig9 fig10 recovery round serve table2 tenant tiered xcp all (default:
// all). Each prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured record. round compares the
// incremental control round with full repopulation across churn levels:
// TCAM writes, recomputed entries and modelled delay. serve is the
// service-mode soak: identical phase-shifting workloads run once under the
// drift-paced pacer (with error SLO and rolling TCAM write budget) and once
// under the paper's fixed repopulation cadence, comparing round counts, TCAM
// writes, and error percentiles under tenant churn, injected faults, and a
// mid-soak crash/restart. recovery is the failure model v2 experiment:
// silent TCAM corruption against the read-back audit, measuring detection
// latency, anti-entropy repair writes vs full repopulation, and the
// arithmetic error of the corruption window. tiered sweeps error vs
// calculation budget for the tiered TCAM+SRAM store against a pure TCAM
// table: the tiered budgets extend 10× past the TCAM slice at unchanged
// ternary capacity, and a fingerprint differential proves the tiering is
// bit-identical to the pure reference. fabric shards dozens of drifting
// tenants across a 64-switch fabric and compares elastic rebalancing
// (switch-local arbiters plus cross-switch migration) against static equal
// placement, reporting aggregate error and modelled per-switch round latency
// under injected faults.
//
// No experiment times the host: speed lives in the owning packages' Go
// benchmarks (go test -bench), where make bench-round and make bench-cache
// also run the incremental round's and the lookup cache's speed floors.
//
// -parallel sets the replay worker count for the experiments that feed
// operand streams through the monitoring path (fig7c, fig9, fabric); 0 uses
// all cores, 1 restores the sequential replay. Results are worker-count
// independent — register increments are commutative. -out DIR writes each
// benchmark experiment's result (fabric, recovery, round, serve, tenant,
// tiered) as DIR/BENCH_<name>.json in addition to printing its table;
// `-out .` regenerates the committed baselines in place.
//
// Invalid flag values (a negative -parallel, an -out that is not a
// directory) are usage errors: adabench prints the usage text and exits
// with status 2; experiment failures exit 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/ada-repro/ada/internal/experiments"
)

var (
	parallel = flag.Int("parallel", 0, "replay workers for fig7c/fig9/fabric (0 = all cores)")
	outDir   = flag.String("out", "", "write each benchmark result as JSON to DIR/BENCH_<experiment>.json")
)

// validateFlags rejects flag values that parse but make no sense; main
// treats a non-nil return as a usage error (exit 2).
func validateFlags(parallel int, out string) error {
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", parallel)
	}
	if out != "" {
		if fi, err := os.Stat(out); err != nil || !fi.IsDir() {
			return fmt.Errorf("-out %q is not a directory", out)
		}
	}
	return nil
}

// runner runs one experiment and returns its rendered table plus, for a
// benchmark experiment, the result -out writes as BENCH_<name>.json (nil
// for the paper figures).
type runner func() (out string, result any, err error)

// runners maps experiment names to their runs.
var runners = map[string]runner{
	"fig1a": func() (string, any, error) {
		rows, err := experiments.RunFig1a(experiments.DefaultFig1aConfig())
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFig1a(rows), nil, nil
	},
	"fig1b": func() (string, any, error) {
		res, err := experiments.RunFig1b(experiments.DefaultFig1bConfig())
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFig1b(res), nil, nil
	},
	"fig1c": func() (string, any, error) {
		return experiments.RenderFig1c(experiments.RunFig1c(experiments.DefaultFig1cConfig())), nil, nil
	},
	"fig5": func() (string, any, error) {
		rows, err := experiments.RunFig5(experiments.DefaultFig5Config())
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFig5(rows), nil, nil
	},
	"fig6": func() (string, any, error) {
		rows, err := experiments.RunFig6(experiments.DefaultFig6Config())
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFig6(rows), nil, nil
	},
	"fig7a": func() (string, any, error) {
		rows, err := experiments.RunFig7a(experiments.DefaultFig7aConfig())
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFig7a(rows), nil, nil
	},
	"fig7b": func() (string, any, error) {
		return experiments.RenderFig7b(experiments.RunFig7b([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})), nil, nil
	},
	"fig7c": func() (string, any, error) {
		cfg := experiments.DefaultFig7cConfig()
		cfg.Workers = *parallel
		rows, err := experiments.RunFig7c(cfg)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFig7c(rows), nil, nil
	},
	"fig8": func() (string, any, error) {
		rows, err := experiments.RunFig8(experiments.DefaultFig8Config())
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFig8(rows), nil, nil
	},
	"fig9": func() (string, any, error) {
		cfg := experiments.DefaultFig9Config()
		cfg.Workers = *parallel
		rows, err := experiments.RunFig9(cfg)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFig9(rows), nil, nil
	},
	"fig10": func() (string, any, error) {
		rows, err := experiments.RunFig10(experiments.DefaultFig10Config())
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFig10(rows), nil, nil
	},
	"xcp": func() (string, any, error) {
		rows, err := experiments.RunExtXCP(experiments.DefaultExtXCPConfig())
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderExtXCP(rows), nil, nil
	},
	"recovery": func() (string, any, error) {
		rows, err := experiments.RunRecoveryBench(experiments.DefaultRecoveryBenchConfig())
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderRecoveryBench(rows), rows, nil
	},
	"round": func() (string, any, error) {
		rows, err := experiments.RunRoundBench(experiments.DefaultRoundBenchConfig())
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderRoundBench(rows), rows, nil
	},
	"tiered": func() (string, any, error) {
		rows, err := experiments.RunTieredBench(experiments.DefaultTieredBenchConfig())
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderTieredBench(rows), rows, nil
	},
	"fabric": func() (string, any, error) {
		cfg := experiments.DefaultFabricBenchConfig()
		if *parallel > 0 {
			cfg.Workers = *parallel
		}
		res, err := experiments.RunFabricBench(cfg)
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderFabricBench(res), res, nil
	},
	"serve": func() (string, any, error) {
		res, err := experiments.RunServeBench(experiments.DefaultServeBenchConfig())
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderServeBench(res), res, nil
	},
	"tenant": func() (string, any, error) {
		res, err := experiments.RunTenantBench(experiments.DefaultTenantBenchConfig())
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderTenantBench(res), res, nil
	},
	"table2": func() (string, any, error) {
		rows, err := experiments.RunTable2(experiments.DefaultTable2Config())
		if err != nil {
			return "", nil, err
		}
		return experiments.RenderTable2(rows), nil, nil
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
		fmt.Fprintf(os.Stderr, "usage: adabench [-parallel N] [-out DIR] [experiment...]\nexperiments: %v all\n", order())
	}
	flag.Parse()
	if err := validateFlags(*parallel, *outDir); err != nil {
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

// run runs the named experiments in order, writing each benchmark result
// under -out. It stops at the first failure.
func run(names []string) error {
	for _, name := range names {
		r, ok := runners[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want one of %v)", name, order())
		}
		start := time.Now()
		out, res, err := r()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println(out)
		if *outDir != "" && res != nil {
			if err := experiments.WriteBenchJSON(filepath.Join(*outDir, "BENCH_"+name+".json"), res); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
