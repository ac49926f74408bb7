package experiments

import (
	"fmt"
	"math"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/dist"
	"github.com/ada-repro/ada/internal/stats"
	"github.com/ada-repro/ada/internal/tcam"
)

// TieredBenchConfig parameterises the tiered-store budget study: error vs
// calculation budget for a pure TCAM table against a TieredStore whose TCAM
// slice stays pinned while the SRAM tier extends the budget far past what the
// slice alone could hold ("impossible" budgets at unchanged TCAM cost).
type TieredBenchConfig struct {
	// Width is the operand width in bits.
	Width int
	// MonitorEntries is the monitoring bin budget per system.
	MonitorEntries int
	// PureBudgets are the pure-TCAM calculation budgets swept (the table IS
	// the TCAM, so budget = TCAM rows).
	PureBudgets []int
	// TieredBudgets are the tiered calculation budgets swept; every one runs
	// on the same TieredTCAM-row slice, the rest serving from SRAM.
	TieredBudgets []int
	// TieredTCAM is the tiered systems' TCAM slice, normally equal to the
	// largest pure budget so the comparison holds TCAM cost constant.
	TieredTCAM int
	// Rounds is the observe→Sync control rounds run before measuring, enough
	// for the drifting workload to shape the bins and exercise placement.
	Rounds int
	// SamplesPerRound is the operand draw fed to the monitor each round.
	SamplesPerRound int
	// EvalSamples is the operand draw the final error is averaged over.
	EvalSamples int
	// Seed drives sampling.
	Seed int64
}

// DefaultTieredBenchConfig returns the issue's acceptance sweep: pure budgets
// up to 128 rows against tiered budgets extending 10× past that (1280
// entries) on the same 128-row TCAM slice.
func DefaultTieredBenchConfig() TieredBenchConfig {
	return TieredBenchConfig{
		Width:           DomainWidth,
		MonitorEntries:  16,
		PureBudgets:     []int{16, 32, 64, 128},
		TieredBudgets:   []int{256, 512, 1280},
		TieredTCAM:      128,
		Rounds:          12,
		SamplesPerRound: 4000,
		EvalSamples:     20000,
		Seed:            7,
	}
}

// TieredBenchRow is one (mode, budget) measurement. TCAMRows is the physical
// ternary capacity the configuration consumes — the resource the paper's
// budget axis prices; SRAM accounting is zero for pure rows.
type TieredBenchRow struct {
	Mode       string  `json:"mode"` // "pure" or "tiered"
	Budget     int     `json:"budget"`
	TCAMRows   int     `json:"tcam_rows"`
	MeanRelErr float64 `json:"mean_rel_err_pct"`
	TCAMWrites uint64  `json:"tcam_writes"`
	SRAMWrites uint64  `json:"sram_writes"`
	Promotions uint64  `json:"tier_promotions"`
	Demotions  uint64  `json:"tier_demotions"`
	HotRows    int     `json:"hot_rows"`
	ColdRows   int     `json:"cold_rows"`
	// ModelledDelay is the CostModel delay summed over every round, not a
	// clock reading.
	ModelledDelay int64 `json:"total_modelled_delay_ns"`
	SyncedRound   int   `json:"rounds"`
}

// tieredBenchSystem builds one unary x² system: tcamSlice == 0 selects the
// pure table, otherwise a TieredStore with that slice under the budget.
func tieredBenchSystem(cfg TieredBenchConfig, budget, tcamSlice int) (*core.UnarySystem, error) {
	c := core.DefaultConfig(cfg.Width)
	c.MonitorEntries = cfg.MonitorEntries
	c.MaxMonitorEntries = cfg.MonitorEntries // pin: budget is the only axis
	c.CalcEntries = budget
	c.TieredTCAMEntries = tcamSlice
	return core.NewUnary(c, arith.OpSquare)
}

// tieredBenchWorkload returns the per-round samplers: a truncated Gaussian
// whose mean drifts across rounds, so the bin layout keeps adapting and the
// tier placer keeps re-ranking (a static workload converges after one round).
func tieredBenchWorkload(cfg TieredBenchConfig, round int, seedOff int64) *dist.IntSampler {
	span := float64(uint64(1) << uint(cfg.Width))
	mu := span * (0.25 + 0.5*float64(round)/float64(maxInt(cfg.Rounds-1, 1)))
	g := dist.Truncated{D: dist.Gaussian{Mu: mu, Sigma: span / 16}, Lo: 0, Hi: span - 1}
	return dist.NewIntSampler(g, uint64(1)<<uint(cfg.Width)-1, cfg.Seed+seedOff+int64(round)*101)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// runTieredBenchSystem drives one system through the drifting workload and
// measures its final mean relative error. All systems see identical draws
// (same seeds), so rows differ only in store configuration.
func runTieredBenchSystem(sys *core.UnarySystem, cfg TieredBenchConfig) (TieredBenchRow, error) {
	var row TieredBenchRow
	for round := 0; round < cfg.Rounds; round++ {
		sys.ObserveAll(tieredBenchWorkload(cfg, round, 0).Draw(cfg.SamplesPerRound))
		rep, err := sys.Sync()
		if err != nil {
			return row, err
		}
		if rep.Degraded {
			return row, fmt.Errorf("tieredbench: degraded round (%s) with no faults injected", rep.DegradedReason)
		}
		row.SyncedRound++
	}
	// Error against the final round's distribution, drawn independently.
	eval := tieredBenchWorkload(cfg, cfg.Rounds-1, 7777).Draw(cfg.EvalSamples)
	op := sys.Op()
	total := 0.0
	for _, x := range eval {
		approx, err := sys.Engine().Eval(x)
		if err != nil {
			return row, fmt.Errorf("tieredbench: eval miss at %d: %w", x, err)
		}
		total += arith.RelError(approx, op.Exact(x))
	}
	row.MeanRelErr = 100 * total / float64(len(eval))
	tot := sys.Controller().Totals()
	row.TCAMWrites = tot.TCAMWrites
	row.SRAMWrites = tot.SRAMWrites
	row.Promotions = tot.TierPromotions
	row.Demotions = tot.TierDemotions
	row.ModelledDelay = tot.Delay.Nanoseconds()
	if ts, ok := sys.Engine().Store().(*tcam.TieredStore); ok {
		row.HotRows, row.ColdRows = ts.HotLen(), ts.ColdLen()
	} else {
		row.HotRows = sys.Engine().Store().Len()
	}
	return row, nil
}

// RunTieredBench sweeps pure budgets then tiered budgets and returns one row
// per configuration, pure rows first, in sweep order (deterministic output
// for the committed JSON baseline).
func RunTieredBench(cfg TieredBenchConfig) ([]TieredBenchRow, error) {
	rows := make([]TieredBenchRow, 0, len(cfg.PureBudgets)+len(cfg.TieredBudgets))
	for _, b := range cfg.PureBudgets {
		sys, err := tieredBenchSystem(cfg, b, 0)
		if err != nil {
			return nil, err
		}
		row, err := runTieredBenchSystem(sys, cfg)
		if err != nil {
			return nil, err
		}
		row.Mode, row.Budget, row.TCAMRows = "pure", b, b
		rows = append(rows, row)
	}
	for _, b := range cfg.TieredBudgets {
		sys, err := tieredBenchSystem(cfg, b, cfg.TieredTCAM)
		if err != nil {
			return nil, err
		}
		row, err := runTieredBenchSystem(sys, cfg)
		if err != nil {
			return nil, err
		}
		row.Mode, row.Budget, row.TCAMRows = "tiered", b, cfg.TieredTCAM
		rows = append(rows, row)
	}
	return rows, nil
}

// TieredDifferential proves the tiering is semantically free: a tiered system
// and a pure-TCAM system at the same effective budget, fed identical
// workloads, must hold byte-identical calculation populations after every
// round (Store.Fingerprint parity) and evaluate every probe identically. The
// pure reference gets the full budget as real TCAM rows — physically
// implausible at 10× budgets, which is exactly the point: the tiered store
// reproduces that ideal bit-for-bit on a fraction of the ternary capacity.
// Returns the number of rounds compared.
func TieredDifferential(cfg TieredBenchConfig, budget int) (int, error) {
	pure, err := tieredBenchSystem(cfg, budget, 0)
	if err != nil {
		return 0, err
	}
	tiered, err := tieredBenchSystem(cfg, budget, cfg.TieredTCAM)
	if err != nil {
		return 0, err
	}
	for round := 0; round < cfg.Rounds; round++ {
		for _, sys := range []*core.UnarySystem{pure, tiered} {
			sys.ObserveAll(tieredBenchWorkload(cfg, round, 0).Draw(cfg.SamplesPerRound))
			if rep, err := sys.Sync(); err != nil {
				return round, err
			} else if rep.Degraded {
				return round, fmt.Errorf("tieredbench: differential round degraded (%s)", rep.DegradedReason)
			}
		}
		pf, tf := pure.Engine().Store().Fingerprint(), tiered.Engine().Store().Fingerprint()
		if pf != tf {
			return round, fmt.Errorf("tieredbench: round %d: tiered population diverged from pure reference at budget %d", round, budget)
		}
		probe := tieredBenchWorkload(cfg, round, 4242).Draw(2000)
		for _, x := range probe {
			pv, perr := pure.Engine().Eval(x)
			tv, terr := tiered.Engine().Eval(x)
			if (perr == nil) != (terr == nil) || pv != tv {
				return round, fmt.Errorf("tieredbench: round %d: Eval(%d) = %d/%v vs %d/%v", round, x, pv, perr, tv, terr)
			}
		}
	}
	return cfg.Rounds, nil
}

// RenderTieredBench formats the rows.
func RenderTieredBench(rows []TieredBenchRow) string {
	t := stats.NewTable("Error vs calculation budget: pure TCAM vs tiered TCAM+SRAM (x², drifting Gaussian)",
		"mode", "budget", "tcam rows", "err %", "tcam writes", "sram writes", "promoted", "demoted", "hot/cold")
	for _, r := range rows {
		errStr := fmt.Sprintf("%.3f", r.MeanRelErr)
		if math.IsNaN(r.MeanRelErr) {
			errStr = "nan"
		}
		t.AddF(r.Mode, r.Budget, r.TCAMRows, errStr,
			r.TCAMWrites, r.SRAMWrites, r.Promotions, r.Demotions,
			fmt.Sprintf("%d/%d", r.HotRows, r.ColdRows))
	}
	return t.String()
}
