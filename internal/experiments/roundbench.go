package experiments

import (
	"fmt"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/stats"
)

// RoundBenchConfig parameterises the control-round microbenchmark: the
// incremental round (dirty-subtree repopulation + memoized Algorithm 3 +
// delta TCAM commit) against full repopulation, swept across churn levels.
type RoundBenchConfig struct {
	// ChurnLevels are the fractions of monitoring bins whose hit counts
	// change every round (0 = fully converged, 1 = every leaf dirty).
	ChurnLevels []float64
	// Rounds is the timed rounds per (churn, mode) measurement.
	Rounds int
	// Warmup is the untimed rounds run first so both systems reach the
	// steady structure the churn schedule assumes.
	Warmup int
	// MonitorEntries is the monitoring bin count (held fixed: the feed keeps
	// bins balanced so the structure never reshapes mid-measurement).
	MonitorEntries int
	// CalcBudget is the calculation TCAM budget (the issue's acceptance
	// point is 1024).
	CalcBudget int
	// Width is the operand width in bits.
	Width int
	// BaseCount is the per-bin hit count fed each round; churned bins
	// alternate BaseCount↔1.2·BaseCount so they dirty every round and shift
	// their allocation share, while the imbalance (0.167) stays below the
	// 0.20 rebalance threshold and the bin structure never reshapes.
	BaseCount int
}

// DefaultRoundBenchConfig returns the issue's acceptance sweep: churn 0%,
// 5%, 50%, and 100% at a 1024-entry calculation budget.
func DefaultRoundBenchConfig() RoundBenchConfig {
	return RoundBenchConfig{
		ChurnLevels:    []float64{0, 0.05, 0.5, 1},
		Rounds:         30,
		Warmup:         5,
		MonitorEntries: 64,
		CalcBudget:     1024,
		Width:          16,
		BaseCount:      100,
	}
}

// RoundBenchRow is one churn level's incremental-vs-full measurements.
// *_ns are wall-clock nanoseconds per control round; writes/computed/reused
// are per-round averages; delay_*_ns is the modelled CostModel delay.
type RoundBenchRow struct {
	Churn        float64 `json:"churn"`
	Budget       int     `json:"budget"`
	IncNs        float64 `json:"incremental_ns"`
	FullNs       float64 `json:"full_ns"`
	Speedup      float64 `json:"speedup"`
	IncWrites    float64 `json:"incremental_tcam_writes"`
	FullWrites   float64 `json:"full_tcam_writes"`
	IncComputed  float64 `json:"incremental_computed"`
	FullComputed float64 `json:"full_computed"`
	IncReused    float64 `json:"incremental_reused"`
	IncDelayNs   float64 `json:"incremental_delay_ns"`
	FullDelayNs  float64 `json:"full_delay_ns"`
}

// roundBenchSystem builds one unary system for the bench; incremental
// selects the delta path, otherwise every round repopulates in full.
func roundBenchSystem(cfg RoundBenchConfig, incremental bool) (*core.UnarySystem, error) {
	c := core.DefaultConfig(cfg.Width)
	c.MonitorEntries = cfg.MonitorEntries
	// Pin the monitoring budget so adaptive expansion cannot reshape the
	// bins mid-measurement; churn must be the only moving part.
	c.MaxMonitorEntries = cfg.MonitorEntries
	c.CalcEntries = cfg.CalcBudget
	c.DisableIncremental = !incremental
	return core.NewUnary(c, arith.OpSquare)
}

// roundBenchFeed builds one round's operand stream: every bin receives
// BaseCount observations of its low representative value, and the first
// nChurn bins receive 20% more on odd rounds — so exactly nChurn leaves
// dirty every round, their allocation share moves, and the distribution
// stays balanced enough that the structure never reshapes.
func roundBenchFeed(sys *core.UnarySystem, base, nChurn, round int, buf []uint64) []uint64 {
	prefixes := sys.Controller().Monitor().Prefixes()
	buf = buf[:0]
	for i, p := range prefixes {
		n := base
		if i < nChurn && round%2 == 1 {
			n += base / 5
		}
		for j := 0; j < n; j++ {
			buf = append(buf, p.Lo())
		}
	}
	return buf
}

// runRoundBenchMode measures one system across warmup+timed rounds and
// returns per-round averages (wall ns, tcam writes, computed, reused,
// modelled delay ns). The feed is built outside the timed region; only
// Controller.Round — snapshot, Algorithm 2/3, table pushes — is timed.
func runRoundBenchMode(sys *core.UnarySystem, cfg RoundBenchConfig, churn float64) (wall, writes, computed, reused, delay float64, err error) {
	nChurn := int(churn*float64(cfg.MonitorEntries) + 0.5)
	var buf []uint64
	for round := 0; round < cfg.Warmup+cfg.Rounds; round++ {
		buf = roundBenchFeed(sys, cfg.BaseCount, nChurn, round, buf)
		sys.ObserveAll(buf)
		start := time.Now()
		rep, rerr := sys.Controller().Round()
		elapsed := time.Since(start)
		if rerr != nil {
			return 0, 0, 0, 0, 0, rerr
		}
		if rep.Degraded {
			return 0, 0, 0, 0, 0, fmt.Errorf("roundbench: degraded round (%s) with no faults injected", rep.DegradedReason)
		}
		if round < cfg.Warmup {
			continue
		}
		wall += float64(elapsed.Nanoseconds())
		writes += float64(rep.TCAMWrites)
		computed += float64(rep.Computed)
		reused += float64(rep.Reused)
		delay += float64(rep.Delay.Nanoseconds())
	}
	n := float64(cfg.Rounds)
	return wall / n, writes / n, computed / n, reused / n, delay / n, nil
}

// RunRoundBench measures incremental vs full control rounds at each churn
// level. Both systems see identical feeds, and their calculation tables are
// asserted bit-identical after each measurement — the benchmark doubles as
// an end-to-end equivalence check.
func RunRoundBench(cfg RoundBenchConfig) ([]RoundBenchRow, error) {
	rows := make([]RoundBenchRow, 0, len(cfg.ChurnLevels))
	for _, churn := range cfg.ChurnLevels {
		inc, err := roundBenchSystem(cfg, true)
		if err != nil {
			return nil, err
		}
		full, err := roundBenchSystem(cfg, false)
		if err != nil {
			return nil, err
		}
		iw, iwr, ic, ir, id, err := runRoundBenchMode(inc, cfg, churn)
		if err != nil {
			return nil, err
		}
		fw, fwr, fc, _, fd, err := runRoundBenchMode(full, cfg, churn)
		if err != nil {
			return nil, err
		}
		if inc.Engine().Table().Fingerprint() != full.Engine().Table().Fingerprint() {
			return nil, fmt.Errorf("roundbench: incremental and full tables diverge at churn %.2f", churn)
		}
		rows = append(rows, RoundBenchRow{
			Churn:        churn,
			Budget:       cfg.CalcBudget,
			IncNs:        iw,
			FullNs:       fw,
			Speedup:      fw / iw,
			IncWrites:    iwr,
			FullWrites:   fwr,
			IncComputed:  ic,
			FullComputed: fc,
			IncReused:    ir,
			IncDelayNs:   id,
			FullDelayNs:  fd,
		})
	}
	return rows, nil
}

// RenderRoundBench formats the rows.
func RenderRoundBench(rows []RoundBenchRow) string {
	t := stats.NewTable("Control-round microbenchmark: incremental vs full repopulation (per round)",
		"churn", "budget", "inc ns", "full ns", "speedup", "inc writes", "full writes",
		"inc computed", "full computed", "inc reused")
	for _, r := range rows {
		t.AddF(fmt.Sprintf("%.0f%%", 100*r.Churn), r.Budget,
			fmt.Sprintf("%.0f", r.IncNs), fmt.Sprintf("%.0f", r.FullNs),
			fmt.Sprintf("%.1fx", r.Speedup),
			fmt.Sprintf("%.1f", r.IncWrites), fmt.Sprintf("%.1f", r.FullWrites),
			fmt.Sprintf("%.1f", r.IncComputed), fmt.Sprintf("%.1f", r.FullComputed),
			fmt.Sprintf("%.1f", r.IncReused))
	}
	return t.String()
}
