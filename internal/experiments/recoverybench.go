package experiments

import (
	"fmt"
	"math/rand"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/dist"
	"github.com/ada-repro/ada/internal/stats"
	"github.com/ada-repro/ada/internal/tcam"
)

// RecoveryBenchConfig parameterises the silent-corruption recovery
// experiment: rows of the calculation TCAM are silently bit-flipped (the
// controller shadow stays blind), and the periodic read-back audit must
// detect and repair them. The experiment measures the three costs of the
// failure model: how long corruption is served (detection latency in
// control rounds), what repair costs versus naive full repopulation (TCAM
// writes), and how much arithmetic error the corruption window adds.
type RecoveryBenchConfig struct {
	// CorruptRates are the fractions of installed rows corrupted per trial.
	CorruptRates []float64
	// Width is the operand width in bits.
	Width int
	// MonitorEntries is the monitoring bin budget (pinned: no expansion).
	MonitorEntries int
	// CalcBudget is the calculation TCAM entry budget.
	CalcBudget int
	// AuditEvery is the read-back audit cadence in control rounds.
	AuditEvery int
	// WarmupRounds drives the system to a steady population first.
	WarmupRounds int
	// FeedPerRound is the operand observations per control round.
	FeedPerRound int
	// Samples sizes the arithmetic-error measurement set.
	Samples int
	// Seed drives the corruption row picks and the operand distribution.
	Seed int64
}

// DefaultRecoveryBenchConfig sweeps 1% and 5% corrupted rows — the
// acceptance band where delta repair must beat full repopulation.
func DefaultRecoveryBenchConfig() RecoveryBenchConfig {
	return RecoveryBenchConfig{
		CorruptRates:   []float64{0.01, 0.05},
		Width:          16,
		MonitorEntries: 8,
		CalcBudget:     128,
		AuditEvery:     4,
		// 10 warmup rounds leave the audit phase mid-cadence (audits land on
		// rounds 5, 9, 13, ...), so the corruption window's detection
		// latency is real, not an artefact of corrupting right before an
		// audit-due round.
		WarmupRounds: 10,
		FeedPerRound: 600,
		Samples:      4000,
		Seed:         21,
	}
}

// RecoveryBenchRow is one corruption rate's measurements.
type RecoveryBenchRow struct {
	CorruptRate   float64 `json:"corrupt_rate"`
	InstalledRows int     `json:"installed_rows"`
	CorruptedRows int     `json:"corrupted_rows"`
	// DetectionSyncs is the control rounds from corruption to the audit
	// that flagged it (bounded by AuditEvery).
	DetectionSyncs int `json:"detection_syncs"`
	AuditEvery     int `json:"audit_every"`
	// RepairWrites is the anti-entropy delta the audit committed;
	// FullRepopulateWrites is the naive baseline (rewrite every installed
	// row). Delta repair must be strictly cheaper at these rates.
	RepairWrites         int `json:"repair_writes"`
	FullRepopulateWrites int `json:"full_repopulate_writes"`
	// AuditModelledDelayNs is the modelled delay of the detecting round's
	// audit (row read-back plus repair writes under the Fig 9 cost model),
	// not a clock reading.
	AuditModelledDelayNs float64 `json:"audit_modelled_delay_ns"`
	// Arithmetic mean relative error (%): before corruption, during the
	// corruption window, and after the audit repaired it.
	CleanErrPct   float64 `json:"clean_err_pct"`
	CorruptErrPct float64 `json:"corrupt_err_pct"`
	HealedErrPct  float64 `json:"healed_err_pct"`
	// RestartCalcWrites is the write cost of journal crash recovery under
	// the same corruption: Recover's populate reconciles against the
	// physical table, so it too issues only the divergent rows.
	RestartCalcWrites int `json:"restart_calc_writes"`
}

// recoveryBenchSystem builds the audited, journaled system under test.
func recoveryBenchSystem(cfg RecoveryBenchConfig) (*core.UnarySystem, error) {
	c := core.DefaultConfig(cfg.Width)
	c.MonitorEntries = cfg.MonitorEntries
	c.MaxMonitorEntries = cfg.MonitorEntries
	c.CalcEntries = cfg.CalcBudget
	c.AuditEvery = cfg.AuditEvery
	c.EnableJournal = true
	return core.NewUnary(c, arith.OpSquare)
}

// corruptRows flips one payload bit in n distinct installed rows, picked
// with rng, through the silent tamper seam. Returns how many it corrupted.
func corruptRows(tb *tcam.Table, rng *rand.Rand, n int) (int, error) {
	digests, err := tb.ReadRows()
	if err != nil {
		return 0, err
	}
	if n > len(digests) {
		n = len(digests)
	}
	rng.Shuffle(len(digests), func(i, j int) { digests[i], digests[j] = digests[j], digests[i] })
	for i := 0; i < n; i++ {
		d := digests[i]
		v, ok := d.Data.(uint64)
		if !ok {
			return i, fmt.Errorf("recoverybench: row %q payload is %T, want uint64", d.Key, d.Data)
		}
		// Flip a high-order payload bit so the corruption is material to
		// any lookup that hits the row, not a rounding-level nudge.
		flipped := v ^ (1 << uint(40+rng.Intn(24)))
		if err := tb.TamperData(d.Fields, d.Priority, flipped); err != nil {
			return i, err
		}
	}
	return n, nil
}

// RunRecoveryBench measures detection latency, repair cost, and the
// arithmetic-error window for each corruption rate.
func RunRecoveryBench(cfg RecoveryBenchConfig) ([]RecoveryBenchRow, error) {
	rows := make([]RecoveryBenchRow, 0, len(cfg.CorruptRates))
	for ri, rate := range cfg.CorruptRates {
		sys, err := recoveryBenchSystem(cfg)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(ri)))
		sampler := dist.NewIntSampler(
			dist.Truncated{D: dist.Gaussian{Mu: 24000, Sigma: 1100}, Lo: 0, Hi: float64(int64(1) << uint(cfg.Width))},
			1<<uint(cfg.Width)-1, cfg.Seed+int64(ri))
		feed := sampler.Draw(cfg.FeedPerRound)
		test := sampler.Draw(cfg.Samples)

		for i := 0; i < cfg.WarmupRounds; i++ {
			sys.ObserveAll(feed)
			if _, err := sys.Sync(); err != nil {
				return nil, fmt.Errorf("recoverybench: warmup round %d: %w", i, err)
			}
		}
		tb := sys.Engine().Table()
		installed := tb.Len()
		row := RecoveryBenchRow{
			CorruptRate:          rate,
			InstalledRows:        installed,
			AuditEvery:           cfg.AuditEvery,
			FullRepopulateWrites: installed,
			CleanErrPct:          100 * arith.MeasureUnary(sys.Engine().Eval, sys.Op(), test).Avg,
		}

		n := int(rate*float64(installed) + 0.5)
		if n < 1 {
			n = 1
		}
		row.CorruptedRows, err = corruptRows(tb, rng, n)
		if err != nil {
			return nil, err
		}
		row.CorruptErrPct = 100 * arith.MeasureUnary(sys.Engine().Eval, sys.Op(), test).Avg

		// Feed the steady distribution until the audit cadence flags the
		// corruption; the constant feed keeps the population converged, so
		// no incremental populate rewrites (and silently heals) the rows
		// before the audit reads them back.
		detected := false
		for i := 1; i <= 2*cfg.AuditEvery+2; i++ {
			sys.ObserveAll(feed)
			rep, err := sys.Sync()
			if err != nil {
				return nil, fmt.Errorf("recoverybench: detection round %d: %w", i, err)
			}
			if rep.AuditRan && rep.Audit.Mismatched() > 0 {
				row.DetectionSyncs = i
				row.RepairWrites = rep.Audit.RepairWrites
				row.AuditModelledDelayNs = float64(rep.Delay.Nanoseconds())
				detected = true
				break
			}
		}
		if !detected {
			return nil, fmt.Errorf("recoverybench: rate %.2f: audit never flagged %d corrupted rows",
				rate, row.CorruptedRows)
		}
		row.HealedErrPct = 100 * arith.MeasureUnary(sys.Engine().Eval, sys.Op(), test).Avg

		// Crash recovery under the same corruption: journal restart must
		// reconcile with a delta, not a flash rewrite.
		if _, err := corruptRows(tb, rng, n); err != nil {
			return nil, err
		}
		rrep, err := sys.Restart()
		if err != nil {
			return nil, fmt.Errorf("recoverybench: restart at rate %.2f: %w", rate, err)
		}
		row.RestartCalcWrites = rrep.CalcWrites
		aud, err := sys.Controller().Driver().(controlplane.Auditor).AuditCalc(false)
		if err != nil {
			return nil, err
		}
		if !aud.Clean() {
			return nil, fmt.Errorf("recoverybench: rate %.2f: hardware still diverges from the shadow after restart", rate)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderRecoveryBench formats the rows.
func RenderRecoveryBench(rows []RecoveryBenchRow) string {
	t := stats.NewTable("Silent corruption recovery: read-back audit + anti-entropy repair",
		"corrupt", "rows", "detect (rounds)", "repair writes", "full repop", "restart writes",
		"err clean", "err corrupt", "err healed")
	for _, r := range rows {
		t.AddF(fmt.Sprintf("%.0f%%", 100*r.CorruptRate),
			fmt.Sprintf("%d/%d", r.CorruptedRows, r.InstalledRows),
			fmt.Sprintf("%d (≤%d)", r.DetectionSyncs, r.AuditEvery),
			r.RepairWrites, r.FullRepopulateWrites, r.RestartCalcWrites,
			fmt.Sprintf("%.3f%%", r.CleanErrPct),
			fmt.Sprintf("%.3f%%", r.CorruptErrPct),
			fmt.Sprintf("%.3f%%", r.HealedErrPct))
	}
	return t.String()
}
