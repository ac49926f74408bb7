package experiments

import "testing"

// TestRecoveryBenchAcceptance is the PR's benchmark acceptance: at ≤5%
// corrupted rows the anti-entropy repair must issue strictly fewer TCAM
// writes than full repopulation, detection must land within the audit
// cadence, and the corruption window must be visible in (and repair must
// remove) the arithmetic error.
func TestRecoveryBenchAcceptance(t *testing.T) {
	cfg := DefaultRecoveryBenchConfig()
	if testing.Short() {
		cfg.Samples = 1500
		cfg.WarmupRounds = 8
	}
	rows, err := RunRecoveryBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.CorruptRates) {
		t.Fatalf("%d rows, want %d", len(rows), len(cfg.CorruptRates))
	}
	for _, r := range rows {
		if r.CorruptedRows < 1 {
			t.Errorf("rate %.2f: no rows corrupted", r.CorruptRate)
		}
		if r.DetectionSyncs < 1 || r.DetectionSyncs > r.AuditEvery+1 {
			t.Errorf("rate %.2f: detection took %d rounds, want within audit cadence %d",
				r.CorruptRate, r.DetectionSyncs, r.AuditEvery)
		}
		if r.RepairWrites < 1 || r.RepairWrites >= r.FullRepopulateWrites {
			t.Errorf("rate %.2f: repair writes %d not strictly below full repopulation %d",
				r.CorruptRate, r.RepairWrites, r.FullRepopulateWrites)
		}
		if r.RestartCalcWrites >= r.FullRepopulateWrites {
			t.Errorf("rate %.2f: restart wrote %d rows, not a delta (full = %d)",
				r.CorruptRate, r.RestartCalcWrites, r.FullRepopulateWrites)
		}
		if r.CorruptErrPct <= r.CleanErrPct {
			t.Errorf("rate %.2f: corruption window invisible in arithmetic error (%.4f%% vs clean %.4f%%)",
				r.CorruptRate, r.CorruptErrPct, r.CleanErrPct)
		}
		if r.HealedErrPct >= r.CorruptErrPct {
			t.Errorf("rate %.2f: repair did not restore arithmetic error (%.4f%% vs corrupt %.4f%%)",
				r.CorruptRate, r.HealedErrPct, r.CorruptErrPct)
		}
		if r.AuditModelledDelayNs <= 0 {
			t.Errorf("rate %.2f: audit delay not modelled", r.CorruptRate)
		}
	}
	if RenderRecoveryBench(rows) == "" {
		t.Error("render empty")
	}
	t.Logf("\n%s", RenderRecoveryBench(rows))
}
