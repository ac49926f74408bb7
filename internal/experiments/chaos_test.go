package experiments

import (
	"testing"

	"github.com/ada-repro/ada/internal/faults"
)

// TestChaosFig8ReconvergesUnderDefaultProfile is the acceptance soak: the
// Fig 8 rate change under the default fault profile (5% transient write
// failure, 1% stale snapshots, seeded). ADA must still land near the new
// limit, every round must leave the calc table fully old- or fully
// new-generation, and faults must actually have been injected.
func TestChaosFig8ReconvergesUnderDefaultProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := RunFig8Chaos(DefaultChaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.InvariantViolations {
		t.Errorf("invariant: %s", v)
	}
	if rep.FaultStats.WriteFailures+rep.FaultStats.StaleSnapshots == 0 {
		t.Error("fault profile injected nothing; the soak proved nothing")
	}
	// Same reconvergence tolerance as the fault-free Fig 8 test: injected
	// transients must not keep ADA away from the new operating point.
	if d := relDev(rep.Row.Phase2AvgGbps, 12); d > 0.40 {
		t.Errorf("ada-under-faults phase2 = %.2f Gbps, want ≈12 (dev %.2f)",
			rep.Row.Phase2AvgGbps, d)
	}
	if rep.Rounds == 0 {
		t.Fatal("no control rounds ran")
	}
	t.Logf("rounds=%d degraded=%d retries=%d errors=%d stats=%+v",
		rep.Rounds, rep.DegradedRounds, rep.Retries, rep.DriverErrors, rep.FaultStats)
	if RenderChaos(rep) == "" {
		t.Error("render empty")
	}
}

// TestChaosFig8SurvivesOutages layers driver outages, row-write failures,
// and latency spikes on top; degraded rounds must appear, the invariants
// must hold, and the data plane must keep serving throughout (no lookup
// misses recorded by the invariant probes).
func TestChaosFig8SurvivesOutages(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := DefaultChaosConfig()
	cfg.Profile = faults.OutageProfile()
	rep, err := RunFig8Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.InvariantViolations {
		t.Errorf("invariant: %s", v)
	}
	if rep.DegradedRounds == 0 {
		t.Error("outage profile produced no degraded rounds; injection not reaching the controller")
	}
	if rep.DegradedRounds >= rep.Rounds {
		t.Errorf("all %d rounds degraded; controller never recovered", rep.Rounds)
	}
	t.Logf("rounds=%d degraded=%d unhealthy=%v stats=%+v",
		rep.Rounds, rep.DegradedRounds, rep.WentUnhealthy, rep.FaultStats)
}

// TestChaosFig8SilentFaultsHealViaAudits is the silent-fault soak: dropped
// acks on the wire plus periodic payload corruption and ghost rows in the
// joint table. The read-back audits must actually fire, catch divergence,
// repair it, and — once injection stops — reconcile the physical table with
// the controller shadow within one audit period.
func TestChaosFig8SilentFaultsHealViaAudits(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := RunFig8Chaos(SilentChaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.InvariantViolations {
		t.Errorf("invariant: %s", v)
	}
	if rep.FaultStats.TamperedRows+rep.FaultStats.GhostRows == 0 {
		t.Error("silent tamper schedule inert; the soak proved nothing")
	}
	if rep.FaultStats.AckDrops == 0 {
		t.Error("no acks dropped")
	}
	if rep.Audits == 0 {
		t.Error("audit cadence never fired")
	}
	if rep.AuditMismatches == 0 {
		t.Error("audits saw no mismatches despite tampering")
	}
	// The joint table commits by delta against its shadow, so only an
	// audit's repair writes heal tampered rows; require that they happened.
	if rep.RepairWrites == 0 {
		t.Error("audits issued no repair writes")
	}
	if !rep.HealedAfterQuiesce {
		t.Error("joint table still diverges from the shadow after quiesce")
	}
	t.Logf("rounds=%d degraded=%d audits=%d mismatches=%d repairwrites=%d stats=%+v",
		rep.Rounds, rep.DegradedRounds, rep.Audits, rep.AuditMismatches, rep.RepairWrites, rep.FaultStats)
}
