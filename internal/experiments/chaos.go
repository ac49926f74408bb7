package experiments

import (
	"fmt"

	"github.com/ada-repro/ada/internal/apps"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/faults"
	"github.com/ada-repro/ada/internal/netsim"
	"github.com/ada-repro/ada/internal/stats"
)

// ChaosConfig parameterises the fault-injected Fig 8 soak: the Nimble
// rate-change scenario driven through a fault-injecting switch driver. The
// question it answers is the robustness claim behind the Driver boundary —
// under transient write failures, stale snapshots, and outages, does ADA
// still reconverge after the rate change, and does every round leave the
// calculation table fully old-generation or fully new-generation?
type ChaosConfig struct {
	// Fig8 is the underlying rate-change scenario.
	Fig8 Fig8Config
	// Profile is the injected fault profile.
	Profile faults.Profile
	// AuditEvery, when >0, enables the controller's periodic read-back
	// audit of the joint calculation table (detect + anti-entropy repair).
	AuditEvery int
	// TamperEvery, when >0, silently tampers the joint calculation table
	// (payload corruption, ghost rows per Profile.Corrupt/Ghost) every Nth
	// control round — divergence only a read-back audit can see.
	TamperEvery int
}

// DefaultChaosConfig pairs the paper's Fig 8 setup with the default chaos
// profile (5% transient write failure, 1% stale snapshots, seeded).
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{Fig8: DefaultFig8Config(), Profile: faults.DefaultProfile()}
}

// SilentChaosConfig layers the silent fault modes on the default soak:
// dropped acks on the wire, periodic payload corruption and ghost rows in
// the joint table, and a read-back audit cadence to catch them. DropRow is
// deliberately left at zero — a silently dropped row breaks the full-domain
// cover between audits, which the soak's lookup probe treats as a violation
// (recoverybench measures that window instead).
func SilentChaosConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.Profile.AckDrop = 0.05
	cfg.Profile.Corrupt = 0.5
	cfg.Profile.Ghost = 0.25
	cfg.AuditEvery = 4
	cfg.TamperEvery = 1
	return cfg
}

// ChaosReport is the outcome of one fault-injected Fig 8 run.
type ChaosReport struct {
	// Row is the ADA variant's throughput behaviour under faults.
	Row Fig8Row
	// Rounds and DegradedRounds count the control rounds attempted and the
	// rounds that aborted on injected failures (serving the last good
	// population).
	Rounds, DegradedRounds int
	// Retries and DriverErrors aggregate the controller's retry activity.
	Retries, DriverErrors uint64
	// WentUnhealthy reports whether the controller ever entered degraded
	// mode (consecutive failures beyond the threshold).
	WentUnhealthy bool
	// FaultStats are the injector's event counters.
	FaultStats faults.Stats
	// Audits, AuditMismatches and RepairWrites aggregate the controller's
	// read-back audit activity (zero unless ChaosConfig.AuditEvery is set).
	Audits, AuditMismatches, RepairWrites uint64
	// HealedAfterQuiesce reports that, once injection stopped, the audits
	// reconciled the physical joint table with the controller shadow within
	// one audit period: a detect-only audit against the shadow then reads
	// clean (only meaningful with AuditEvery set).
	HealedAfterQuiesce bool
	// InvariantViolations lists transactional-invariant breaches observed
	// after control rounds; a clean run has none.
	InvariantViolations []string
}

// RunFig8Chaos runs the Fig 8 ADA variant with the switch driver wrapped in
// a fault injector, checking the transactional invariants after every
// control round:
//
//   - a degraded round leaves the calculation table untouched (same
//     generation, same fingerprint) — never partially populated;
//   - a committed round leaves the monitoring bins consistent with the
//     controller's trie;
//   - the joint table keeps covering the full operand domain, so the data
//     plane never takes a lookup miss mid-reconciliation.
func RunFig8Chaos(cfg ChaosConfig) (ChaosReport, error) {
	inj, err := faults.New(cfg.Profile)
	if err != nil {
		return ChaosReport{}, err
	}
	fc := cfg.Fig8

	topo := netsim.BuildStar(netsim.StarConfig{
		Hosts:       2,
		LinkRateBps: fc.LinkRateBps,
		LinkDelay:   netsim.Microsecond,
	})
	topo.SetECNThreshold(60 * 1024)
	net := topo.Net
	sim := net.Sim

	rcfg := adaRConfig(fc.MonitorEntries)
	rcfg.WrapDriver = inj.Wrap
	rcfg.AuditEvery = cfg.AuditEvery
	ada, err := apps.NewADARateMultiplier(rcfg, 20, 2)
	if err != nil {
		return ChaosReport{}, err
	}
	// Row-level faults on the joint calculation table: commits must land
	// atomically even when individual row writes fail.
	inj.AttachTable(ada.Engine().Table())

	nim, err := apps.NewNimble(ada, fc.InitialRateGbps, 400*1024)
	if err != nil {
		return ChaosReport{}, err
	}
	nim.ECNThresholdBytes = 30 * 1024
	downPort := topo.DownPorts[1][1]
	downPort.Filter = nim

	meter := &netsim.ThroughputMeter{Window: fc.MeterWindow}
	meter.Attach(sim, downPort)

	size := int(fc.LinkRateBps * fc.Duration.Seconds() / 8 / float64(fc.Flows))
	for i := 0; i < fc.Flows; i++ {
		f := net.AddFlow(&netsim.Flow{Src: 0, Dst: 1, Size: size, Start: 0})
		if err := net.StartFlow(f, netsim.NewWindowTransport(netsim.DCTCP)); err != nil {
			return ChaosReport{}, err
		}
	}

	rep := ChaosReport{}
	calc := ada.Engine().Table()
	probe := func(round int, when netsim.Time) {
		// Full-domain cover: the joint table must answer every (rate, ΔT)
		// operand — the monitoring trie's leaves tile the rate domain and
		// the sig-bits marginal tiles ΔT, so a miss means a partially
		// populated table escaped a commit.
		for _, rate := range []uint64{0, 1, 3, 12, 24, 128, 255} {
			for _, dt := range []uint64{0, 1, 500, 1 << 12, 1<<20 - 1} {
				if _, err := ada.Engine().Eval(rate, dt); err != nil {
					rep.InvariantViolations = append(rep.InvariantViolations, fmt.Sprintf(
						"round %d (t=%v): lookup miss for (%d, %d): %v", round, when, rate, dt, err))
					return
				}
			}
		}
	}

	var tick func()
	tick = func() {
		gen, fp := calc.Generation(), calc.Fingerprint()
		r, err := ada.Sync()
		if err != nil {
			rep.InvariantViolations = append(rep.InvariantViolations, fmt.Sprintf(
				"round %d: Sync returned error (driver faults must degrade, not error): %v", rep.Rounds, err))
			return
		}
		rep.Rounds++
		repaired := r.AuditRan && r.Audit.RepairWrites > 0
		if r.Degraded {
			rep.DegradedRounds++
			// An audit repair commits its own generation even when the rest
			// of the round degrades; anything else must leave the table
			// untouched.
			if !repaired && (calc.Generation() != gen || calc.Fingerprint() != fp) {
				rep.InvariantViolations = append(rep.InvariantViolations, fmt.Sprintf(
					"round %d: degraded round mutated the calc table (gen %d→%d)",
					rep.Rounds, gen, calc.Generation()))
			}
		} else {
			if calc.Generation() == gen && calc.Fingerprint() != fp {
				rep.InvariantViolations = append(rep.InvariantViolations, fmt.Sprintf(
					"round %d: table changed without a generation commit", rep.Rounds))
			}
			if bins, leaves := ada.Controller().Driver().NumBins(), ada.Controller().Trie().NumLeaves(); bins != leaves {
				rep.InvariantViolations = append(rep.InvariantViolations, fmt.Sprintf(
					"round %d: %d installed bins vs %d trie leaves", rep.Rounds, bins, leaves))
			}
		}
		if r.Health == controlplane.Unhealthy {
			rep.WentUnhealthy = true
		}
		// Tamper after the round commits: the silent divergence then lives
		// through the whole inter-sync window (served to the data plane),
		// and only a read-back audit repairs it — the populate commits the
		// rows its build changed against the shadow, never the whole table.
		if cfg.TamperEvery > 0 && rep.Rounds%cfg.TamperEvery == 0 {
			if _, terr := inj.TamperStore(calc); terr != nil {
				rep.InvariantViolations = append(rep.InvariantViolations, fmt.Sprintf(
					"round %d: tamper: %v", rep.Rounds, terr))
			}
		}
		probe(rep.Rounds, sim.Now())
		sim.After(fc.SyncEvery, tick)
	}
	sim.After(fc.SyncEvery, tick)

	sim.Schedule(fc.ChangeAt, func() { nim.SetRateGbps(fc.ChangedRateGbps) })
	sim.Run(fc.Duration)

	rep.Row = Fig8Row{Variant: Fig8ADA, Series: meter.BpsSeries, LimiterDrops: nim.Drops}
	rep.Row.Phase1AvgGbps = meanWindow(meter.BpsSeries, fc.MeterWindow,
		netsim.Millisecond, fc.ChangeAt) / 1e9
	rep.Row.Phase2AvgGbps = meanWindow(meter.BpsSeries, fc.MeterWindow,
		fc.ChangeAt+2*netsim.Millisecond, fc.Duration) / 1e9

	// Quiesce: stop injecting and let the audit cadence reconcile whatever
	// silent divergence the run left behind. Healing within one audit
	// period is the anti-entropy acceptance condition.
	if cfg.AuditEvery > 0 {
		inj.SetArmed(false)
		for i := 0; i < cfg.AuditEvery+1; i++ {
			if r, err := ada.Sync(); err == nil && r.AuditRan {
				break
			} else if err != nil {
				rep.InvariantViolations = append(rep.InvariantViolations, fmt.Sprintf(
					"quiesce round %d: %v", i, err))
				break
			}
		}
		aud, err := ada.Controller().Driver().(controlplane.Auditor).AuditCalc(false)
		if err != nil {
			return rep, err
		}
		rep.HealedAfterQuiesce = aud.Clean()
	}

	tot := ada.Controller().Totals()
	rep.Retries = tot.Retries
	rep.DriverErrors = tot.DriverErrors
	rep.Audits = tot.Audits
	rep.AuditMismatches = tot.AuditMismatches
	rep.RepairWrites = tot.RepairWrites
	rep.FaultStats = inj.Stats()
	return rep, nil
}

// RenderChaos formats a chaos report.
func RenderChaos(rep ChaosReport) string {
	t := stats.NewTable(
		fmt.Sprintf("Fig 8 under faults: %d/%d rounds degraded, %d retries, %d driver errors",
			rep.DegradedRounds, rep.Rounds, rep.Retries, rep.DriverErrors),
		"metric", "value")
	t.AddF("phase1 avg", fmt.Sprintf("%.2fGbps", rep.Row.Phase1AvgGbps))
	t.AddF("phase2 avg (want ≈12G)", fmt.Sprintf("%.2fGbps", rep.Row.Phase2AvgGbps))
	t.AddF("limiter drops", rep.Row.LimiterDrops)
	t.AddF("went unhealthy", rep.WentUnhealthy)
	t.AddF("write failures injected", rep.FaultStats.WriteFailures)
	t.AddF("row failures injected", rep.FaultStats.RowFailures)
	t.AddF("stale snapshots injected", rep.FaultStats.StaleSnapshots)
	t.AddF("outage ops injected", rep.FaultStats.OutageOps)
	t.AddF("acks dropped", rep.FaultStats.AckDrops)
	t.AddF("rows tampered/ghosted", fmt.Sprintf("%d/%d", rep.FaultStats.TamperedRows, rep.FaultStats.GhostRows))
	t.AddF("audits (mismatches, repair writes)", fmt.Sprintf("%d (%d, %d)", rep.Audits, rep.AuditMismatches, rep.RepairWrites))
	t.AddF("healed after quiesce", rep.HealedAfterQuiesce)
	t.AddF("invariant violations", len(rep.InvariantViolations))
	return t.String()
}
