package core

import (
	"context"
	"errors"
	"testing"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/dist"
	"github.com/ada-repro/ada/internal/faults"
	"github.com/ada-repro/ada/internal/tcam"
)

// tamperFirstRow silently corrupts the payload of the first installed row,
// bypassing the controller shadow — the fault only a read-back audit sees.
func tamperFirstRow(t *testing.T, tb *tcam.Table) {
	t.Helper()
	digests, err := tb.ReadRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) == 0 {
		t.Fatal("empty table")
	}
	d := digests[0]
	if err := tb.TamperData(d.Fields, d.Priority, d.Data.(uint64)^0xdead); err != nil {
		t.Fatal(err)
	}
}

func TestUnarySyncAuditDetectsSilentCorruption(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.MonitorEntries = 8
	cfg.CalcEntries = 32
	cfg.AuditEvery = 2
	s, err := NewUnary(cfg, arith.OpSquare)
	if err != nil {
		t.Fatal(err)
	}
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 200}, Lo: 0, Hi: 1 << 16},
		1<<16-1, 11)

	// The audit counter is checked at round start, so the first audit-due
	// round is AuditEvery+1 — and it must come back clean.
	var sawCleanAudit bool
	for i := 0; i < cfg.AuditEvery+1; i++ {
		s.ObserveAll(sampler.Draw(300))
		rep, err := s.Sync()
		if err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
		if rep.AuditRan {
			sawCleanAudit = true
			if !rep.Audit.Clean() {
				t.Fatalf("clean system audit reported mismatches: %+v", rep.Audit)
			}
		}
	}
	if !sawCleanAudit {
		t.Fatal("no audit ran in the first AuditEvery rounds")
	}

	tamperFirstRow(t, s.Engine().Table())

	// The next audit-due round must detect and repair the corruption.
	var rep SyncReport
	for i := 0; i < cfg.AuditEvery+1; i++ {
		s.ObserveAll(sampler.Draw(300))
		r, err := s.Sync()
		if err != nil {
			t.Fatalf("post-tamper sync %d: %v", i, err)
		}
		if r.AuditRan && r.Audit.Mismatched() > 0 {
			rep = r
			break
		}
	}
	if !rep.AuditRan {
		t.Fatal("audit never flagged the tampered row")
	}
	if rep.Audit.Corrupted != 1 || !rep.Audit.Repaired || rep.Audit.RepairWrites != 1 {
		t.Errorf("audit = %+v, want 1 corrupted row repaired with 1 write", rep.Audit)
	}
	if aud, err := s.Controller().Driver().(controlplane.Auditor).AuditCalc(false); err != nil || !aud.Clean() {
		t.Errorf("hardware still diverges from shadow after repair: %+v (err %v)", aud, err)
	}
}

// assertRowsCheck fails unless every calculation row of s passes its check
// against its own key and the cover has no interior gap: a fresh target's
// detect-only adoption of the read-back finds nothing to repair.
func assertRowsCheck(t *testing.T, s *UnarySystem) {
	t.Helper()
	rep, err := newUnaryTarget(s.engine, s.op, s.cfg).AuditCalc(false)
	if err != nil || !rep.Clean() {
		t.Fatalf("calculation read-back fails its own check: %+v (err %v)", rep, err)
	}
}

func TestUnaryRestartOnDefaultConfig(t *testing.T) {
	s, err := NewUnary(DefaultConfig(16), arith.OpSquare)
	if err != nil {
		t.Fatal(err)
	}
	old := s.Controller()
	rep, err := s.Restart()
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if !rep.Audit.Clean() || rep.Audit.Audited != s.Engine().Store().Len() || rep.CalcWrites != 0 {
		t.Errorf("restart of a fresh system: %+v, want every row read and none rewritten", rep)
	}
	if s.Controller() == old {
		t.Error("Restart did not build a fresh controller")
	}
	if s.CalcBudget() != 128 {
		t.Errorf("restored budget %d, want 128", s.CalcBudget())
	}
	s.ObserveAll([]uint64{1, 2, 3, 40000})
	if rep, err := s.Sync(); err != nil || rep.Degraded {
		t.Fatalf("post-restart sync: %+v, %v", rep, err)
	}
}

// restartedSystem builds the system TestUnaryRestartPreservesState and
// TestUnaryRestartRepairsTamperedRow restart: six rounds into a Gaussian
// feed, with its sampler.
func restartedSystem(t *testing.T) (*UnarySystem, *dist.IntSampler) {
	t.Helper()
	cfg := DefaultConfig(16)
	cfg.MonitorEntries = 8
	cfg.CalcEntries = 48
	s, err := NewUnary(cfg, arith.OpSquare)
	if err != nil {
		t.Fatal(err)
	}
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 9000, Sigma: 400}, Lo: 0, Hi: 1 << 16},
		1<<16-1, 13)
	for i := 0; i < 6; i++ {
		s.ObserveAll(sampler.Draw(400))
		if _, err := s.Sync(); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	return s, sampler
}

// TestUnaryRestartPreservesState restarts a healthy system and checks the
// recovered controller reproduces the exact data-plane state — and keeps
// adapting afterwards.
func TestUnaryRestartPreservesState(t *testing.T) {
	s, sampler := restartedSystem(t)
	calcFP := s.Engine().Table().Fingerprint()
	monFP := s.Controller().Monitor().Table().Fingerprint()
	oldCtl := s.Controller()

	rep, err := s.Restart()
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if !rep.Audit.Clean() || rep.CalcWrites != 0 {
		t.Errorf("recovery audit on a healthy table: %+v", rep.Audit)
	}
	if s.Controller() == oldCtl {
		t.Error("Restart did not build a fresh controller")
	}
	if got := s.Engine().Table().Fingerprint(); got != calcFP {
		t.Error("restart changed the calculation table")
	}
	if got := s.Controller().Monitor().Table().Fingerprint(); got != monFP {
		t.Error("restart changed the monitoring layout")
	}
	// The recovered controller keeps syncing.
	for i := 0; i < 3; i++ {
		s.ObserveAll(sampler.Draw(400))
		if _, err := s.Sync(); err != nil {
			t.Fatalf("post-restart sync %d: %v", i, err)
		}
		assertRowsCheck(t, s)
	}
}

// TestUnaryRestartRepairsTamperedRow corrupts one row's payload behind the
// controller's back: the restart's read-back check must count it as the one
// corrupted row and rewrite it with one write.
func TestUnaryRestartRepairsTamperedRow(t *testing.T) {
	s, _ := restartedSystem(t)
	healthy := s.Engine().Table().Fingerprint()
	tamperFirstRow(t, s.Engine().Table())
	rep, err := s.Restart()
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if rep.Audit.Corrupted != 1 || rep.Audit.Ghost != 0 || rep.Audit.Missing != 0 ||
		rep.Audit.RepairWrites != 1 || rep.CalcWrites != 1 {
		t.Errorf("restart report %+v, want 1 corrupted row repaired with 1 write", rep)
	}
	if s.Engine().Table().Fingerprint() != healthy {
		t.Error("restart did not heal the tampered row")
	}
}

func TestUnarySyncCtxCancellation(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.MonitorEntries = 6
	cfg.CalcEntries = 24
	s, err := NewUnary(cfg, arith.OpSquare)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := s.SyncCtx(ctx)
	if err != nil {
		t.Fatalf("SyncCtx: %v", err)
	}
	if !rep.Degraded || rep.DegradedReason != controlplane.ReasonCancelled {
		t.Errorf("cancelled round: degraded=%v reason=%s, want cancelled", rep.Degraded, rep.DegradedReason)
	}
	// The system still works on the next (uncancelled) round.
	if rep, err := s.Sync(); err != nil || rep.Degraded {
		t.Errorf("round after cancellation: %+v, %v", rep, err)
	}
}

func TestBinaryJointAuditHealsTampering(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.MonitorEntries = 6
	cfg.CalcEntries = 48
	cfg.AuditEvery = 1
	s, err := NewBinary(cfg, arith.OpMul)
	if err != nil {
		t.Fatal(err)
	}
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 3000, Sigma: 250}, Lo: 0, Hi: 1 << 16},
		1<<16-1, 17)
	for i := 0; i < 2; i++ {
		s.ObserveAll(sampler.Draw(300), sampler.Draw(300))
		if _, err := s.Sync(); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	tamperFirstRow(t, s.Engine().Table())

	s.ObserveAll(sampler.Draw(300), sampler.Draw(300))
	rep, err := s.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AuditRan {
		t.Fatal("joint audit did not run with AuditEvery=1")
	}
	if rep.Audit.Corrupted != 1 || !rep.Audit.Repaired {
		t.Errorf("joint audit = %+v, want 1 corrupted row repaired", rep.Audit)
	}
	if aud, err := s.ControllerY().Driver().(controlplane.Auditor).AuditCalc(false); err != nil || !aud.Clean() {
		t.Errorf("joint table still diverges from shadow after repair: %+v (err %v)", aud, err)
	}
}

// TestCrashRecoveryDifferential is a long chaos run with silent row
// corruption, ghost rows, dropped acks, visible driver faults, and injected
// controller crashes (read-back restarts mid-round). After every restart
// each calculation row passes its check, and after the quiesce the system
// must converge to calculation and monitoring fingerprints identical to a
// fault-free twin fed the same traffic and budget schedule.
//
// The feed is held constant across rounds so every register snapshot — live,
// stale, or doubled across a degraded round — is an exact integer multiple
// of one round's histogram. Adaptation decisions depend only on hit
// proportions, so the faulted run walks the same trie trajectory as the
// clean twin no matter how many rounds its crashes and outages eat.
func TestCrashRecoveryDifferential(t *testing.T) {
	rounds, tail := 520, 40
	if testing.Short() {
		rounds, tail = 140, 30
	}
	build := func(mutate func(*Config)) *UnarySystem {
		cfg := DefaultConfig(16)
		cfg.MonitorEntries = 8
		cfg.MaxMonitorEntries = 8 // pin layout growth: audits, not expansion, under test
		cfg.CalcEntries = 64
		cfg.CalcCapacity = 96 // headroom so ghost rows never exhaust the hardware
		cfg.AuditEvery = 5
		if mutate != nil {
			mutate(&cfg)
		}
		s, err := NewUnary(cfg, arith.OpSquare)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	in := faults.MustNew(faults.Profile{
		Seed:         4242,
		WriteFailure: 0.04,
		SnapshotDrop: 0.02,
		AckDrop:      0.05,
		CrashProb:    0.01,
		Corrupt:      0.20,
		Ghost:        0.10,
		DropRow:      0.10,
	})
	faulty := build(func(c *Config) {
		c.WrapDriver = in.Wrap
		c.CrashHook = in.CrashHook()
	})
	clean := build(nil)

	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 21000, Sigma: 900}, Lo: 0, Hi: 1 << 16},
		1<<16-1, 77)
	feed := sampler.Draw(500) // constant per-round histogram (see doc comment)
	budgets := []int{64, 48, 56, 40}

	var restarts, degraded int
	for round := 0; round < rounds; round++ {
		if round == rounds-tail {
			// Quiesce: no new faults; pending corruption must drain through
			// the periodic audits alone.
			in.SetArmed(false)
		}
		budget := budgets[(round/20)%len(budgets)]
		if round >= rounds-tail {
			budget = budgets[0]
		}
		for _, s := range []*UnarySystem{faulty, clean} {
			if err := s.SetCalcBudget(budget); err != nil {
				t.Fatalf("round %d: SetCalcBudget: %v", round, err)
			}
		}
		if _, err := in.TamperStore(faulty.Engine().Table()); err != nil {
			t.Fatalf("round %d: tamper: %v", round, err)
		}

		faulty.ObserveAll(feed)
		clean.ObserveAll(feed)
		rep, err := faulty.Sync()
		switch {
		case errors.Is(err, controlplane.ErrCrashed):
			restarts++
			recovered := false
			for attempt := 0; attempt < 50; attempt++ {
				if _, rerr := faulty.Restart(); rerr == nil {
					recovered = true
					break
				}
			}
			if !recovered {
				t.Fatalf("round %d: recovery never succeeded in 50 attempts", round)
			}
			assertRowsCheck(t, faulty)
		case err != nil:
			t.Fatalf("round %d: faulty Sync: %v", round, err)
		case rep.Degraded:
			degraded++
		}
		if _, err := clean.Sync(); err != nil {
			t.Fatalf("round %d: clean Sync: %v", round, err)
		}
	}

	st := in.Stats()
	if !testing.Short() {
		if restarts < 3 {
			t.Errorf("only %d controller restarts; acceptance needs ≥3", restarts)
		}
	} else if restarts < 1 {
		t.Error("short chaos run never crashed the controller")
	}
	if st.TamperedRows == 0 || st.GhostRows == 0 || st.DroppedRows == 0 {
		t.Errorf("silent fault schedule inert: %+v", st)
	}
	if st.AckDrops == 0 {
		t.Error("no acks dropped; schedule inert")
	}

	// Convergence: the calculation hardware and monitoring both
	// bit-identical to the never-faulted twin.
	if got, want := faulty.Engine().Table().Fingerprint(), clean.Engine().Table().Fingerprint(); got != want {
		t.Error("calculation table fingerprints diverge after quiesce")
	}
	if got, want := faulty.Controller().Monitor().Table().Fingerprint(), clean.Controller().Monitor().Table().Fingerprint(); got != want {
		t.Error("monitoring fingerprints diverge after quiesce")
	}
	fl, cl := faulty.Controller().Trie().Leaves(), clean.Controller().Trie().Leaves()
	if len(fl) != len(cl) {
		t.Fatalf("trie leaf counts diverge: %d vs %d", len(fl), len(cl))
	}
	for i := range fl {
		if fl[i].Prefix.Compare(cl[i].Prefix) != 0 {
			t.Fatalf("trie leaf %d diverges: %v vs %v", i, fl[i].Prefix, cl[i].Prefix)
		}
	}
	t.Logf("rounds=%d restarts=%d degraded=%d crashes=%d tampered=%d ghosts=%d dropped=%d ackdrops=%d",
		rounds, restarts, degraded, st.Crashes, st.TamperedRows, st.GhostRows, st.DroppedRows, st.AckDrops)
}
