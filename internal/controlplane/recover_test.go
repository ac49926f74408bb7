package controlplane

import (
	"context"
	"errors"
	"math/bits"
	"strings"
	"testing"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/dist"
	"github.com/ada-repro/ada/internal/monitor"
	"github.com/ada-repro/ada/internal/population"
	"github.com/ada-repro/ada/internal/tcam"
	"github.com/ada-repro/ada/internal/trie"
)

// AuditCalc forwards the audit seam through the scripted flaky driver, so
// the audit tests can exercise failures via the target.
func (d *flakyDriver) AuditCalc(repair bool) (AuditReport, error) {
	return d.inner.AuditCalc(repair)
}

// auditTarget is engineTarget plus the read-back seam: it records the rows
// it committed and audits the engine's store against them. A target that
// has recorded nothing, as a restarted controller's has not, takes the
// table over as it reads back instead. It is the in-package stand-in for
// core's unary calculation target.
type auditTarget struct {
	engine     *arith.UnaryEngine
	op         arith.UnaryOp
	expect     []tcam.Row
	failAudits int // fail the next N AuditCalc calls
}

func (t *auditTarget) Populate(tr *trie.Trie, budget int) (int, int, int, error) {
	entries, err := population.ADAUnary(tr, t.op.Func(), budget, population.Midpoint)
	if err != nil {
		return 0, 0, 0, err
	}
	writes, err := t.engine.Reload(entries)
	if err != nil {
		return writes, len(entries), 0, err
	}
	t.expect = unaryRows(entries)
	return writes, len(entries), 0, nil
}

func (t *auditTarget) AuditCalc(repair bool) (AuditReport, error) {
	if t.failAudits > 0 {
		t.failAudits--
		return AuditReport{}, errFlaky
	}
	if t.expect != nil {
		return AuditStore(t.engine.Store(), t.expect, repair)
	}
	expect, err := checkedRows(t.engine.Store(), t.op)
	if err != nil {
		return AuditReport{}, err
	}
	rep, err := AuditStore(t.engine.Store(), expect, repair)
	if err == nil && repair {
		t.expect = expect
	}
	return rep, err
}

func unaryRows(entries []population.UnaryEntry) []tcam.Row {
	rows := make([]tcam.Row, len(entries))
	for i, e := range entries {
		rows[i] = tcam.RowFromPrefix(e.P, e.Result)
	}
	return rows
}

// checkedRows reads st back and returns the rows it must hold by
// population.CheckUnary: every prefix row's result recomputed from its key,
// ghosts dropped and interior gaps filled.
func checkedRows(st tcam.Store, op arith.UnaryOp) ([]tcam.Row, error) {
	digests, err := st.ReadRows()
	if err != nil {
		return nil, err
	}
	var read []population.UnaryEntry
	for _, d := range digests {
		f := d.Fields[0]
		p, err := bitstr.New(f.Value, bits.OnesCount64(f.Mask), st.FieldWidths()[0])
		result, ok := d.Data.(uint64)
		if err == nil && ok && p.Mask() == f.Mask && p.Value() == f.Value {
			read = append(read, population.UnaryEntry{P: p, Result: result})
		}
	}
	return unaryRows(population.CheckUnary(read, op.Func(), population.Midpoint)), nil
}

// assertRowsCheck fails unless every row of st passes its check and the
// cover has no interior gap: the check leaves the read-back as it is.
func assertRowsCheck(t *testing.T, st tcam.Store, op arith.UnaryOp) {
	t.Helper()
	expect, err := checkedRows(st, op)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := AuditStore(st, expect, false); err != nil || !rep.Clean() {
		t.Fatalf("read-back fails its own check: %+v (err %v)", rep, err)
	}
}

// newAuditSystem builds a controller whose driver can read back and whose
// target records the expected population.
func newAuditSystem(t *testing.T, cfg Config) (*Controller, *auditTarget, *flakyDriver, *dist.IntSampler) {
	t.Helper()
	mon, err := monitor.New("mon", 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Physical capacity above the budget leaves room for injected ghost rows.
	engine, err := arith.NewUnaryEngine("calc", 16, cfg.CalcBudget+8, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := &auditTarget{engine: engine, op: arith.OpSquare}
	fd := &flakyDriver{inner: NewDirectDriver(mon, target)}
	ctl, err := NewWithDriver(cfg, fd)
	if err != nil {
		t.Fatal(err)
	}
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 150}, Lo: 0, Hi: 1 << 16},
		1<<16-1, 5)
	return ctl, target, fd, sampler
}

// TestCommitRecordTracksCommits checks that the commit record holds what a
// restart cannot read back from the switch: written at construction and
// overwritten by every commit and every budget move, while a degraded round
// leaves it alone.
func TestCommitRecordTracksCommits(t *testing.T) {
	cfg := DefaultConfig(8, 32)
	cfg.Commit = new(CommitRecord)
	ctl, _, fd, _ := newAuditSystem(t, cfg)
	depth := ctl.Trie().Depth()
	if want := (CommitRecord{Budget: 32, DepthAtLastExpansion: depth}); *cfg.Commit != want {
		t.Fatalf("construction record = %+v, want %+v", *cfg.Commit, want)
	}

	// A narrow peak deepens the trie until the monitoring TCAM expands.
	expanded := false
	for i := 0; i < 20 && !expanded; i++ {
		for k := 0; k < 2000; k++ {
			ctl.Monitor().Observe(uint64(60000 + k%50))
		}
		rep, err := ctl.Round()
		if err != nil {
			t.Fatal(err)
		}
		expanded = rep.Expanded
	}
	if !expanded {
		t.Fatal("skewed rounds never expanded the monitoring TCAM")
	}
	depth = ctl.Trie().Depth()
	if want := (CommitRecord{Budget: 32, DepthAtLastExpansion: depth}); *cfg.Commit != want {
		t.Fatalf("record after expansion = %+v, want %+v", *cfg.Commit, want)
	}

	if err := ctl.SetCalcBudget(40); err != nil {
		t.Fatal(err)
	}
	if want := (CommitRecord{Budget: 40, DepthAtLastExpansion: depth}); *cfg.Commit != want {
		t.Fatalf("record after a budget move = %+v, want %+v", *cfg.Commit, want)
	}
	// A degraded round commits nothing, whatever its shadow trie did.
	before := *cfg.Commit
	fd.failPopulates = 3 // == MaxAttempts: the round degrades
	for k := 0; k < 2000; k++ {
		ctl.Monitor().Observe(uint64(k % 50))
	}
	if rep, err := ctl.Round(); err != nil || !rep.Degraded {
		t.Fatalf("want a degraded round, got %+v, %v", rep, err)
	}
	if *cfg.Commit != before {
		t.Fatalf("record %+v moved without a commit, was %+v", *cfg.Commit, before)
	}
}

// TestRecoverFromEveryCrashPoint crashes the controller at each point of a
// round and recovers it from the switch's read-back. The switch holds the
// last commit after an after-intent crash and the crashed round's bins or
// population after the later points; either way every calculation row
// passes its check, so recovery rewrites nothing and changes neither
// fingerprint, and it restores the budget and hysteresis of the last commit.
func TestRecoverFromEveryCrashPoint(t *testing.T) {
	points := []CrashPoint{CrashAfterIntent, CrashAfterInstall, CrashAfterPopulate, CrashAfterCommit}
	for _, pt := range points {
		t.Run(string(pt), func(t *testing.T) {
			cfg := DefaultConfig(8, 64)
			cfg.Commit = new(CommitRecord)
			arm := false
			cfg.CrashHook = func(p CrashPoint) bool { return arm && p == pt }
			ctl, target, _, sampler := newAuditSystem(t, cfg)

			for i := 0; i < 3; i++ {
				ctl.Monitor().ObserveAll(sampler.Draw(2000))
				if _, err := ctl.Round(); err != nil {
					t.Fatal(err)
				}
			}
			// Shift the hot region so the structure keeps moving (the
			// after-install point only exists on rounds that reinstall bins).
			arm = true
			crashed := false
			for i := 0; i < 20 && !crashed; i++ {
				for k := 0; k < 2000; k++ {
					ctl.Monitor().Observe(uint64(60000 + k%50))
				}
				_, err := ctl.Round()
				switch {
				case errors.Is(err, ErrCrashed):
					crashed = true
				case err != nil:
					t.Fatal(err)
				}
			}
			if !crashed {
				t.Fatalf("crash point %s never fired", pt)
			}
			if !ctl.Crashed() {
				t.Error("Crashed() = false after ErrCrashed")
			}
			if _, err := ctl.Round(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("round on crashed controller: %v, want ErrCrashed", err)
			}

			arm = false
			rec := *cfg.Commit
			monFP := ctl.Monitor().Table().Fingerprint()
			calcFP := target.engine.Store().Fingerprint()
			fresh := &auditTarget{engine: target.engine, op: arith.OpSquare}
			ctl2, rep, err := Recover(cfg, NewDirectDriver(ctl.Monitor(), fresh))
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			checkConsistent(t, ctl2)
			if !rep.Audit.Clean() || rep.CalcWrites != 0 || rep.Audit.Audited != target.engine.Store().Len() {
				t.Errorf("recovery of an untampered switch: %+v", rep)
			}
			assertRowsCheck(t, target.engine.Store(), arith.OpSquare)
			if got := ctl2.Monitor().Table().Fingerprint(); got != monFP {
				t.Error("recovery changed the monitoring layout")
			}
			if got := target.engine.Store().Fingerprint(); got != calcFP {
				t.Error("recovery changed the calculation table")
			}
			if ctl2.CalcBudget() != rec.Budget || ctl2.depthAtLastExpansion != rec.DepthAtLastExpansion {
				t.Errorf("recovered budget %d, depth %d; record %+v",
					ctl2.CalcBudget(), ctl2.depthAtLastExpansion, rec)
			}
			// And the recovered controller keeps running rounds.
			for i := 0; i < 3; i++ {
				ctl2.Monitor().ObserveAll(sampler.Draw(2000))
				if rep, err := ctl2.Round(); err != nil || rep.Degraded {
					t.Fatalf("post-recovery round: %+v, %v", rep, err)
				}
				assertRowsCheck(t, target.engine.Store(), arith.OpSquare)
			}
		})
	}
}

// TestRecoverRepairsSilentCorruption tampers the calculation table behind
// the controller's back and checks that a restart finds every damaged row
// from the read-back alone and heals it with one write per row.
func TestRecoverRepairsSilentCorruption(t *testing.T) {
	cfg := DefaultConfig(8, 64)
	ctl, target, _, sampler := newAuditSystem(t, cfg)
	for i := 0; i < 4; i++ {
		ctl.Monitor().ObserveAll(sampler.Draw(2000))
		if _, err := ctl.Round(); err != nil {
			t.Fatal(err)
		}
	}
	healthy := target.engine.Store().Fingerprint()

	tb := target.engine.Table()
	victim := target.expect[0]
	if err := tb.TamperData(victim.Fields, victim.Priority, victim.Data.(uint64)+1); err != nil {
		t.Fatal(err)
	}
	if err := tb.TamperInsert([]tcam.Field{{Value: 1<<16 - 1, Mask: 1<<16 - 1}}, 0, uint64(7)); err != nil {
		t.Fatal(err)
	}
	if err := tb.TamperDelete(target.expect[1].Fields, target.expect[1].Priority); err != nil {
		t.Fatal(err)
	}

	fresh := &auditTarget{engine: target.engine, op: arith.OpSquare}
	_, rec, err := Recover(cfg, NewDirectDriver(ctl.Monitor(), fresh))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Audit.Corrupted != 1 || rec.Audit.Ghost != 1 || rec.Audit.Missing != 1 {
		t.Errorf("recovery audit = %+v, want 1 corrupted / 1 ghost / 1 missing", rec.Audit)
	}
	if rec.CalcWrites != 3 {
		t.Errorf("recovery calc writes = %d, want one per damaged row", rec.CalcWrites)
	}
	if got := target.engine.Store().Fingerprint(); got != healthy {
		t.Error("hardware not healed by recovery")
	}
}

// TestAuditCadenceDetectsAndRepairs runs the periodic read-back audit
// against seeded silent corruption: rounds before the cadence stay blind,
// the audit round classifies and repairs, and totals account for it.
func TestAuditCadenceDetectsAndRepairs(t *testing.T) {
	cfg := DefaultConfig(8, 64)
	cfg.AuditEvery = 3
	ctl, target, _, sampler := newAuditSystem(t, cfg)

	for i := 0; i < 3; i++ {
		ctl.Monitor().ObserveAll(sampler.Draw(2000))
		rep, err := ctl.Round()
		if err != nil {
			t.Fatal(err)
		}
		if rep.AuditRan {
			t.Fatalf("round %d audited before the cadence", i+1)
		}
	}

	tb := target.engine.Table()
	victim := target.expect[0]
	if err := tb.TamperData(victim.Fields, victim.Priority, victim.Data.(uint64)^1); err != nil {
		t.Fatal(err)
	}
	if err := tb.TamperInsert([]tcam.Field{{Value: 1<<16 - 1, Mask: 1<<16 - 1}}, 0, uint64(7)); err != nil {
		t.Fatal(err)
	}

	ctl.Monitor().ObserveAll(sampler.Draw(2000))
	rep, err := ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AuditRan {
		t.Fatal("4th round did not audit (AuditEvery=3)")
	}
	if rep.Audit.Corrupted != 1 || rep.Audit.Ghost != 1 {
		t.Errorf("audit = %+v, want 1 corrupted / 1 ghost", rep.Audit)
	}
	if !rep.Audit.Repaired || rep.Audit.RepairWrites != 2 {
		t.Errorf("repair = %v/%d writes, want true/2", rep.Audit.Repaired, rep.Audit.RepairWrites)
	}
	tot := ctl.Totals()
	if tot.Audits != 1 || tot.AuditMismatches != 2 || tot.RepairWrites != 2 {
		t.Errorf("totals audits=%d mismatches=%d repairs=%d, want 1/2/2",
			tot.Audits, tot.AuditMismatches, tot.RepairWrites)
	}
	// The audit costs reads: the round's delay includes PerRowRead × rows.
	if rep.Delay < time.Duration(rep.Audit.Audited)*cfg.Cost.PerRowRead {
		t.Errorf("delay %v does not cover %d row reads", rep.Delay, rep.Audit.Audited)
	}

	// Next cadence window: clean table audits clean.
	var last RoundReport
	for i := 0; i < 3; i++ {
		ctl.Monitor().ObserveAll(sampler.Draw(2000))
		if last, err = ctl.Round(); err != nil {
			t.Fatal(err)
		}
	}
	if !last.AuditRan || !last.Audit.Clean() {
		t.Errorf("cadence audit = ran %v, %+v; want clean audit", last.AuditRan, last.Audit)
	}
}

// TestAuditForcedAfterRetryExhaustedRound asserts the anti-entropy guard:
// a round that exhausted retries (possibly leaving half-landed writes)
// forces a read-back audit on the next round regardless of cadence.
func TestAuditForcedAfterRetryExhaustedRound(t *testing.T) {
	cfg := DefaultConfig(8, 32)
	cfg.AuditEvery = 1000 // cadence effectively never
	ctl, _, fd, sampler := newAuditSystem(t, cfg)

	ctl.Monitor().ObserveAll(sampler.Draw(2000))
	if rep, err := ctl.Round(); err != nil || rep.AuditRan {
		t.Fatalf("clean round: %+v, %v", rep, err)
	}

	fd.failPopulates = 3 // == MaxAttempts: retry-exhausted round
	ctl.Monitor().ObserveAll(sampler.Draw(2000))
	rep, err := ctl.Round()
	if err != nil || !rep.Degraded {
		t.Fatalf("expected degraded round, got %+v, %v", rep, err)
	}

	ctl.Monitor().ObserveAll(sampler.Draw(2000))
	rep, err = ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AuditRan {
		t.Error("no forced audit after a retry-exhausted round")
	}
}

// TestDegradedReentryThroughAuditFailure is the double-dip scenario: the
// audit seam fails until the controller degrades to Unhealthy, a probe
// recovers it, and then the audit fails again — health probing and the
// round reports must transition correctly both times.
func TestDegradedReentryThroughAuditFailure(t *testing.T) {
	cfg := DefaultConfig(8, 32)
	cfg.AuditEvery = 1
	cfg.UnhealthyAfter = 2
	ctl, target, _, sampler := newAuditSystem(t, cfg)

	round := func() RoundReport {
		t.Helper()
		ctl.Monitor().ObserveAll(sampler.Draw(1000))
		rep, err := ctl.Round()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	if rep := round(); rep.Degraded {
		t.Fatalf("round 1 degraded: %+v", rep)
	}

	for dip := 1; dip <= 2; dip++ {
		// Two audit-failing rounds (3 retried errors each) flip health.
		target.failAudits = 6
		rep := round()
		if !rep.Degraded || rep.DegradedReason != ReasonAudit || rep.Health != Healthy {
			t.Fatalf("dip %d first failure: %+v, want degraded calc-audit while still healthy", dip, rep)
		}
		rep = round()
		if !rep.Degraded || rep.DegradedReason != ReasonAudit || rep.Health != Unhealthy {
			t.Fatalf("dip %d second failure: %+v, want degraded calc-audit and unhealthy", dip, rep)
		}
		if ctl.Health() != Unhealthy {
			t.Fatalf("dip %d: controller health %v, want unhealthy", dip, ctl.Health())
		}
		// Probe round: re-enters, commits, and reports healthy again. The
		// probe path skips the audit, so the forced audit stays pending.
		rep = round()
		if rep.Degraded || rep.Health != Healthy || rep.AuditRan {
			t.Fatalf("dip %d probe: %+v, want healthy committed round without audit", dip, rep)
		}
		// The pending audit lands on the next normal round and succeeds.
		rep = round()
		if rep.Degraded || !rep.AuditRan || !rep.Audit.Clean() {
			t.Fatalf("dip %d post-recovery audit: %+v, want clean audit", dip, rep)
		}
	}
	if tot := ctl.Totals(); tot.DegradedRounds != 4 {
		t.Errorf("degraded rounds = %d, want 4 (two per dip)", tot.DegradedRounds)
	}
}

// cancelOnReadDriver cancels the round's context from inside the first
// register read, modelling a caller deadline landing mid-retry.
type cancelOnReadDriver struct {
	Driver
	cancel context.CancelFunc
}

func (d *cancelOnReadDriver) ReadRegisters() ([]uint64, error) {
	d.cancel()
	return nil, errFlaky
}

func TestRoundCtxCancellation(t *testing.T) {
	cfg := DefaultConfig(8, 32)
	ctl, _, _, sampler := newAuditSystem(t, cfg)
	ctl.Monitor().ObserveAll(sampler.Draw(1000))

	// Pre-cancelled context: the round degrades immediately, no driver call.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := ctl.RoundCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.DegradedReason != ReasonCancelled || rep.DriverErrors != 0 {
		t.Fatalf("pre-cancelled round: %+v, want degraded %q", rep, ReasonCancelled)
	}

	// The controller stays usable afterwards.
	if rep, err := ctl.Round(); err != nil || rep.Degraded {
		t.Fatalf("round after cancellation: %+v, %v", rep, err)
	}
}

func TestCancellationStopsRetryLoop(t *testing.T) {
	cfg := DefaultConfig(8, 32)
	cfg.Retry = RetryPolicy{MaxAttempts: 50, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond}
	mon, _ := monitor.New("mon", 16, 0)
	engine, _ := arith.NewUnaryEngine("calc", 16, 32, nil)
	target := &auditTarget{engine: engine, op: arith.OpSquare}
	ctx, cancel := context.WithCancel(context.Background())
	cfg.WrapDriver = func(d Driver) Driver { return &cancelOnReadDriver{Driver: d, cancel: cancel} }
	ctl, err := New(cfg, mon, target)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := ctl.RoundCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.DegradedReason != ReasonCancelled {
		t.Fatalf("round = %+v, want degraded %q", rep, ReasonCancelled)
	}
	// One failed attempt, then the cancellation check stopped the loop cold
	// instead of burning the other 49 attempts.
	if rep.DriverErrors != 1 || rep.Retries > 1 {
		t.Errorf("driverErrors=%d retries=%d; cancellation did not stop the retry loop",
			rep.DriverErrors, rep.Retries)
	}
	if !strings.Contains(rep.LastError, context.Canceled.Error()) {
		t.Errorf("LastError %q does not surface the cancellation", rep.LastError)
	}
}
