package controlplane

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ada-repro/ada/internal/arith"
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
// it committed and audits the engine's store against them — the in-package
// stand-in for core's auditable calculation target.
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
	rows := make([]tcam.Row, len(entries))
	for i, e := range entries {
		rows[i] = tcam.RowFromPrefix(e.P, e.Result)
	}
	t.expect = rows
	return writes, len(entries), 0, nil
}

func (t *auditTarget) AuditCalc(repair bool) (AuditReport, error) {
	if t.failAudits > 0 {
		t.failAudits--
		return AuditReport{}, errFlaky
	}
	return AuditStore(t.engine.Store(), t.expect, repair)
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

// populationFP renders the population a trie and budget imply, in the
// store's fingerprint format, as the convergence oracle.
func populationFP(t *testing.T, tr *trie.Trie, op arith.UnaryOp, budget int) string {
	t.Helper()
	entries, err := population.ADAUnary(tr, op.Func(), budget, population.Midpoint)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := arith.NewUnaryEngine("ref", tr.Width(), budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Reload(entries); err != nil {
		t.Fatal(err)
	}
	return ref.Store().Fingerprint()
}

func TestJournalRecordsRounds(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultConfig(8, 32)
	cfg.Journal = NewJournalWithSink(&buf)
	ctl, _, _, sampler := newAuditSystem(t, cfg)

	j := ctl.Journal()
	if j == nil {
		t.Fatal("Journal() = nil with journaling on")
	}
	if j.Len() != 1 || j.Records()[0].Kind != KindCommit || j.Records()[0].Round != 0 {
		t.Fatalf("construction should journal a round-0 commit, got %+v", j.Records())
	}

	const rounds = 5
	for i := 0; i < rounds; i++ {
		ctl.Monitor().ObserveAll(sampler.Draw(2000))
		if _, err := ctl.Round(); err != nil {
			t.Fatal(err)
		}
	}
	recs := j.Records()
	if len(recs) != 1+2*rounds {
		t.Fatalf("journal has %d records, want %d (1 + intent/commit per round)", len(recs), 1+2*rounds)
	}
	for i := 0; i < rounds; i++ {
		in, cm := recs[1+2*i], recs[2+2*i]
		if in.Kind != KindIntent || cm.Kind != KindCommit || in.Round != i+1 || cm.Round != i+1 {
			t.Fatalf("round %d records: %+v / %+v", i+1, in, cm)
		}
		if len(cm.Leaves) == 0 || cm.Budget != 32 {
			t.Fatalf("commit record not a full snapshot: %+v", cm)
		}
	}
	if _, ok := j.DanglingIntent(); ok {
		t.Error("clean run reports a dangling intent")
	}
	last, ok := j.LastCommit()
	if !ok || last.Round != rounds {
		t.Fatalf("LastCommit = %+v, %v", last, ok)
	}

	// The JSONL sink replays to an identical journal.
	replayed, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed.Records(), recs) {
		t.Error("sink replay diverges from in-memory journal")
	}
}

// TestRecoverFromEveryCrashPoint crashes the controller at each point that
// straddles the write-ahead boundary and checks recovery converges the
// monitoring layout and the calculation table to the journaled commit state.
func TestRecoverFromEveryCrashPoint(t *testing.T) {
	points := []CrashPoint{CrashAfterIntent, CrashAfterInstall, CrashAfterPopulate, CrashAfterCommit}
	for _, pt := range points {
		pt := pt
		t.Run(string(pt), func(t *testing.T) {
			cfg := DefaultConfig(8, 64)
			cfg.Journal = NewJournal()
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
			j := ctl.Journal()
			wantCommit, ok := j.LastCommit()
			if !ok {
				t.Fatal("no commit record to recover from")
			}
			wantDangling := pt != CrashAfterCommit
			ctl2, rec, err := Recover(cfg, NewDirectDriver(ctl.Monitor(), target), j)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if rec.FullResync {
				t.Error("FullResync with a commit record present")
			}
			if rec.DanglingIntent != wantDangling {
				t.Errorf("DanglingIntent = %v, want %v", rec.DanglingIntent, wantDangling)
			}
			if rec.ReplayedRound != wantCommit.Round {
				t.Errorf("ReplayedRound = %d, want %d", rec.ReplayedRound, wantCommit.Round)
			}
			checkConsistent(t, ctl2)
			leaves := ctl2.Trie().Leaves()
			if len(leaves) != len(wantCommit.Leaves) {
				t.Fatalf("recovered %d leaves, want %d", len(leaves), len(wantCommit.Leaves))
			}
			for i, b := range leaves {
				if b.Prefix.String() != wantCommit.Leaves[i].Prefix || b.Hits != wantCommit.Leaves[i].Hits {
					t.Fatalf("leaf %d: %v/%d, want %s/%d", i,
						b.Prefix, b.Hits, wantCommit.Leaves[i].Prefix, wantCommit.Leaves[i].Hits)
				}
			}
			// The calculation table must equal a from-scratch population of
			// the journaled trie — the never-crashed oracle.
			want := populationFP(t, ctl2.Trie(), arith.OpSquare, ctl2.CalcBudget())
			if got := target.engine.Store().Fingerprint(); got != want {
				t.Error("recovered calculation table diverges from journaled population")
			}
			// The journal now ends with the recovery's own commit record.
			if _, dangling := j.DanglingIntent(); dangling {
				t.Error("dangling intent survives recovery")
			}
			// And the recovered controller keeps running rounds.
			for i := 0; i < 3; i++ {
				ctl2.Monitor().ObserveAll(sampler.Draw(2000))
				if rep, err := ctl2.Round(); err != nil || rep.Degraded {
					t.Fatalf("post-recovery round: %+v, %v", rep, err)
				}
			}
		})
	}
}

func TestRecoverWithoutCommitFallsBackToFullResync(t *testing.T) {
	cfg := DefaultConfig(8, 32)
	mon, _ := monitor.New("mon", 16, 0)
	engine, _ := arith.NewUnaryEngine("calc", 16, 32, nil)
	target := &auditTarget{engine: engine, op: arith.OpSquare}

	j := NewJournal()
	// Simulate a crash in the WAL window of the very first round: one
	// dangling intent, no commit ever written.
	tr, err := trie.NewInitial(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalRecord(KindIntent, 1, 32, tr.Depth(), tr)); err != nil {
		t.Fatal(err)
	}
	ctl, rec, err := Recover(cfg, NewDirectDriver(mon, target), j)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.FullResync || !rec.DanglingIntent {
		t.Errorf("report = %+v, want FullResync with DanglingIntent", rec)
	}
	checkConsistent(t, ctl)
	if ctl.Journal() != j {
		t.Error("recovered controller did not adopt the journal")
	}
	if _, _, err := Recover(cfg, NewDirectDriver(mon, target), nil); err == nil {
		t.Error("Recover with nil journal: want error")
	}
}

// TestRecoverRepairsSilentCorruption tampers the calculation table behind
// the controller's back and checks a restart detects the divergence in its
// audit and converges the hardware with an anti-entropy diff, not a flash.
func TestRecoverRepairsSilentCorruption(t *testing.T) {
	cfg := DefaultConfig(8, 64)
	cfg.Journal = NewJournal()
	ctl, target, _, sampler := newAuditSystem(t, cfg)
	for i := 0; i < 4; i++ {
		ctl.Monitor().ObserveAll(sampler.Draw(2000))
		if _, err := ctl.Round(); err != nil {
			t.Fatal(err)
		}
	}

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

	ctl2, rec, err := Recover(cfg, NewDirectDriver(ctl.Monitor(), target), ctl.Journal())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Audit.Corrupted != 1 || rec.Audit.Ghost != 1 || rec.Audit.Missing != 1 {
		t.Errorf("recovery audit = %+v, want 1 corrupted / 1 ghost / 1 missing", rec.Audit)
	}
	// Anti-entropy: the repopulation writes scale with the divergence, far
	// below the full budget flash a naive recovery would issue.
	if rec.CalcWrites < 3 || rec.CalcWrites > 10 {
		t.Errorf("recovery calc writes = %d, want small diff (3..10), not a %d-entry flash",
			rec.CalcWrites, ctl2.CalcBudget())
	}
	want := populationFP(t, ctl2.Trie(), arith.OpSquare, ctl2.CalcBudget())
	if got := target.engine.Store().Fingerprint(); got != want {
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

// TestReadJournalTornTail pins the crash-consistency contract of the JSONL
// sink: a process that dies mid-append leaves a partially flushed final line,
// and ReadJournal must replay the durable prefix rather than refuse the whole
// log. Corruption anywhere BEFORE the final record stays fatal — that is not
// a torn tail, it is a damaged log.
func TestReadJournalTornTail(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultConfig(8, 32)
	cfg.Journal = NewJournalWithSink(&buf)
	ctl, target, _, sampler := newAuditSystem(t, cfg)
	const rounds = 4
	for i := 0; i < rounds; i++ {
		ctl.Monitor().ObserveAll(sampler.Draw(2000))
		if _, err := ctl.Round(); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.Bytes()
	recs := ctl.Journal().Records()

	// Tear the final record mid-line, as a crash between write and flush
	// would: drop the trailing newline plus half the last JSON object.
	lastStart := bytes.LastIndexByte(bytes.TrimRight(full, "\n"), '\n') + 1
	tornAt := lastStart + (len(full)-lastStart)/2
	torn := full[:tornAt]
	if bytes.HasSuffix(torn, []byte("\n")) {
		t.Fatal("tear landed on a record boundary; test setup broken")
	}

	j, err := ReadJournal(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("ReadJournal on torn tail: %v", err)
	}
	if got, want := j.Len(), len(recs)-1; got != want {
		t.Fatalf("replayed %d records, want %d (torn tail discarded)", got, want)
	}
	if !reflect.DeepEqual(j.Records(), recs[:len(recs)-1]) {
		t.Error("replayed prefix diverges from the in-memory journal")
	}

	// The torn log must still drive a full recovery.
	ctl2, rec, err := Recover(cfg, NewDirectDriver(ctl.Monitor(), target), j)
	if err != nil {
		t.Fatalf("Recover from torn journal: %v", err)
	}
	if rec.FullResync {
		t.Error("FullResync despite committed records surviving the tear")
	}
	if rep, err := ctl2.Round(); err != nil || rep.Degraded {
		t.Fatalf("post-recovery round: %+v, %v", rep, err)
	}

	// An empty final fragment (crash right after the newline) is simply a
	// complete log.
	j2, err := ReadJournal(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != len(recs) {
		t.Fatalf("clean replay lost records: %d != %d", j2.Len(), len(recs))
	}

	// Mid-stream corruption is NOT a torn tail: damage a record that has
	// complete records after it and the replay must refuse.
	lines := bytes.SplitAfter(full, []byte("\n"))
	corrupt := bytes.Join([][]byte{
		lines[0],
		[]byte("{\"kind\":\"intent\",\"round\"\n"), // truncated JSON mid-log
		bytes.Join(lines[1:], nil),
	}, nil)
	if _, err := ReadJournal(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("mid-stream corruption replayed without error")
	}
}
