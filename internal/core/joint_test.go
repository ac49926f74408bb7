package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/tcam"
	"github.com/ada-repro/ada/internal/trie"
)

// writeCountingDriver counts the TCAM writes its driver reports for
// monitoring installs and calculation populates.
type writeCountingDriver struct {
	controlplane.Driver
	writes *int
}

func (d *writeCountingDriver) InstallMonitoring(ps []bitstr.Prefix) (int, error) {
	n, err := d.Driver.InstallMonitoring(ps)
	*d.writes += n
	return n, err
}

func (d *writeCountingDriver) PopulateCalc(tr *trie.Trie, budget int) (int, int, error) {
	n, computed, err := d.Driver.PopulateCalc(tr, budget)
	*d.writes += n
	return n, computed, err
}

func (d *writeCountingDriver) PopulateCalcDelta(tr *trie.Trie, budget int) (int, int, int, error) {
	n, computed, reused, err := d.Driver.(controlplane.DeltaPopulator).PopulateCalcDelta(tr, budget)
	*d.writes += n
	return n, computed, reused, err
}

// TestBinaryJointWritesCrossTheDriver: every TCAM row a binary round writes,
// the joint table's included, goes through a controller's driver, so a
// WrapDriver wrapper sees exactly the writes SyncReport counts.
func TestBinaryJointWritesCrossTheDriver(t *testing.T) {
	seen := 0
	cfg := DefaultConfig(16)
	cfg.MonitorEntries = 6
	cfg.CalcEntries = 80
	cfg.WrapDriver = func(d controlplane.Driver) controlplane.Driver {
		return &writeCountingDriver{Driver: d, writes: &seen}
	}
	s, err := NewBinary(cfg, arith.OpMul)
	if err != nil {
		t.Fatal(err)
	}
	seen = 0 // construction-time installs are not round work
	reported := 0
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 6; round++ {
		s.ObserveAll(drawRound(rng, 4*round, 300), drawRound(rng, 4*round+9, 300))
		rep, err := s.Sync()
		if err != nil {
			t.Fatal(err)
		}
		reported += rep.TCAMWrites
	}
	if reported == 0 {
		t.Fatal("no TCAM writes in six drifting rounds")
	}
	if seen != reported {
		t.Errorf("drivers saw %d TCAM writes, SyncReports counted %d", seen, reported)
	}
}

// TestBinaryFullRepopulationAuditsJointRows: a DisableIncremental binary
// system still records what it installed, so its joint audit checks rows and
// repairs a silently corrupted one.
func TestBinaryFullRepopulationAuditsJointRows(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.MonitorEntries = 6
	cfg.CalcEntries = 48
	cfg.AuditEvery = 1
	cfg.DisableIncremental = true
	s, err := NewBinary(cfg, arith.OpMul)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 2; round++ {
		s.ObserveAll(drawRound(rng, round, 300), drawRound(rng, round, 300))
		if _, err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	tamperFirstRow(t, s.Engine().Table())

	s.ObserveAll(drawRound(rng, 2, 300), drawRound(rng, 2, 300))
	rep, err := s.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audit.Audited == 0 || rep.Audit.Corrupted != 1 || !rep.Audit.Repaired {
		t.Fatalf("joint audit = %+v, want the rows read back and 1 corrupted row repaired", rep.Audit)
	}
	if aud, err := s.ControllerY().Driver().(controlplane.Auditor).AuditCalc(false); err != nil || !aud.Clean() {
		t.Errorf("joint table still diverges from shadow after repair: %+v (err %v)", aud, err)
	}
}

// TestBinaryDegradedXStillRebuildsJoint: when only x's round degrades, y's
// round rebuilds the joint table from x's last committed trie.
func TestBinaryDegradedXStillRebuildsJoint(t *testing.T) {
	xFails, wrapped := 0, 0
	cfg := DefaultConfig(10)
	cfg.CalcEntries = 64
	cfg.MonitorEntries = 4
	cfg.WrapDriver = func(d controlplane.Driver) controlplane.Driver {
		wrapped++
		if wrapped == 1 { // x's controller is built first
			return &readFailDriver{Driver: d, fails: &xFails}
		}
		return d
	}
	s, err := NewBinary(cfg, arith.OpMul)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ControllerX().Driver().(*readFailDriver); !ok {
		t.Fatal("x's driver is not the failing one")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		v := uint64(300 + 40*rng.NormFloat64())
		s.Observe(v, v/2)
	}
	xTrie, fp := s.ControllerX().Trie(), s.Engine().Table().Fingerprint()
	xFails = controlplane.DefaultRetryPolicy().MaxAttempts // exhaust x's retries only
	rep, err := s.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.DegradedReason != controlplane.ReasonSnapshot {
		t.Fatalf("report = %+v, want degraded snapshot-read", rep)
	}
	if s.ControllerX().Trie() != xTrie {
		t.Error("x's trie moved in a degraded round")
	}
	if s.ControllerY().Totals().DegradedRounds != 0 {
		t.Error("y's round degraded")
	}
	if s.Engine().Table().Fingerprint() == fp {
		t.Error("joint table not rebuilt after y's round committed")
	}
	if _, err := s.Lookup(300, 150); err != nil {
		t.Errorf("lookup after the round: %v", err)
	}
}

// TestBinaryFailedJointPopulateRollsBackY: a joint populate that fails
// degrades y's round like any controller round: y's trie stays committed
// where it was, its reshaped monitoring bins are rolled back, and the joint
// table keeps serving its last population.
func TestBinaryFailedJointPopulateRollsBackY(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.CalcEntries = 64
	cfg.MonitorEntries = 4
	s, err := NewBinary(cfg, arith.OpMul)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		v := uint64(300 + 40*rng.NormFloat64())
		s.Observe(v, v/2)
	}
	yTrie, yBins := s.ControllerY().Trie(), s.ControllerY().Monitor().Table().Fingerprint()
	fp := s.Engine().Table().Fingerprint()
	s.Engine().Table().SetWriteHook(func(tcam.WriteOp) error { return errors.New("injected row-write failure") })
	rep, err := s.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.DegradedReason != controlplane.ReasonPopulate {
		t.Fatalf("report = %+v, want degraded calc-populate", rep)
	}
	if s.ControllerY().Trie() != yTrie {
		t.Error("y's trie moved although the joint populate failed")
	}
	if s.ControllerY().Monitor().Table().Fingerprint() != yBins {
		t.Error("y's reshaped monitoring bins were not rolled back")
	}
	if s.Engine().Table().Fingerprint() != fp {
		t.Error("joint table changed although its populate failed")
	}
}

// TestBinarySetCalcBudgetIsTheControllers: the joint budget lives in y's
// controller, which validates it like a unary system's.
func TestBinarySetCalcBudgetIsTheControllers(t *testing.T) {
	s, err := NewBinary(DefaultConfig(10), arith.OpMul)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCalcBudget(0); !errors.Is(err, controlplane.ErrConfig) {
		t.Errorf("SetCalcBudget(0) = %v, want controlplane.ErrConfig", err)
	}
	if err := s.SetCalcBudget(96); err != nil {
		t.Fatal(err)
	}
	if s.CalcBudget() != 96 || s.ControllerY().CalcBudget() != 96 {
		t.Errorf("budget = %d (y controller %d), want 96", s.CalcBudget(), s.ControllerY().CalcBudget())
	}
}
