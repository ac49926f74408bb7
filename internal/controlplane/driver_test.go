package controlplane

import (
	"errors"
	"testing"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/dist"
	"github.com/ada-repro/ada/internal/monitor"
	"github.com/ada-repro/ada/internal/trie"
)

var errFlaky = errors.New("flaky driver")

// flakyDriver wraps the direct driver with scripted failures, the minimal
// in-package stand-in for internal/faults.
type flakyDriver struct {
	inner *DirectDriver

	failReads     int      // fail the next N ReadRegisters
	failInstalls  int      // fail the next N InstallMonitoring
	failPopulates int      // fail the next N PopulateCalc
	failResets    int      // fail the next N ResetRegisters
	staleSnap     []uint64 // returned (once) instead of a real snapshot

	injected time.Duration // reported via TakeInjectedLatency
}

func (d *flakyDriver) Width() int           { return d.inner.Width() }
func (d *flakyDriver) MonitorCapacity() int { return d.inner.MonitorCapacity() }
func (d *flakyDriver) NumBins() int         { return d.inner.NumBins() }
func (d *flakyDriver) Unwrap() Driver       { return d.inner }

func (d *flakyDriver) ReadRegisters() ([]uint64, error) {
	if d.failReads > 0 {
		d.failReads--
		return nil, errFlaky
	}
	if d.staleSnap != nil {
		s := d.staleSnap
		d.staleSnap = nil
		return s, nil
	}
	return d.inner.ReadRegisters()
}

func (d *flakyDriver) ResetRegisters() (int, error) {
	if d.failResets > 0 {
		d.failResets--
		return 0, errFlaky
	}
	return d.inner.ResetRegisters()
}

func (d *flakyDriver) InstallMonitoring(prefixes []bitstr.Prefix) (int, error) {
	if d.failInstalls > 0 {
		d.failInstalls--
		return 0, errFlaky
	}
	return d.inner.InstallMonitoring(prefixes)
}

func (d *flakyDriver) PopulateCalc(tr *trie.Trie, budget int) (int, int, error) {
	if d.failPopulates > 0 {
		d.failPopulates--
		return 0, 0, errFlaky
	}
	return d.inner.PopulateCalc(tr, budget)
}

func (d *flakyDriver) TakeInjectedLatency() time.Duration {
	l := d.injected
	d.injected = 0
	return l
}

// newFlakySystem builds a controller over a flaky driver with a real engine
// target, plus a skewed sampler that forces reshaping every round.
func newFlakySystem(t *testing.T, cfg Config) (*Controller, *flakyDriver, *dist.IntSampler) {
	t.Helper()
	mon, err := monitor.New("mon", 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := arith.NewUnaryEngine("calc", 16, cfg.CalcBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	fd := &flakyDriver{inner: NewDirectDriver(mon, &engineTarget{engine: engine, op: arith.OpSquare})}
	ctl, err := NewWithDriver(cfg, fd)
	if err != nil {
		t.Fatal(err)
	}
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 150}, Lo: 0, Hi: 1 << 16},
		1<<16-1, 5)
	return ctl, fd, sampler
}

// checkConsistent asserts the invariant a failed round must preserve: the
// driver's installed bins always tile what the trie believes is installed.
func checkConsistent(t *testing.T, ctl *Controller) {
	t.Helper()
	if got, want := ctl.Driver().NumBins(), ctl.Trie().NumLeaves(); got != want {
		t.Fatalf("driver has %d bins, trie has %d leaves", got, want)
	}
	if err := ctl.Trie().Validate(); err != nil {
		t.Fatalf("trie invalid: %v", err)
	}
}

func TestRetryAbsorbsTransientFailure(t *testing.T) {
	ctl, fd, sampler := newFlakySystem(t, DefaultConfig(8, 32))
	ctl.Monitor().ObserveAll(sampler.Draw(2000))

	fd.failPopulates = 1 // one transient failure, retry must absorb it
	rep, err := ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatalf("round degraded despite retry budget: %+v", rep)
	}
	if rep.Retries != 1 || rep.DriverErrors != 1 {
		t.Errorf("Retries = %d, DriverErrors = %d, want 1, 1", rep.Retries, rep.DriverErrors)
	}
	// Backoff is charged into the delay.
	clean := ctl.cfg.Cost.RoundCost(rep.Reads, rep.RegisterWrites, rep.TCAMWrites, rep.Computed)
	if rep.Delay != clean+ctl.cfg.Retry.BaseBackoff {
		t.Errorf("Delay = %v, want op cost %v + backoff %v", rep.Delay, clean, ctl.cfg.Retry.BaseBackoff)
	}
	checkConsistent(t, ctl)
}

func TestPopulateFailureRollsBackAndRetriesCleanly(t *testing.T) {
	ctl, fd, sampler := newFlakySystem(t, DefaultConfig(8, 32))
	// Converge once so the engine holds a good population.
	ctl.Monitor().ObserveAll(sampler.Draw(2000))
	if _, err := ctl.Round(); err != nil {
		t.Fatal(err)
	}
	goodGen := ctl.Monitor().Table().Generation()
	leaves := ctl.Trie().NumLeaves()

	// Skewed traffic forces a reshape; populate fails beyond the retry
	// budget, so the whole round must roll back.
	ctl.Monitor().ObserveAll(sampler.Draw(3000))
	fd.failPopulates = ctl.cfg.Retry.MaxAttempts
	rep, err := ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.DegradedReason != ReasonPopulate {
		t.Fatalf("report = %+v, want degraded populate", rep)
	}
	if got := ctl.Trie().NumLeaves(); got != leaves {
		t.Errorf("trie leaves moved on failed round: %d -> %d", leaves, got)
	}
	_ = goodGen
	checkConsistent(t, ctl)
	tot := ctl.Totals()
	if tot.DegradedRounds != 1 {
		t.Errorf("DegradedRounds = %d", tot.DegradedRounds)
	}

	// The same round retried against a healthy driver must succeed from the
	// rolled-back state.
	ctl.Monitor().ObserveAll(sampler.Draw(3000))
	rep, err = ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatalf("retried round degraded: %+v", rep)
	}
	checkConsistent(t, ctl)
}

func TestSnapshotFailureDegrades(t *testing.T) {
	ctl, fd, sampler := newFlakySystem(t, DefaultConfig(8, 32))
	ctl.Monitor().ObserveAll(sampler.Draw(1000))
	fd.failReads = ctl.cfg.Retry.MaxAttempts
	rep, err := ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.DegradedReason != ReasonSnapshot {
		t.Fatalf("report = %+v, want degraded snapshot-read", rep)
	}
	checkConsistent(t, ctl)
	// Next round: driver healthy again, full recovery.
	rep, err = ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatalf("recovery round degraded: %+v", rep)
	}
}

func TestStaleSnapshotShapeMismatchDegrades(t *testing.T) {
	ctl, fd, sampler := newFlakySystem(t, DefaultConfig(8, 32))
	ctl.Monitor().ObserveAll(sampler.Draw(1000))
	fd.staleSnap = make([]uint64, 3) // wrong bin count: stale driver state
	rep, err := ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.DegradedReason != ReasonStaleSnapshot {
		t.Fatalf("report = %+v, want degraded stale-snapshot", rep)
	}
	checkConsistent(t, ctl)
}

func TestUnhealthyDegradedModeAndRecovery(t *testing.T) {
	cfg := DefaultConfig(8, 32)
	cfg.UnhealthyAfter = 2
	ctl, fd, sampler := newFlakySystem(t, cfg)
	ctl.Monitor().ObserveAll(sampler.Draw(1000))

	// Two consecutive failed rounds flip the controller to unhealthy.
	fd.failReads = 100
	for i := 0; i < 2; i++ {
		rep, err := ctl.Round()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Degraded {
			t.Fatalf("round %d not degraded", i)
		}
	}
	if ctl.Health() != Unhealthy {
		t.Fatalf("health = %v, want unhealthy", ctl.Health())
	}

	// Unhealthy rounds only probe (one read attempt, no retries).
	errsBefore := ctl.Totals().DriverErrors
	rep, err := ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DegradedReason != ReasonUnhealthy {
		t.Fatalf("reason = %q, want driver-unhealthy", rep.DegradedReason)
	}
	if got := ctl.Totals().DriverErrors - errsBefore; got != 1 {
		t.Errorf("probe performed %d driver calls, want exactly 1", got)
	}

	// Driver recovers: the probe succeeds and the same call resumes a full
	// round.
	fd.failReads = 0
	ctl.Monitor().ObserveAll(sampler.Draw(1000))
	rep, err = ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || rep.Health != Healthy {
		t.Fatalf("recovery round: %+v", rep)
	}
	checkConsistent(t, ctl)
}

func TestRoundDeadlineAborts(t *testing.T) {
	cfg := DefaultConfig(8, 32)
	cfg.Retry.RoundDeadline = cfg.Cost.Base + time.Microsecond // nothing fits
	ctl, fd, sampler := newFlakySystem(t, cfg)
	ctl.Monitor().ObserveAll(sampler.Draw(1000))
	_ = fd
	rep, err := ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.DegradedReason != ReasonDeadline {
		t.Fatalf("report = %+v, want degraded round-deadline", rep)
	}
	checkConsistent(t, ctl)
}

func TestResetFailureIsNonFatal(t *testing.T) {
	ctl, fd, sampler := newFlakySystem(t, DefaultConfig(8, 32))
	ctl.Monitor().ObserveAll(sampler.Draw(1000))
	fd.failResets = ctl.cfg.Retry.MaxAttempts
	rep, err := ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatalf("reset failure must not degrade the round: %+v", rep)
	}
	if !rep.ResetFailed {
		t.Error("ResetFailed not reported")
	}
	if rep.RegisterWrites != 0 {
		t.Errorf("RegisterWrites = %d after failed reset", rep.RegisterWrites)
	}
	checkConsistent(t, ctl)
}

func TestInjectedLatencyChargedIntoDelay(t *testing.T) {
	ctl, fd, sampler := newFlakySystem(t, DefaultConfig(8, 32))
	ctl.Monitor().ObserveAll(sampler.Draw(1000))
	fd.injected = 500 * time.Microsecond
	rep, err := ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if rep.InjectedLatency != 500*time.Microsecond {
		t.Errorf("InjectedLatency = %v", rep.InjectedLatency)
	}
	clean := ctl.cfg.Cost.RoundCost(rep.Reads, rep.RegisterWrites, rep.TCAMWrites, rep.Computed)
	if rep.Delay != clean+500*time.Microsecond {
		t.Errorf("Delay = %v, want %v", rep.Delay, clean+500*time.Microsecond)
	}
}
