package faults_test

import (
	"errors"
	"testing"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/dist"
	"github.com/ada-repro/ada/internal/faults"
	"github.com/ada-repro/ada/internal/monitor"
	"github.com/ada-repro/ada/internal/population"
	"github.com/ada-repro/ada/internal/tcam"
	"github.com/ada-repro/ada/internal/trie"
)

// engineTarget mirrors the adapter core builds over a unary engine.
type engineTarget struct {
	engine *arith.UnaryEngine
	op     arith.UnaryOp
}

func (t *engineTarget) Populate(tr *trie.Trie, budget int) (int, int, int, error) {
	entries, err := population.ADAUnary(tr, t.op.Func(), budget, population.Midpoint)
	if err != nil {
		return 0, 0, 0, err
	}
	writes, err := t.engine.Reload(entries)
	return writes, len(entries), 0, err
}

func newFaultySystem(t *testing.T, prof faults.Profile) (*controlplane.Controller, *arith.UnaryEngine, *faults.Injector) {
	t.Helper()
	in, err := faults.New(prof)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New("mon", 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := arith.NewUnaryEngine("calc", 16, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := controlplane.DefaultConfig(12, 64)
	cfg.WrapDriver = in.Wrap
	ctl, err := controlplane.New(cfg, mon, &engineTarget{engine: engine, op: arith.OpSquare})
	if err != nil {
		t.Fatal(err)
	}
	return ctl, engine, in
}

// TestChaosRoundsStayConsistent drives many rounds under the default fault
// profile and asserts the transactional invariants after every round: the
// calculation table is fully old- or fully new-generation, covers the whole
// domain, and driver/controller bin state never diverges for long.
func TestChaosRoundsStayConsistent(t *testing.T) {
	ctl, engine, in := newFaultySystem(t, faults.DefaultProfile())
	in.AttachTable(engine.Table())
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 150}, Lo: 0, Hi: 1 << 16},
		1<<16-1, 5)

	degraded := 0
	for round := 0; round < 200; round++ {
		ctl.Monitor().ObserveAll(sampler.Draw(500))
		gen, fp := engine.Table().Generation(), engine.Table().Fingerprint()
		rep, err := ctl.Round()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if rep.Degraded {
			degraded++
			// A degraded round must leave the calc table untouched.
			if engine.Table().Generation() != gen || engine.Table().Fingerprint() != fp {
				t.Fatalf("round %d: degraded round mutated the calc table", round)
			}
		} else if engine.Table().Generation() == gen && engine.Table().Fingerprint() != fp {
			t.Fatalf("round %d: table changed without a generation commit", round)
		}
		// Full-domain cover: every operand must resolve.
		for _, x := range []uint64{0, 1, 4000, 9999, 1<<16 - 1} {
			if _, err := engine.Eval(x); err != nil {
				t.Fatalf("round %d: lookup miss for %d: %v", round, x, err)
			}
		}
	}
	st := in.Stats()
	if st.WriteFailures == 0 && st.RowFailures == 0 && st.StaleSnapshots == 0 {
		t.Error("fault profile injected nothing across 200 rounds")
	}
	t.Logf("degraded=%d stats=%+v totals=%+v", degraded, st, ctl.Totals())
}

// TestDeterminism: equal seeds and call sequences must replay identically.
func TestDeterminism(t *testing.T) {
	run := func() (faults.Stats, controlplane.Totals) {
		ctl, engine, in := newFaultySystem(t, faults.OutageProfile())
		in.AttachTable(engine.Table())
		sampler := dist.NewIntSampler(
			dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 150}, Lo: 0, Hi: 1 << 16},
			1<<16-1, 9)
		for round := 0; round < 80; round++ {
			ctl.Monitor().ObserveAll(sampler.Draw(300))
			if _, err := ctl.Round(); err != nil {
				t.Fatal(err)
			}
		}
		return in.Stats(), ctl.Totals()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 {
		t.Errorf("stats diverged across identical seeded runs:\n%+v\n%+v", s1, s2)
	}
	if t1 != t2 {
		t.Errorf("totals diverged across identical seeded runs:\n%+v\n%+v", t1, t2)
	}
}

// TestOutageDrivesDegradedMode: a long outage must flip the controller
// unhealthy, and recovery must resume normal rounds.
func TestOutageDrivesDegradedMode(t *testing.T) {
	ctl, engine, in := newFaultySystem(t, faults.Profile{Seed: 3})
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 150}, Lo: 0, Hi: 1 << 16},
		1<<16-1, 5)

	// Converge once so the engine holds a good population to serve from.
	ctl.Monitor().ObserveAll(sampler.Draw(2000))
	if _, err := ctl.Round(); err != nil {
		t.Fatal(err)
	}

	in.StartOutage(40)
	sawUnhealthy := false
	for round := 0; round < 12; round++ {
		ctl.Monitor().ObserveAll(sampler.Draw(200))
		rep, err := ctl.Round()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Health == controlplane.Unhealthy {
			sawUnhealthy = true
		}
		// Lookups keep answering from the last good population throughout.
		if _, err := engine.Eval(4000); err != nil {
			t.Fatalf("round %d: lookup failed during outage: %v", round, err)
		}
	}
	if !sawUnhealthy {
		t.Fatal("outage never drove the controller unhealthy")
	}
	// Probe rounds consume the outage budget (one op each) and recover.
	recovered := false
	for round := 0; round < 60 && !recovered; round++ {
		ctl.Monitor().ObserveAll(sampler.Draw(200))
		rep, err := ctl.Round()
		if err != nil {
			t.Fatal(err)
		}
		recovered = !rep.Degraded
	}
	if !recovered {
		t.Fatal("controller never recovered after the outage drained")
	}
	if ctl.Health() != controlplane.Healthy {
		t.Errorf("health = %v after recovery", ctl.Health())
	}
	if in.Stats().OutageOps == 0 {
		t.Error("outage ops not counted")
	}
}

// TestStaleSnapshotAfterExpansion: the injector caches the last snapshot, so
// after the monitoring table grows a stale read returns the wrong shape and
// the controller must degrade rather than corrupt the trie.
func TestStaleSnapshotAfterExpansion(t *testing.T) {
	prof := faults.Profile{Seed: 11, SnapshotStale: 1} // every read after the first is stale
	ctl, _, _ := newFaultySystem(t, prof)
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 60}, Lo: 0, Hi: 1 << 16},
		1<<16-1, 5)
	// Round 1 primes the snapshot cache and reshapes under skew; later
	// rounds read stale snapshots. Same bin count → stale-but-loadable;
	// after an expansion the shape mismatches and must degrade.
	stale := 0
	for round := 0; round < 20; round++ {
		ctl.Monitor().ObserveAll(sampler.Draw(2000))
		rep, err := ctl.Round()
		if err != nil {
			t.Fatal(err)
		}
		if rep.DegradedReason == controlplane.ReasonStaleSnapshot {
			stale++
		}
		if got, want := ctl.Driver().NumBins(), ctl.Trie().NumLeaves(); got != want {
			t.Fatalf("round %d: bins %d != leaves %d", round, got, want)
		}
	}
	if stale == 0 {
		t.Error("no stale-snapshot degradations observed despite stale=1 profile")
	}
}

// TestAttachTableRowFaults: with every row write failing, the atomic apply
// rolls back and the plain apply documents its partial state.
func TestAttachTableRowFaults(t *testing.T) {
	in := faults.MustNew(faults.Profile{Seed: 5, RowFailure: 1})
	tb := tcam.MustNew("t", 0, 8)
	rows := []tcam.Row{}
	for _, s := range []string{"0xxxxxxx", "1xxxxxxx"} {
		p, err := bitstr.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, tcam.RowFromPrefix(p, uint64(1)))
	}
	if _, err := tb.ApplyRowsAtomic(rows); err != nil {
		t.Fatal(err)
	}
	fp := tb.Fingerprint()
	in.AttachTable(tb)
	_, err := tb.ApplyRowsAtomic([]tcam.Row{rows[0]})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error = %v, want ErrInjected", err)
	}
	if tb.Fingerprint() != fp {
		t.Error("atomic apply leaked partial state under row faults")
	}
	if in.Stats().RowFailures == 0 {
		t.Error("row failures not counted")
	}
}

// TestParseProfile round-trips specs and rejects junk.
func TestParseProfile(t *testing.T) {
	p, err := faults.ParseProfile("seed=7,write=0.1,stale=0.02,outage=0.01,outageops=4,latency=20us,spike=400us,spikeprob=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.WriteFailure != 0.1 || p.SnapshotStale != 0.02 ||
		p.OutageProb != 0.01 || p.OutageOps != 4 || p.SpikeProb != 0.05 {
		t.Errorf("parsed profile = %+v", p)
	}
	if p.Latency == nil || p.Spike == nil {
		t.Error("latency distributions not parsed")
	}
	if _, err := faults.ParseProfile("write=2"); err == nil {
		t.Error("probability 2 accepted")
	}
	if _, err := faults.ParseProfile("bogus=1"); err == nil {
		t.Error("unknown key accepted")
	}
	if def, err := faults.ParseProfile("default"); err != nil || def != faults.DefaultProfile() {
		t.Errorf("default spec: %+v, %v", def, err)
	}
	if _, err := faults.ParseProfile("seed=1,spikeprob=0.5"); err != nil {
		t.Errorf("spec without distributions rejected: %v", err)
	}
}

// TestLatencySpikesSurfaceInDelay: injected latency must appear in the
// round's Delay through the LatencyReporter seam.
func TestLatencySpikesSurfaceInDelay(t *testing.T) {
	prof := faults.Profile{Seed: 2, Latency: faults.Fixed(250 * time.Microsecond)}
	ctl, _, in := newFaultySystem(t, prof)
	ctl.Monitor().ObserveAll([]uint64{1, 2, 3})
	rep, err := ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if rep.InjectedLatency == 0 {
		t.Fatal("no injected latency surfaced")
	}
	if rep.Delay <= rep.InjectedLatency {
		t.Errorf("Delay %v does not include injected latency %v on top of op costs",
			rep.Delay, rep.InjectedLatency)
	}
	if in.Stats().Injected == 0 {
		t.Error("injector did not account injected latency")
	}
}
