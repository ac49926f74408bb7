package controlplane

import (
	"errors"
	"testing"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/dist"
	"github.com/ada-repro/ada/internal/monitor"
	"github.com/ada-repro/ada/internal/population"
	"github.com/ada-repro/ada/internal/trie"
)

// engineTarget adapts a unary arith engine to the Target interface, the same
// way the core package does.
type engineTarget struct {
	engine *arith.UnaryEngine
	op     arith.UnaryOp
}

func (t *engineTarget) Populate(tr *trie.Trie, budget int) (int, int, error) {
	entries, err := population.ADAUnary(tr, t.op.Func(), budget, population.Midpoint)
	if err != nil {
		return 0, 0, err
	}
	writes, err := t.engine.Reload(entries)
	return writes, len(entries), err
}

func newSystem(t *testing.T, width, monBudget, calcBudget int) (*Controller, *arith.UnaryEngine) {
	t.Helper()
	mon, err := monitor.New("mon", width, 0)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := arith.NewUnaryEngine("calc", width, calcBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(DefaultConfig(monBudget, calcBudget), mon, &engineTarget{engine: engine, op: arith.OpSquare})
	if err != nil {
		t.Fatal(err)
	}
	return ctl, engine
}

func TestNewInstallsInitialBins(t *testing.T) {
	ctl, _ := newSystem(t, 8, 8, 32)
	if got := ctl.Monitor().NumBins(); got != 8 {
		t.Errorf("initial bins = %d, want 8", got)
	}
	if ctl.Trie().NumLeaves() != 8 {
		t.Errorf("trie leaves = %d, want 8", ctl.Trie().NumLeaves())
	}
}

func TestConfigValidation(t *testing.T) {
	mon, _ := monitor.New("m", 8, 0)
	bad := []Config{
		{ThBalance: -0.1, MonitorBudget: 4, CalcBudget: 4},
		{ThBalance: 1.5, MonitorBudget: 4, CalcBudget: 4},
		{ThBalance: 0.2, MonitorBudget: 0, CalcBudget: 4},
		{ThBalance: 0.2, MonitorBudget: 4, CalcBudget: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, mon, nil); !errors.Is(err, ErrConfig) {
			t.Errorf("config %d: error = %v, want ErrConfig", i, err)
		}
	}
	if _, err := New(DefaultConfig(4, 4), nil, nil); !errors.Is(err, ErrConfig) {
		t.Errorf("nil monitor: %v", err)
	}
}

func TestRoundAccounting(t *testing.T) {
	ctl, engine := newSystem(t, 8, 8, 32)
	// Uniform traffic: no rebalance expected; calc table still repopulated.
	for v := uint64(0); v < 200; v++ {
		ctl.Monitor().Observe(v % 256)
	}
	rep, err := ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reads != 8 {
		t.Errorf("Reads = %d, want 8", rep.Reads)
	}
	if rep.RegisterWrites != 8 {
		t.Errorf("RegisterWrites = %d, want 8", rep.RegisterWrites)
	}
	if rep.Computed == 0 || rep.Computed > 32 {
		t.Errorf("Computed = %d, want (0, 32]", rep.Computed)
	}
	if engine.Table().Len() != rep.Computed {
		t.Errorf("engine holds %d entries, round computed %d", engine.Table().Len(), rep.Computed)
	}
	if rep.Delay <= 0 {
		t.Error("Delay must be positive")
	}
	if rep.TotalHits != 200 {
		t.Errorf("TotalHits = %d, want 200", rep.TotalHits)
	}
	// Registers were reset.
	for _, c := range ctl.Monitor().Snapshot() {
		if c != 0 {
			t.Error("registers not reset after round")
		}
	}
}

func TestRoundAdaptsToSkew(t *testing.T) {
	ctl, engine := newSystem(t, 16, 16, 64)
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 150}, Lo: 0, Hi: 1 << 16},
		1<<16-1, 5)
	for round := 0; round < 30; round++ {
		ctl.Monitor().ObserveAll(sampler.Draw(3000))
		if _, err := ctl.Round(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// After adaptation, the calc table must answer hot-region lookups with
	// low error.
	s := arith.MeasureUnary(engine.Eval, arith.OpSquare, sampler.Draw(5000))
	if s.Misses != 0 {
		t.Errorf("misses = %d", s.Misses)
	}
	if s.Avg > 0.02 {
		t.Errorf("post-adaptation avg error %.4f > 2%%", s.Avg)
	}
	tot := ctl.Totals()
	if tot.Rounds != 30 {
		t.Errorf("Rounds = %d", tot.Rounds)
	}
	if tot.Rebalances == 0 {
		t.Error("expected at least one rebalance under skew")
	}
	if tot.AvgReads() < float64(16) {
		t.Errorf("AvgReads = %.1f, want >= 16 (expansion grows reads)", tot.AvgReads())
	}
	if tot.AvgWrites() <= 0 {
		t.Error("AvgWrites must be positive")
	}
}

func TestExpansionUnderSkew(t *testing.T) {
	// Small initial monitor budget and a very skewed distribution: depth
	// grows fast, so the controller must expand the monitoring TCAM.
	mon, err := monitor.New("mon", 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4, 32)
	ctl, err := New(cfg, mon, nil)
	if err != nil {
		t.Fatal(err)
	}
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 100}, Lo: 0, Hi: 1 << 16},
		1<<16-1, 6)
	expanded := false
	for round := 0; round < 25; round++ {
		mon.ObserveAll(sampler.Draw(2000))
		rep, err := ctl.Round()
		if err != nil {
			t.Fatal(err)
		}
		expanded = expanded || rep.Expanded
	}
	if !expanded {
		t.Error("controller never expanded the monitoring TCAM under heavy skew")
	}
	if ctl.Monitor().NumBins() <= 4 {
		t.Errorf("bins = %d, want > 4 after expansion", ctl.Monitor().NumBins())
	}
	if ctl.Totals().Expansions == 0 {
		t.Error("Totals.Expansions = 0")
	}
}

func TestExpansionRespectsCap(t *testing.T) {
	mon, err := monitor.New("mon", 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(4, 16)
	cfg.MaxMonitorEntries = 5 // allow exactly one expansion
	ctl, err := New(cfg, mon, nil)
	if err != nil {
		t.Fatal(err)
	}
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 50}, Lo: 0, Hi: 1 << 16},
		1<<16-1, 8)
	for round := 0; round < 30; round++ {
		mon.ObserveAll(sampler.Draw(2000))
		if _, err := ctl.Round(); err != nil {
			t.Fatal(err)
		}
	}
	if got := ctl.Monitor().NumBins(); got > 5 {
		t.Errorf("bins = %d, exceeds cap 5", got)
	}
}

func TestNoTargetRoundStillMonitors(t *testing.T) {
	mon, _ := monitor.New("mon", 8, 0)
	ctl, err := New(DefaultConfig(4, 8), mon, nil)
	if err != nil {
		t.Fatal(err)
	}
	mon.Observe(3)
	rep, err := ctl.Round()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Computed != 0 {
		t.Errorf("Computed = %d with nil target", rep.Computed)
	}
}

func TestCostModelCalibration(t *testing.T) {
	// Fig 9: a 128-entry round must land near 3.15 ms. A replace-all of 128
	// entries costs ~256 TCAM writes plus monitoring writes, reads, and
	// compute.
	cm := DefaultCostModel()
	// A 128-budget round in practice writes ~216 TCAM rows (a full rewrite
	// of ~108 installed entries) and computes ~108 entries.
	delay := cm.RoundCost(12, 12, 216, 108, 0)
	lo, hi := 2900*time.Microsecond, 3500*time.Microsecond
	if delay < lo || delay > hi {
		t.Errorf("128-entry round delay = %v, want ≈3.15ms (within [%v, %v])", delay, lo, hi)
	}
	// And delay must grow monotonically with entries (Fig 9 shape).
	prev := time.Duration(0)
	for entries := 16; entries <= 128; entries += 16 {
		d := cm.RoundCost(12, 12, 2*entries+24, entries, 0)
		if d <= prev {
			t.Errorf("delay not monotone at %d entries: %v <= %v", entries, d, prev)
		}
		prev = d
	}
}

func TestDelayScalesWithCalcBudget(t *testing.T) {
	delays := make([]time.Duration, 0, 2)
	for _, budget := range []int{16, 128} {
		ctl, _ := newSystem(t, 16, 8, budget)
		ctl.Monitor().ObserveAll([]uint64{1, 2, 3, 4000, 4001, 4002})
		rep, err := ctl.Round()
		if err != nil {
			t.Fatal(err)
		}
		delays = append(delays, rep.Delay)
	}
	if delays[1] <= delays[0] {
		t.Errorf("delay(128)=%v not above delay(16)=%v", delays[1], delays[0])
	}
}

func TestTotalsZeroRounds(t *testing.T) {
	var tot Totals
	if tot.AvgReads() != 0 || tot.AvgWrites() != 0 {
		t.Error("zero-round totals must average 0")
	}
}
