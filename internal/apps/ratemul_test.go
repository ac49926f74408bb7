package apps

import (
	"testing"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/netsim"
)

// rateConfig is an 8-bit rate variable with 2 adaptive entries and 12
// monitoring bins, as in the paper's Fig 8 deployment.
func rateConfig() core.Config {
	cfg := core.DefaultConfig(8)
	cfg.CalcEntries = 2
	return cfg
}

func TestADARateMultiplierBasics(t *testing.T) {
	m, err := NewADARateMultiplier(rateConfig(), 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() == "" {
		t.Error("empty name")
	}
	if m.Multiply(0, 100) != 0 || m.Multiply(24, 0) != 0 {
		t.Error("zero guard failed")
	}
	if m.Divide(100, 10) != 10 {
		t.Error("divide must be exact in ADA(R)")
	}
	if m.Divide(1, 0) == 0 {
		t.Error("divide by zero must saturate")
	}
	if m.Controller() == nil || m.Engine() == nil {
		t.Error("accessors")
	}
}

// TestADARateMultiplierObservesClampedRate: a rate wider than the rate key
// is answered from the clamped rate's row, so its hit must land in the bin
// holding the clamped rate, not in the bin its low bits mask to (300 masks
// to 44 at width 8).
func TestADARateMultiplierObservesClampedRate(t *testing.T) {
	m, err := NewADARateMultiplier(rateConfig(), 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Multiply(300, 500)
	mon := m.Controller().Monitor()
	hits := mon.Snapshot()
	for i, p := range mon.Prefixes() {
		want := uint64(0)
		if p.Contains(255) {
			want = 1
		}
		if hits[i] != want {
			t.Errorf("bin %v: %d hits, want %d", p, hits[i], want)
		}
	}
}

func TestADARateMultiplierErrors(t *testing.T) {
	bad := func(edit func(*core.Config)) core.Config {
		cfg := rateConfig()
		edit(&cfg)
		return cfg
	}
	if _, err := NewADARateMultiplier(bad(func(c *core.Config) { c.Width = 0 }), 16, 2); err == nil {
		t.Error("bad rate width: want error")
	}
	if _, err := NewADARateMultiplier(rateConfig(), 0, 2); err == nil {
		t.Error("bad dt width: want error")
	}
	if _, err := NewADARateMultiplier(bad(func(c *core.Config) { c.CalcEntries = 0 }), 16, 2); err == nil {
		t.Error("zero rate budget: want error")
	}
	if _, err := NewADARateMultiplier(bad(func(c *core.Config) { c.MonitorEntries = 0 }), 16, 2); err == nil {
		t.Error("zero monitor budget: want error")
	}
	if _, err := NewADARateMultiplier(rateConfig(), 16, -1); err == nil {
		t.Error("negative sig bits: want error")
	}
	if _, err := NewADARateMultiplier(bad(func(c *core.Config) { c.TieredTCAMEntries = 1 }), 16, 2); err == nil {
		t.Error("tiered joint table: want error")
	}
}

func TestADARateMultiplierAdaptsAcrossRateChange(t *testing.T) {
	m, err := NewADARateMultiplier(rateConfig(), 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1 at rate 24.
	for round := 0; round < 10; round++ {
		for i := 0; i < 300; i++ {
			m.Multiply(24, uint64(300+i%50))
		}
		if _, err := m.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	if rel := arith.RelError(m.Multiply(24, 320), 24*320); rel > 0.10 {
		t.Errorf("phase-1 error %.3f at the hot point", rel)
	}
	// Rate changes to 12; the monitor must re-zoom.
	for round := 0; round < 12; round++ {
		for i := 0; i < 300; i++ {
			m.Multiply(12, uint64(600+i%100))
		}
		if _, err := m.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	if rel := arith.RelError(m.Multiply(12, 640), 12*640); rel > 0.10 {
		t.Errorf("phase-2 error %.3f after adaptation", rel)
	}
	// ΔT error stays bounded across magnitudes (the sig-bits property).
	for _, dt := range []uint64{100, 1000, 10000, 60000} {
		got := m.Multiply(12, dt)
		if rel := arith.RelError(got, 12*dt); rel > 0.20 {
			t.Errorf("dt=%d: rel error %.3f exceeds sig-bits bound", dt, rel)
		}
	}
}

func TestADARateMultiplierScheduleSync(t *testing.T) {
	m, err := NewADARateMultiplier(rateConfig(), 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.NewSimulator()
	m.ScheduleSync(sim, netsim.Millisecond)
	sim.After(0, func() { m.Multiply(24, 500) })
	sim.Run(5 * netsim.Millisecond)
	if m.Controller().Totals().Rounds < 4 {
		t.Errorf("scheduled rounds = %d, want >= 4", m.Controller().Totals().Rounds)
	}
}
