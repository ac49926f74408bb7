package apps

import (
	"math"
	"testing"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/netsim"
)

func TestStaticTCAMArith(t *testing.T) {
	s, err := NewStaticTCAMArith(10, 256)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() == "" {
		t.Error("name")
	}
	// Coarse but sane: result within an order of magnitude mid-domain.
	got := s.Multiply(500, 500)
	if got < 25000 || got > 2500000 {
		t.Errorf("Multiply(500,500) = %d, want within 10× of 250000", got)
	}
	if s.Divide(10, 0) == 0 {
		t.Error("divide by zero must saturate")
	}
	// Out-of-width operands clamp instead of missing.
	if v := s.Multiply(1<<20, 2); v == 0 {
		t.Error("oversized operand must clamp, not miss")
	}
}

func TestADAArithAdaptsNimbleOperands(t *testing.T) {
	cfg := core.DefaultConfig(12)
	cfg.CalcEntries = 128
	cfg.MonitorEntries = 12
	a, err := NewADAArith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "ada" {
		t.Error("name")
	}
	// Nimble-like operands: rate fixed at 24, ΔT clustered around 480 ns.
	for round := 0; round < 20; round++ {
		for i := 0; i < 500; i++ {
			a.Multiply(24, uint64(470+i%20))
		}
		if _, err := a.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
	// After adaptation, error at the hot operating point must be small.
	// The joint table splits its budget across two dimensions (~11 entries
	// per side at 128), so a few percent is the honest floor.
	got := a.Multiply(24, 480)
	exact := uint64(24 * 480)
	rel := arith.RelError(got, exact)
	if rel > 0.10 {
		t.Errorf("adapted Multiply(24,480) = %d (exact %d), rel error %.3f", got, exact, rel)
	}
	// And it must beat the static naive population at the same budget.
	static, err := NewStaticTCAMArith(12, 128)
	if err != nil {
		t.Fatal(err)
	}
	if staticRel := arith.RelError(static.Multiply(24, 480), exact); staticRel <= rel {
		t.Errorf("ADA error %.3f not below static %.3f at the hot point", rel, staticRel)
	}
}

func TestADAArithGuards(t *testing.T) {
	cfg := core.DefaultConfig(10)
	cfg.CalcEntries = 64
	cfg.MonitorEntries = 8
	a, err := NewADAArith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Multiply(0, 9) != 0 || a.Multiply(9, 0) != 0 {
		t.Error("zero-operand multiply must short-circuit to 0")
	}
	if a.Divide(0, 9) != 0 {
		t.Error("zero dividend must short-circuit to 0")
	}
	if a.Divide(9, 0) != math.MaxUint64 {
		t.Error("divide by zero must saturate")
	}
	if a.Multiplier() == nil {
		t.Error("Multiplier accessor")
	}
}

func TestADAArithScheduleSync(t *testing.T) {
	cfg := core.DefaultConfig(10)
	cfg.CalcEntries = 64
	cfg.MonitorEntries = 8
	a, err := NewADAArith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.NewSimulator()
	a.ScheduleSync(sim, netsim.Millisecond)
	sim.Run(4 * netsim.Millisecond)
	if sim.Processed < 3 {
		t.Errorf("scheduled syncs did not run (%d events)", sim.Processed)
	}
}

func TestClampWidth(t *testing.T) {
	cases := []struct {
		v     uint64
		width int
		want  uint64
	}{
		{5, 8, 5},
		{255, 8, 255},
		{256, 8, 255},
		{1 << 40, 16, 1<<16 - 1},
		{math.MaxUint64, 64, math.MaxUint64},
		{42, 64, 42},
	}
	for _, c := range cases {
		if got := clampWidth(c.v, c.width); got != c.want {
			t.Errorf("clampWidth(%d, %d) = %d, want %d", c.v, c.width, got, c.want)
		}
	}
}
