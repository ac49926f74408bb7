package apps

import (
	"fmt"
	"math"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/netsim"
	"github.com/ada-repro/ada/internal/population"
)

// ADARateMultiplier is the paper's ADA(R) Nimble deployment (§V-B1: "we
// implement only monitoring for the rate variable"): the rate marginal is
// adaptive (monitored, Algorithm 2/3), while the ΔT marginal uses the
// magnitude-logarithmic 0^p 1 (0|1)^s x^r population of [12], whose relative
// error is uniform across all ΔT magnitudes. The joint table is the cross
// product, so its size is cfg.CalcEntries × sig-bits table size. It runs on a
// core.CrossSystem, whose controller commits the table by delta and audits
// it like any calculation table.
type ADARateMultiplier struct {
	sys    *core.CrossSystem
	widthR int
	widthT int
}

// NewADARateMultiplier builds the ADA(R) multiplier.
//
//   - cfg: the rate variable's system: cfg.Width is the rate key width,
//     cfg.CalcEntries the adaptive rate marginal's budget and
//     cfg.MonitorEntries its monitoring budget (the paper uses 12).
//   - widthT: the ΔT key width.
//   - dtSigBits: significant bits of the static ΔT marginal; relative error
//     is about ±2^-(dtSigBits+1) per lookup.
func NewADARateMultiplier(cfg core.Config, widthT, dtSigBits int) (*ADARateMultiplier, error) {
	dtPrefixes, err := population.SigBitsPrefixes(widthT, dtSigBits)
	if err != nil {
		return nil, fmt.Errorf("apps: dt marginal: %w", err)
	}
	sys, err := core.NewCross(cfg, arith.OpMul, dtPrefixes)
	if err != nil {
		return nil, err
	}
	return &ADARateMultiplier{sys: sys, widthR: cfg.Width, widthT: widthT}, nil
}

// Multiply implements netsim.Arithmetic: the rate operand, clamped to its
// key width, is monitored (the ADA data-plane path), then the joint table
// answers for that same clamped rate.
func (m *ADARateMultiplier) Multiply(rate, dt uint64) uint64 {
	if rate == 0 || dt == 0 {
		return 0
	}
	rate = clampWidth(rate, m.widthR)
	m.sys.Observe(rate)
	v, err := m.sys.Engine().Eval(rate, clampWidth(dt, m.widthT))
	if err != nil {
		return 0
	}
	return v
}

// Divide implements netsim.Arithmetic (exact: this deployment offloads only
// the multiplication).
func (m *ADARateMultiplier) Divide(x, y uint64) uint64 {
	if y == 0 {
		return math.MaxUint64
	}
	return x / y
}

// Name implements netsim.Arithmetic.
func (m *ADARateMultiplier) Name() string { return "ada(R)+sigbits(dT)" }

// Sync runs one control round: read the rate registers, adapt the trie,
// commit the joint table's changed rows.
func (m *ADARateMultiplier) Sync() (core.SyncReport, error) {
	return m.sys.Sync()
}

// ScheduleSync arranges periodic control rounds on the simulator.
func (m *ADARateMultiplier) ScheduleSync(sim *netsim.Simulator, every netsim.Time) {
	var tick func()
	tick = func() {
		if _, err := m.Sync(); err == nil {
			sim.After(every, tick)
		}
	}
	sim.After(every, tick)
}

// Controller exposes the control-plane state (resource accounting).
func (m *ADARateMultiplier) Controller() *controlplane.Controller { return m.sys.Controller() }

// Engine exposes the joint calculation engine.
func (m *ADARateMultiplier) Engine() *arith.BinaryEngine { return m.sys.Engine() }

var _ netsim.Arithmetic = (*ADARateMultiplier)(nil)
