package apps

import (
	"math"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/netsim"
	"github.com/ada-repro/ada/internal/population"
)

// StaticTCAMArith is a frozen TCAM population: built once (naively, over the
// whole domain), never updated. This is the "without ADA" configuration of
// Fig 8 — accurate only where the initial population happens to be fine.
type StaticTCAMArith struct {
	mul *arith.BinaryEngine
	div *arith.BinaryEngine
}

// NewStaticTCAMArith builds naive two-operand multiply/divide tables of the
// given entry budget over width-bit operands.
func NewStaticTCAMArith(width, budget int) (*StaticTCAMArith, error) {
	mulEntries, err := population.NaiveBinary(arith.OpMul.Func(), width, budget, population.Midpoint)
	if err != nil {
		return nil, err
	}
	divEntries, err := population.NaiveBinary(arith.OpDiv.Func(), width, budget, population.Midpoint)
	if err != nil {
		return nil, err
	}
	mul, err := arith.NewBinaryEngine("static.mul", width, 0, mulEntries)
	if err != nil {
		return nil, err
	}
	div, err := arith.NewBinaryEngine("static.div", width, 0, divEntries)
	if err != nil {
		return nil, err
	}
	return &StaticTCAMArith{mul: mul, div: div}, nil
}

// Multiply implements netsim.Arithmetic.
func (s *StaticTCAMArith) Multiply(x, y uint64) uint64 {
	v, err := s.mul.Eval(clampWidth(x, s.mul.Width()), clampWidth(y, s.mul.Width()))
	if err != nil {
		return 0
	}
	return v
}

// Divide implements netsim.Arithmetic.
func (s *StaticTCAMArith) Divide(x, y uint64) uint64 {
	if y == 0 {
		return math.MaxUint64
	}
	v, err := s.div.Eval(clampWidth(x, s.div.Width()), clampWidth(y, s.div.Width()))
	if err != nil {
		return 0
	}
	return v
}

// Name implements netsim.Arithmetic.
func (s *StaticTCAMArith) Name() string { return "static-tcam" }

// ADAArith adapts a pair of adaptive core systems to netsim.Arithmetic.
// Every Multiply/Divide is a data-plane lookup that also feeds the
// monitoring pipeline; Sync runs the control rounds.
type ADAArith struct {
	mul *core.BinarySystem
	div *core.BinarySystem
}

// NewADAArith builds adaptive multiply and divide systems with the given
// configuration.
func NewADAArith(cfg core.Config) (*ADAArith, error) {
	return NewADAArithSplit(cfg, cfg)
}

// NewADAArithSplit builds the multiply and divide systems with separate
// configurations. Useful when the two operations see very different operand
// ranges (e.g. RCP divides values up to R·adj but multiplies small rates).
func NewADAArithSplit(mulCfg, divCfg core.Config) (*ADAArith, error) {
	mul, err := core.NewBinary(mulCfg, arith.OpMul)
	if err != nil {
		return nil, err
	}
	div, err := core.NewBinary(divCfg, arith.OpDiv)
	if err != nil {
		return nil, err
	}
	return &ADAArith{mul: mul, div: div}, nil
}

// Multiply implements netsim.Arithmetic. Operands are monitored as a side
// effect, exactly like the P4 pipeline. A zero operand short-circuits to
// zero, as the P4 table's exact-zero guard entry does.
func (a *ADAArith) Multiply(x, y uint64) uint64 {
	if x == 0 || y == 0 {
		return 0
	}
	w := a.mul.Engine().Width()
	v, err := a.mul.Lookup(clampWidth(x, w), clampWidth(y, w))
	if err != nil {
		return 0
	}
	return v
}

// Divide implements netsim.Arithmetic. Zero dividends short-circuit via the
// exact-zero guard entry.
func (a *ADAArith) Divide(x, y uint64) uint64 {
	if y == 0 {
		return math.MaxUint64
	}
	if x == 0 {
		return 0
	}
	w := a.div.Engine().Width()
	v, err := a.div.Lookup(clampWidth(x, w), clampWidth(y, w))
	if err != nil {
		return 0
	}
	return v
}

// Name implements netsim.Arithmetic.
func (a *ADAArith) Name() string { return "ada" }

// Sync runs one control round on both systems and returns the combined
// convergence delay.
func (a *ADAArith) Sync() (netsim.Time, error) {
	repM, err := a.mul.Sync()
	if err != nil {
		return 0, err
	}
	repD, err := a.div.Sync()
	if err != nil {
		return 0, err
	}
	total := repM.Delay + repD.Delay
	return netsim.Time(total.Nanoseconds()) * netsim.Nanosecond, nil
}

// Multiplier returns the underlying multiply system (error measurement).
func (a *ADAArith) Multiplier() *core.BinarySystem { return a.mul }

// ScheduleSync arranges periodic control rounds on the simulator, the
// in-simulation analogue of the paper's gRPC control loop.
func (a *ADAArith) ScheduleSync(sim *netsim.Simulator, every netsim.Time) {
	var tick func()
	tick = func() {
		if _, err := a.Sync(); err == nil {
			sim.After(every, tick)
		}
	}
	sim.After(every, tick)
}

func clampWidth(v uint64, width int) uint64 {
	if width >= 64 {
		return v
	}
	maxV := uint64(1)<<uint(width) - 1
	if v > maxV {
		return maxV
	}
	return v
}

var (
	_ netsim.Arithmetic = (*StaticTCAMArith)(nil)
	_ netsim.Arithmetic = (*ADAArith)(nil)
)
