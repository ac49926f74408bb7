package experiments

import (
	"fmt"
	"math"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/dist"
	"github.com/ada-repro/ada/internal/netsim"
	"github.com/ada-repro/ada/internal/population"
	"github.com/ada-repro/ada/internal/stats"
)

// Fig7aConfig parameterises the error-vs-significant-bits study (§V-A3).
type Fig7aConfig struct {
	// SigBits are the s values swept on the x axis.
	SigBits []int
	// Samples is the operand draw per combination.
	Samples int
	// Seed drives sampling.
	Seed int64
}

// DefaultFig7aConfig returns the paper's sweep.
func DefaultFig7aConfig() Fig7aConfig {
	return Fig7aConfig{SigBits: []int{1, 2, 3, 4, 5, 6, 7, 8}, Samples: 20000, Seed: 7}
}

// Fig7aRow is one (s, combination) average error in percent.
type Fig7aRow struct {
	// S is the significant-bit count.
	S int
	// Errors maps combination name (e.g. "G(x)*G(y)") to average relative
	// error in percent.
	Errors map[string]float64
}

// Fig7aCombos lists the operand-distribution/operation combinations. Each
// entry is (name, op, xDist, yDist).
type fig7aCombo struct {
	name string
	op   population.BinaryFunc
	x, y dist.Distribution
}

func fig7aCombos() []fig7aCombo {
	g := dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: math.Sqrt(32500)}, Lo: 0, Hi: DomainMax}
	u := dist.Uniform{Lo: 0, Hi: DomainMax}
	add := func(x, y uint64) uint64 { return x + y }
	mul := arith.OpMul.Func()
	return []fig7aCombo{
		{"U(x)+U(y)", add, u, u},
		{"U(x)+G(y)", add, u, g},
		{"G(x)+G(y)", add, g, g},
		{"U(x)*G(y)", mul, u, g},
		{"G(x)*G(y)", mul, g, g},
	}
}

// RunFig7a measures the average relative error of the 0^p 1 (0|1)^s x^r
// population for each operand combination as s grows. Joint lookups are
// evaluated through the two marginals (result = f(rep_x, rep_y)) so the
// quadratic joint table never has to be materialised.
func RunFig7a(cfg Fig7aConfig) ([]Fig7aRow, error) {
	combos := fig7aCombos()
	var rows []Fig7aRow
	for _, s := range cfg.SigBits {
		marginal, err := population.SigBitsUnary(func(x uint64) uint64 { return x },
			DomainWidth, s, population.Midpoint)
		if err != nil {
			return nil, fmt.Errorf("fig7a s=%d: %w", s, err)
		}
		row := Fig7aRow{S: s, Errors: make(map[string]float64, len(combos))}
		for ci, c := range combos {
			xs := dist.NewIntSampler(c.x, uint64(1)<<DomainWidth-1, cfg.Seed+int64(ci))
			ys := dist.NewIntSampler(c.y, uint64(1)<<DomainWidth-1, cfg.Seed+100+int64(ci))
			total, n := 0.0, 0
			for i := 0; i < cfg.Samples; i++ {
				x, y := xs.Next(), ys.Next()
				ex, okx := population.LookupEntry(marginal, x)
				ey, oky := population.LookupEntry(marginal, y)
				if !okx || !oky {
					continue
				}
				approx := c.op(ex.Result, ey.Result)
				exact := c.op(x, y)
				total += arith.RelError(approx, exact)
				n++
			}
			if n > 0 {
				row.Errors[c.name] = total / float64(n) * 100
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig7a formats the rows.
func RenderFig7a(rows []Fig7aRow) string {
	combos := fig7aCombos()
	headers := []string{"sig bits"}
	for _, c := range combos {
		headers = append(headers, c.name+" err%")
	}
	t := stats.NewTable("Fig 7a: average error vs significant bits (log-scale in the paper)", headers...)
	for _, r := range rows {
		cells := []any{r.S}
		for _, c := range combos {
			cells = append(cells, r.Errors[c.name])
		}
		t.AddF(cells...)
	}
	return t.String()
}

// Fig7bRow is one table-size data point.
type Fig7bRow struct {
	// S is the significant-bit count.
	S int
	// UnaryEntries is the single-operand table size.
	UnaryEntries int
	// BinaryEntries is the two-operand (cross-product) size.
	BinaryEntries int
}

// RunFig7b computes the TCAM table size as a function of s — exponential
// growth, the reason the naive scheme cannot simply raise s.
func RunFig7b(sigBits []int) []Fig7bRow {
	rows := make([]Fig7bRow, 0, len(sigBits))
	for _, s := range sigBits {
		u := population.SigBitsTableSize(DomainWidth, s)
		rows = append(rows, Fig7bRow{S: s, UnaryEntries: u, BinaryEntries: u * u})
	}
	return rows
}

// RenderFig7b formats the rows.
func RenderFig7b(rows []Fig7bRow) string {
	t := stats.NewTable("Fig 7b: table size vs significant bits (width 20 operands)",
		"sig bits", "unary entries", "two-operand entries")
	for _, r := range rows {
		t.AddF(r.S, r.UnaryEntries, r.BinaryEntries)
	}
	return t.String()
}

// Fig7cConfig parameterises the error-propagation study (§V-A4).
type Fig7cConfig struct {
	// Iterations is the self-application count (paper: 10).
	Iterations int
	// Budget is the calculation entry budget per engine.
	Budget int
	// Width is the operand width (32 in the paper).
	Width int
	// Seeds is the number of Gaussian starting points averaged over.
	Seeds int
	// Mu and Sigma describe the seed distribution (paper: median 10,
	// variance 100).
	Mu, Sigma float64
	// AdaptRounds is the number of ADA control rounds before measuring.
	AdaptRounds int
	// Seed drives sampling.
	Seed int64
	// Workers parallelises the trajectory replay across starting seeds
	// (0 = GOMAXPROCS). Each trajectory stays sequential — iterate i+1
	// depends on iterate i — and register counts are commutative, so the
	// monitor state after each round is worker-count independent.
	Workers int
}

// DefaultFig7cConfig returns the paper's setup.
func DefaultFig7cConfig() Fig7cConfig {
	return Fig7cConfig{
		Iterations:  10,
		Budget:      128,
		Width:       32,
		Seeds:       50,
		Mu:          10,
		Sigma:       10,
		AdaptRounds: 20,
		Seed:        77,
	}
}

// Fig7cRow is one configuration's propagation curve.
type Fig7cRow struct {
	// Function is "2x" or "x^2".
	Function string
	// Scheme is "naive" or "ada".
	Scheme string
	// PerIterPct is the mean relative error (%) after each iteration.
	PerIterPct []float64
	// MaxPct is the mean peak error (%).
	MaxPct float64
}

// RunFig7c iterates f(x)=2x and f(x)=x² through naive and ADA-populated
// engines, feeding the output back as input (§V-A4). ADA trains by
// observing the actual iterate trajectories before measurement.
func RunFig7c(cfg Fig7cConfig) ([]Fig7cRow, error) {
	g := dist.Truncated{D: dist.Gaussian{Mu: cfg.Mu, Sigma: cfg.Sigma}, Lo: 1, Hi: 1e9}
	domainMax := uint64(1)<<uint(cfg.Width) - 1
	sampler := dist.NewIntSampler(g, domainMax, cfg.Seed)
	seeds := sampler.Draw(cfg.Seeds)
	for i, s := range seeds {
		if s == 0 {
			seeds[i] = 1
		}
	}

	// The "without ADA" baseline is the paper's 0^p 1 (0|1)^s x^r
	// population; pick the largest s whose table fits the budget so the
	// comparison is budget-fair.
	sigBits := 1
	for s := 2; s <= cfg.Width; s++ {
		if population.SigBitsTableSize(cfg.Width, s) > cfg.Budget {
			break
		}
		sigBits = s
	}

	var rows []Fig7cRow
	for _, op := range []arith.UnaryOp{arith.OpDouble, arith.OpSquare} {
		naiveEntries, err := population.SigBitsUnary(op.Func(), cfg.Width, sigBits, population.Midpoint)
		if err != nil {
			return nil, err
		}
		naiveEngine, err := arith.NewUnaryEngine("fig7c.naive", cfg.Width, cfg.Budget, naiveEntries)
		if err != nil {
			return nil, err
		}
		per, maxE := arith.MeanPropagation(naiveEngine.Eval, op, seeds, domainMax, cfg.Iterations)
		rows = append(rows, Fig7cRow{
			Function: op.String(), Scheme: "naive",
			PerIterPct: toPct(per), MaxPct: maxE * 100,
		})

		// ADA: observe the exact iterate trajectories, adapt, then measure.
		sysCfg := core.DefaultConfig(cfg.Width)
		sysCfg.CalcEntries = cfg.Budget
		sysCfg.MonitorEntries = 16
		sys, err := core.NewUnary(sysCfg, op)
		if err != nil {
			return nil, err
		}
		for round := 0; round < cfg.AdaptRounds; round++ {
			netsim.Replay(cfg.Workers, len(seeds), func(_, lo, hi int) {
				traj := make([]uint64, 0, cfg.Iterations)
				for _, x0 := range seeds[lo:hi] {
					x := x0
					traj = traj[:0]
					for i := 0; i < cfg.Iterations; i++ {
						traj = append(traj, x)
						x = op.Exact(x)
						if x > domainMax {
							x = domainMax
						}
					}
					sys.ObserveAll(traj)
				}
			})
			if _, err := sys.Sync(); err != nil {
				return nil, err
			}
		}
		per, maxE = arith.MeanPropagation(sys.Engine().Eval, op, seeds, domainMax, cfg.Iterations)
		rows = append(rows, Fig7cRow{
			Function: op.String(), Scheme: "ada",
			PerIterPct: toPct(per), MaxPct: maxE * 100,
		})
	}
	return rows, nil
}

func toPct(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * 100
	}
	return out
}

// RenderFig7c formats the rows.
func RenderFig7c(rows []Fig7cRow) string {
	t := stats.NewTable("Fig 7c: error propagation over iterations (mean error %, log-scale in the paper)",
		"function", "scheme", "iter 1", "iter 3", "iter 5", "iter 10", "peak")
	for _, r := range rows {
		pick := func(i int) float64 {
			if i < len(r.PerIterPct) {
				return r.PerIterPct[i]
			}
			return math.NaN()
		}
		t.AddF(r.Function, r.Scheme, pick(0), pick(2), pick(4), pick(len(r.PerIterPct)-1), r.MaxPct)
	}
	return t.String()
}
