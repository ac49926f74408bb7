package experiments

import (
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/dist"
	"github.com/ada-repro/ada/internal/netsim"
	"github.com/ada-repro/ada/internal/stats"
)

// Fig9Config parameterises the control-plane convergence-delay study
// (§V-B2): Nimble at line rate, rate halved mid-run, delay measured for
// calculation budgets 16..128.
type Fig9Config struct {
	// Entries are the calculation TCAM budgets swept.
	Entries []int
	// Rounds is the number of control rounds averaged per budget.
	Rounds int
	// SamplesPerRound feeds the monitor between rounds.
	SamplesPerRound int
	// Width is the operand width.
	Width int
	// Seed drives sampling.
	Seed int64
	// Workers is the replay parallelism for feeding samples into the
	// monitor (0 = GOMAXPROCS). Register counts are commutative, so the
	// result is worker-count independent.
	Workers int
}

// DefaultFig9Config returns the paper's sweep (16 to 128, step 16).
func DefaultFig9Config() Fig9Config {
	return Fig9Config{
		Entries:         []int{16, 32, 48, 64, 80, 96, 112, 128},
		Rounds:          10,
		SamplesPerRound: 2000,
		Width:           16,
		Seed:            9,
	}
}

// Fig9Row is one budget's mean convergence delay.
type Fig9Row struct {
	// Entries is the calculation budget.
	Entries int
	// Delay is the mean per-round control-plane delay.
	Delay time.Duration
}

// RunFig9 measures the modelled control-round delay as the calculation
// budget grows. The workload mimics the paper's: a rate variable pinned at
// 95 (Gbps) for half the run, then 47.
func RunFig9(cfg Fig9Config) ([]Fig9Row, error) {
	rows := make([]Fig9Row, 0, len(cfg.Entries))
	for _, entries := range cfg.Entries {
		sysCfg := core.DefaultConfig(cfg.Width)
		sysCfg.CalcEntries = entries
		sysCfg.MonitorEntries = 12
		sys, err := core.NewUnary(sysCfg, arith.OpDouble)
		if err != nil {
			return nil, err
		}
		half := cfg.Rounds / 2
		var total time.Duration
		for round := 0; round < cfg.Rounds; round++ {
			rate := 95.0
			if round >= half {
				rate = 47.0
			}
			s := dist.NewIntSampler(
				dist.Truncated{D: dist.Gaussian{Mu: rate, Sigma: 2}, Lo: 0, Hi: float64(uint64(1) << cfg.Width)},
				uint64(1)<<cfg.Width-1, cfg.Seed+int64(round))
			vs := s.Draw(cfg.SamplesPerRound)
			netsim.Replay(cfg.Workers, len(vs), func(_, lo, hi int) { sys.ObserveAll(vs[lo:hi]) })
			rep, err := sys.Sync()
			if err != nil {
				return nil, err
			}
			total += rep.Delay
		}
		rows = append(rows, Fig9Row{Entries: entries, Delay: total / time.Duration(cfg.Rounds)})
	}
	return rows, nil
}

// RenderFig9 formats the rows.
func RenderFig9(rows []Fig9Row) string {
	t := stats.NewTable("Fig 9: control-plane convergence delay vs calculation entries (paper: ≈3.15ms at 128)",
		"entries", "delay")
	for _, r := range rows {
		t.AddF(r.Entries, r.Delay.String())
	}
	return t.String()
}

// Table2Config parameterises the resource-usage accounting (§V-B2,
// Table II): ADA(R), ADA(ΔT), ADA(ΔT, R) at 8 monitoring entries, rate cut
// in half mid-run.
type Table2Config struct {
	// Rounds is the control-round count.
	Rounds int
	// SamplesPerRound feeds the monitors between rounds.
	SamplesPerRound int
	// Seed drives sampling.
	Seed int64
}

// DefaultTable2Config returns the paper's setup.
func DefaultTable2Config() Table2Config {
	return Table2Config{Rounds: 20, SamplesPerRound: 2000, Seed: 2}
}

// Table2Row is one deployment variant's resource usage.
type Table2Row struct {
	// Variant is "ADA(R)", "ADA(dT)", or "ADA(dT,R)".
	Variant string
	// Stages is the pipeline stage count.
	Stages int
	// AvgReads is mean register reads per control round.
	AvgReads float64
	// AvgWrites is mean control-plane writes per round.
	AvgWrites float64
}

// rateSampler mimics the Nimble rate variable: tightly pinned at 95, then
// 47 after the change (heavily skewed).
func rateSampler(width int, seed int64, second bool) *dist.IntSampler {
	mu := 95.0
	if second {
		mu = 47.0
	}
	return dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: mu, Sigma: 1.5}, Lo: 0, Hi: float64(uint64(1) << width)},
		uint64(1)<<width-1, seed)
}

// dtSampler mimics packet inter-arrival times: exponential-ish, more spread
// than the rate (§V-B2's observation).
func dtSampler(width int, seed int64) *dist.IntSampler {
	return dist.NewIntSampler(
		dist.Truncated{D: dist.Exponential{Rate: 1, Scale: 400}, Lo: 100, Hi: float64(uint64(1) << width)},
		uint64(1)<<width-1, seed)
}

// RunTable2 measures stage counts and control-plane read/write rates for
// the three deployment variants.
func RunTable2(cfg Table2Config) ([]Table2Row, error) {
	const width = 12
	mkUnaryCfg := func() core.Config {
		c := core.DefaultConfig(width)
		c.MonitorEntries = 8
		c.CalcEntries = 64
		return c
	}

	var rows []Table2Row

	// ADA(R): monitoring the rate only.
	{
		sys, err := core.NewUnary(mkUnaryCfg(), arith.OpDouble)
		if err != nil {
			return nil, err
		}
		var reads, writes float64
		for round := 0; round < cfg.Rounds; round++ {
			s := rateSampler(width, cfg.Seed+int64(round), round >= cfg.Rounds/2)
			for _, v := range s.Draw(cfg.SamplesPerRound) {
				sys.Observe(v)
			}
			rep, err := sys.Sync()
			if err != nil {
				return nil, err
			}
			reads += float64(rep.Reads)
			writes += float64(rep.Writes)
		}
		p, err := sys.Pipeline("ada(R)")
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Variant:   "ADA(R)",
			Stages:    p.NumStages(),
			AvgReads:  reads / float64(cfg.Rounds),
			AvgWrites: writes / float64(cfg.Rounds),
		})
	}

	// ADA(dT): monitoring the inter-arrival only.
	{
		sys, err := core.NewUnary(mkUnaryCfg(), arith.OpDouble)
		if err != nil {
			return nil, err
		}
		var reads, writes float64
		for round := 0; round < cfg.Rounds; round++ {
			s := dtSampler(width, cfg.Seed+1000+int64(round))
			for _, v := range s.Draw(cfg.SamplesPerRound) {
				sys.Observe(v)
			}
			rep, err := sys.Sync()
			if err != nil {
				return nil, err
			}
			reads += float64(rep.Reads)
			writes += float64(rep.Writes)
		}
		p, err := sys.Pipeline("ada(dT)")
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Variant:   "ADA(dT)",
			Stages:    p.NumStages(),
			AvgReads:  reads / float64(cfg.Rounds),
			AvgWrites: writes / float64(cfg.Rounds),
		})
	}

	// ADA(dT, R): both variables, one joint calculation table.
	{
		c := core.DefaultConfig(width)
		c.MonitorEntries = 8
		c.CalcEntries = 64
		sys, err := core.NewBinary(c, arith.OpMul)
		if err != nil {
			return nil, err
		}
		var reads, writes float64
		for round := 0; round < cfg.Rounds; round++ {
			rs := rateSampler(width, cfg.Seed+2000+int64(round), round >= cfg.Rounds/2)
			ds := dtSampler(width, cfg.Seed+3000+int64(round))
			for i := 0; i < cfg.SamplesPerRound; i++ {
				sys.Observe(rs.Next(), ds.Next())
			}
			rep, err := sys.Sync()
			if err != nil {
				return nil, err
			}
			reads += float64(rep.Reads)
			writes += float64(rep.Writes)
		}
		p, err := sys.Pipeline("ada(dT,R)")
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Variant:   "ADA(dT,R)",
			Stages:    p.NumStages(),
			AvgReads:  reads / float64(cfg.Rounds),
			AvgWrites: writes / float64(cfg.Rounds),
		})
	}
	return rows, nil
}

// RenderTable2 formats the rows.
func RenderTable2(rows []Table2Row) string {
	t := stats.NewTable("Table II: resource usage and control-plane overhead (paper: stages 2/2/3)",
		"variant", "stages", "avg reads/round", "avg writes/round")
	for _, r := range rows {
		t.AddF(r.Variant, r.Stages, r.AvgReads, r.AvgWrites)
	}
	return t.String()
}
