// Ablation benchmarks for the design choices called out in DESIGN.md. Each
// benchmark runs the design variant and its alternative on the same
// workload and reports both headline metrics, so `go test -bench=Ablation`
// quantifies every choice.
package ada_test

import (
	"testing"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/dist"
	"github.com/ada-repro/ada/internal/monitor"
	"github.com/ada-repro/ada/internal/population"
	"github.com/ada-repro/ada/internal/tcam"
	"github.com/ada-repro/ada/internal/trie"
)

// trainedTrie returns a trie adapted to the given sampler.
func trainedTrie(b *testing.B, width, bins int, sampler *dist.IntSampler, rounds int) *trie.Trie {
	b.Helper()
	tr, err := trie.NewInitial(bins, width)
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		tr.ResetHits()
		tr.RecordAll(sampler.Draw(2000))
		rebs := 0
		for ; rebs < 4 && tr.Rebalance(0.20); rebs++ {
		}
		// The controller's expansion fallback (§III-B2): grow when the
		// imbalance persists but Algorithm 2 has no mergeable pair left.
		if rebs < 4 && tr.Imbalance() >= 0.20 && tr.NumLeaves() < 2*bins {
			tr.Expand()
		}
	}
	tr.ResetHits()
	tr.RecordAll(sampler.Draw(10000))
	return tr
}

// BenchmarkAblationRepresentative compares the paper's midpoint
// representative against the geometric mean on a multiplicative operation
// over skewed operands (DESIGN.md decision 2).
func BenchmarkAblationRepresentative(b *testing.B) {
	// Heavy-tailed operands at a small budget: bins span whole octaves, so
	// the representative choice matters.
	const width, budget = 16, 12
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Exponential{Rate: 4, Scale: 1 << width}, Lo: 1, Hi: 1 << width},
		1<<width-1, 21)
	test := sampler.Draw(5000)
	var midErr, geoErr float64
	for i := 0; i < b.N; i++ {
		tr := trainedTrie(b, width, 12, sampler, 20)
		for _, rep := range []population.Representative{population.Midpoint, population.GeoMean} {
			entries, err := population.ADAUnary(tr, arith.OpSquare.Func(), budget, rep)
			if err != nil {
				b.Fatal(err)
			}
			engine, err := arith.NewUnaryEngine("abl", width, budget, entries)
			if err != nil {
				b.Fatal(err)
			}
			s := arith.MeasureUnary(engine.Eval, arith.OpSquare, test)
			if rep == population.Midpoint {
				midErr = s.AvgPercent()
			} else {
				geoErr = s.AvgPercent()
			}
		}
	}
	b.ReportMetric(midErr, "midpoint_err%")
	b.ReportMetric(geoErr, "geomean_err%")
}

// BenchmarkAblationJointSplit compares ADABinary's spread-proportional
// budget factoring against a fixed sqrt split on asymmetric operands — a
// near-constant divisor against a wide dividend (DESIGN.md decision 5).
func BenchmarkAblationJointSplit(b *testing.B) {
	const width, budget = 16, 128
	xs := dist.NewIntSampler(dist.Uniform{Lo: 0, Hi: 1 << width}, 1<<width-1, 31)
	ys := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 20, Sigma: 1}, Lo: 1, Hi: 1 << width},
		1<<width-1, 32)
	// Evaluate where the quotient is meaningful (small dividends make the
	// relative error of x/20 explode for every scheme and mask the split
	// effect).
	rawX, testY := xs.Draw(6000), ys.Draw(3000)
	testX := make([]uint64, 0, 3000)
	for _, x := range rawX {
		if x >= 1<<12 {
			testX = append(testX, x)
		}
		if len(testX) == 3000 {
			break
		}
	}
	var adaptive, fixed float64
	for i := 0; i < b.N; i++ {
		tx := trainedTrie(b, width, 12, xs, 15)
		ty := trainedTrie(b, width, 12, ys, 15)
		for _, variant := range []string{"adaptive", "fixed"} {
			var entries []population.BinaryEntry
			var err error
			if variant == "adaptive" {
				entries, err = population.ADABinary(tx, ty, arith.OpDiv.Func(), budget, population.Midpoint)
			} else {
				entries, err = population.ADABinaryFixedSplit(tx, ty, arith.OpDiv.Func(), budget, population.Midpoint)
			}
			if err != nil {
				b.Fatal(err)
			}
			engine, err := arith.NewBinaryEngine("abl", width, 0, entries)
			if err != nil {
				b.Fatal(err)
			}
			s := arith.MeasureBinary(engine.Eval, arith.OpDiv, testX, testY)
			if variant == "adaptive" {
				adaptive = s.AvgPercent()
			} else {
				fixed = s.AvgPercent()
			}
		}
	}
	b.ReportMetric(adaptive, "spread_split_err%")
	b.ReportMetric(fixed, "sqrt_split_err%")
}

// BenchmarkAblationHitDecay compares the paper's read-then-reset register
// handling against an EWMA decay after an abrupt distribution shift
// (DESIGN.md decision 4). Reset adapts faster; EWMA remembers longer.
func BenchmarkAblationHitDecay(b *testing.B) {
	const width, calcBudget = 16, 64
	var resetErr, ewmaErr float64
	for i := 0; i < b.N; i++ {
		for _, ewma := range []bool{false, true} {
			mon, err := monitor.New("abl", width, 0)
			if err != nil {
				b.Fatal(err)
			}
			cfg := controlplane.DefaultConfig(12, calcBudget)
			cfg.EWMADecay = ewma
			engine, err := arith.NewUnaryEngine("abl", width, calcBudget, nil)
			if err != nil {
				b.Fatal(err)
			}
			target := &unaryTargetForBench{engine: engine}
			ctl, err := controlplane.New(cfg, mon, target)
			if err != nil {
				b.Fatal(err)
			}
			before := dist.NewIntSampler(
				dist.Truncated{D: dist.Gaussian{Mu: 50000, Sigma: 500}, Lo: 0, Hi: 1 << width},
				1<<width-1, 41)
			after := dist.NewIntSampler(
				dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 200}, Lo: 0, Hi: 1 << width},
				1<<width-1, 42)
			for r := 0; r < 15; r++ {
				mon.ObserveAll(before.Draw(2000))
				if _, err := ctl.Round(); err != nil {
					b.Fatal(err)
				}
			}
			// Abrupt shift; a few rounds to re-adapt.
			for r := 0; r < 4; r++ {
				mon.ObserveAll(after.Draw(2000))
				if _, err := ctl.Round(); err != nil {
					b.Fatal(err)
				}
			}
			s := arith.MeasureUnary(engine.Eval, arith.OpSquare, after.Draw(4000))
			if ewma {
				ewmaErr = s.AvgPercent()
			} else {
				resetErr = s.AvgPercent()
			}
		}
	}
	b.ReportMetric(resetErr, "reset_err%_post_shift")
	b.ReportMetric(ewmaErr, "ewma_err%_post_shift")
}

type unaryTargetForBench struct {
	engine *arith.UnaryEngine
}

func (t *unaryTargetForBench) Populate(tr *trie.Trie, budget int) (int, int, int, error) {
	entries, err := population.ADAUnary(tr, arith.OpSquare.Func(), budget, population.Midpoint)
	if err != nil {
		return 0, 0, 0, err
	}
	writes, err := t.engine.Reload(entries)
	return writes, len(entries), 0, err
}

// BenchmarkAblationWritePolicy compares delta reconciliation
// (ApplyRowsAtomic) against full table rewrites — every installed row
// deleted, every new row inserted — across adaptation rounds: the reason
// Table II's write counts stay low.
func BenchmarkAblationWritePolicy(b *testing.B) {
	const width, budget = 16, 64
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 300}, Lo: 0, Hi: 1 << width},
		1<<width-1, 51)
	var deltaWrites, fullWrites float64
	for i := 0; i < b.N; i++ {
		tr, err := trie.NewInitial(12, width)
		if err != nil {
			b.Fatal(err)
		}
		delta := tcam.MustNew("delta", 0, width)
		var dw, fw int
		for r := 0; r < 20; r++ {
			tr.ResetHits()
			tr.RecordAll(sampler.Draw(2000))
			for j := 0; j < 4 && tr.Rebalance(0.20); j++ {
			}
			entries, err := population.ADAUnary(tr, arith.OpSquare.Func(), budget, population.Midpoint)
			if err != nil {
				b.Fatal(err)
			}
			rows := make([]tcam.Row, len(entries))
			for k, e := range entries {
				rows[k] = tcam.RowFromPrefix(e.P, e.Result)
			}
			fw += delta.Len() + len(rows)
			w, err := delta.ApplyRowsAtomic(rows)
			if err != nil {
				b.Fatal(err)
			}
			dw += w
		}
		deltaWrites, fullWrites = float64(dw)/20, float64(fw)/20
	}
	b.ReportMetric(deltaWrites, "delta_writes_per_round")
	b.ReportMetric(fullWrites, "full_writes_per_round")
}

// BenchmarkAblationBalanceThreshold sweeps Algorithm 2's th_balance: a low
// threshold reshapes eagerly (more control-plane churn), a high one adapts
// sluggishly. The paper picks 0.20.
func BenchmarkAblationBalanceThreshold(b *testing.B) {
	// A mild skew (uniform background + one cluster) keeps the imbalance in
	// the 0.1–0.6 range where the threshold actually gates reshaping; a
	// hard point mass saturates imbalance at ~1 and every threshold fires.
	const width = 20
	mix, err := dist.NewMixture(
		dist.Component{D: dist.Uniform{Lo: 0, Hi: 1 << width}, Weight: 3},
		dist.Component{D: dist.Gaussian{Mu: 300000, Sigma: 20000}, Weight: 1},
	)
	if err != nil {
		b.Fatal(err)
	}
	sampler := dist.NewIntSampler(
		dist.Truncated{D: mix, Lo: 0, Hi: 1 << width},
		1<<width-1, 61)
	thresholds := []float64{0.05, 0.20, 0.60}
	names := []string{"th0.05", "th0.20", "th0.60"}
	earlyDepth := make([]float64, len(thresholds))
	churn := make([]float64, len(thresholds))
	for i := 0; i < b.N; i++ {
		for ti, th := range thresholds {
			tr, err := trie.NewInitial(16, width)
			if err != nil {
				b.Fatal(err)
			}
			rebalances := 0
			for r := 0; r < 30; r++ {
				tr.ResetHits()
				tr.RecordAll(sampler.Draw(2000))
				for j := 0; j < 4 && tr.Rebalance(th); j++ {
					rebalances++
				}
				if r == 2 {
					earlyDepth[ti] = float64(tr.Depth())
				}
			}
			churn[ti] = float64(rebalances)
		}
	}
	for ti := range thresholds {
		b.ReportMetric(earlyDepth[ti], names[ti]+"_depth_after_3_rounds")
		b.ReportMetric(churn[ti], names[ti]+"_total_rebalances")
	}
}
