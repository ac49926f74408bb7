package experiments

import (
	"fmt"
	"math/rand"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/stats"
	"github.com/ada-repro/ada/internal/tenant"
)

// TenantBenchConfig parameterises the multi-tenant sharing benchmark: three
// concurrent operations mount one physical calculation TCAM, and the same
// fixed total budget is split either statically (equal shares, the naive
// deployment) or elastically (the tenant arbiter reallocating by observed
// error pressure every Every rounds). The workloads are skewed — one tenant
// needs many entries, one needs almost none — and drift over the run, which
// is exactly the regime where a static split wastes entries.
type TenantBenchConfig struct {
	// Rounds is the control rounds per mode (error is measured after Warmup).
	Rounds int
	// Warmup is the rounds excluded from the error aggregate while the
	// monitors and the arbiter converge.
	Warmup int
	// SamplesPerRound is the operand observations fed to each tenant's
	// monitors per round.
	SamplesPerRound int
	// EvalSamples is the operands drawn per tenant per measured round to
	// estimate average relative error.
	EvalSamples int
	// TotalEntries is the shared physical table capacity (the fixed total
	// budget both modes split).
	TotalEntries int
	// Every is the elastic arbiter's rebalance cadence in rounds.
	Every int
	// Width is the operand width in bits.
	Width int
	// Seed seeds the per-tenant operand streams; both modes replay the
	// identical streams.
	Seed int64
}

// DefaultTenantBenchConfig returns the committed-baseline configuration:
// three tenants on a 192-entry table (64 each under the static split).
func DefaultTenantBenchConfig() TenantBenchConfig {
	return TenantBenchConfig{
		Rounds:          56,
		Warmup:          20,
		SamplesPerRound: 400,
		EvalSamples:     2000,
		TotalEntries:    192,
		Every:           4,
		Width:           16,
		Seed:            1,
	}
}

// TenantBenchRow is one tenant's static-vs-elastic comparison. Errors are
// average relative error |approx-exact|/max(exact,1) over the measured
// rounds; budgets are calculation entries (static is the equal share,
// elastic is the final arbiter allocation).
type TenantBenchRow struct {
	Tenant        string  `json:"tenant"`
	Op            string  `json:"op"`
	StaticBudget  int     `json:"static_budget"`
	ElasticBudget int     `json:"elastic_final_budget"`
	StaticErr     float64 `json:"static_avg_rel_error"`
	ElasticErr    float64 `json:"elastic_avg_rel_error"`
}

// TenantBenchResult is the benchmark artefact (BENCH_tenant.json): the
// per-tenant rows plus the aggregate the acceptance criterion reads — the
// mean of per-tenant average errors at the same total budget.
type TenantBenchResult struct {
	TotalEntries     int              `json:"total_entries"`
	Tenants          int              `json:"tenants"`
	Rounds           int              `json:"rounds"`
	RebalanceEvery   int              `json:"rebalance_every"`
	Rows             []TenantBenchRow `json:"rows"`
	StaticAggregate  float64          `json:"static_aggregate_error"`
	ElasticAggregate float64          `json:"elastic_aggregate_error"`
	// Improvement is StaticAggregate / ElasticAggregate (>1 means the
	// elastic split wins).
	Improvement float64 `json:"improvement"`
}

// tenantWorkload is one concurrent operation: its op and its drifting
// operand distribution. progress runs 0→1 over the benchmark.
type tenantWorkload struct {
	name   string
	uop    arith.UnaryOp
	bop    arith.BinaryOp
	sample func(rng *rand.Rand, progress float64) (x, y uint64)
}

// tri draws from a triangular distribution on [lo, lo+span): smooth
// unimodal tails, so Algorithm 3's 0.5% working-range trim drops negligible
// mass instead of cutting a hard cliff off a uniform block.
func tri(rng *rand.Rand, lo, span int) uint64 {
	return uint64(lo + rng.Intn(span/2) + rng.Intn(span/2))
}

// tenantBenchWorkloads returns the skewed trio: a square tenant over a wide
// drifting range (entry-hungry — squaring doubles relative operand error),
// a reciprocal tenant over a near-point mass (a handful of entries suffice),
// and a square-root tenant in between (error-forgiving: root halves relative
// operand error, so entries are worth less there per unit of residual).
// All three are unary: a binary tenant's measured error is not monotone in
// its joint budget (side-split granularity effects in the allocator), which
// would make the elastic-vs-static comparison measure allocator luck rather
// than arbitration quality — the tenant differential tests cover binary
// correctness instead. Operands are bounded away from zero: physical
// quantities (queue depths, rates) do not sit at 1, and near-zero operands
// make midpoint relative error diverge for every allocator alike.
func tenantBenchWorkloads() []tenantWorkload {
	return []tenantWorkload{
		{
			// Wide and drifting: the hot range slides up by an order of
			// magnitude over the run, so the tenant keeps needing entries
			// where it has none.
			name: "square", uop: arith.OpSquare,
			sample: func(rng *rand.Rand, progress float64) (uint64, uint64) {
				hi := 4000 + int(56000*progress)
				return tri(rng, 512, hi), 0
			},
		},
		{
			// Near-point mass: four distinct values, exactly coverable by a
			// handful of entries — the donor tenant.
			name: "recip", uop: arith.OpRecip,
			sample: func(rng *rand.Rand, progress float64) (uint64, uint64) {
				return uint64(16 + rng.Intn(4)), 0
			},
		},
		{
			// Moderate drifting range on the forgiving operation.
			name: "sqrt", uop: arith.OpSqrt,
			sample: func(rng *rand.Rand, progress float64) (uint64, uint64) {
				hi := 3000 + int(9000*progress)
				return tri(rng, 256, hi), 0
			},
		},
	}
}

func (w tenantWorkload) opName() string {
	if w.bop != 0 {
		return w.bop.String()
	}
	return w.uop.String()
}

// evalError measures the tenant's average relative error over n draws from
// its current distribution, against the exact operation.
func (w tenantWorkload) evalError(tn *core.Tenant, rng *rand.Rand, progress float64, n int) (float64, error) {
	sum := 0.0
	for i := 0; i < n; i++ {
		x, y := w.sample(rng, progress)
		var approx, exact uint64
		var err error
		if w.bop != 0 {
			approx, err = tn.Binary().Engine().Eval(x, y)
			exact = w.bop.Exact(x, y)
		} else {
			approx, err = tn.Unary().Engine().Eval(x)
			exact = w.uop.Exact(x)
		}
		if err != nil {
			return 0, fmt.Errorf("tenantbench: %s eval(%d,%d): %w", w.name, x, y, err)
		}
		diff := float64(approx) - float64(exact)
		if diff < 0 {
			diff = -diff
		}
		denom := float64(exact)
		if denom < 1 {
			denom = 1
		}
		sum += diff / denom
	}
	return sum / float64(n), nil
}

// runTenantBenchMode runs one full multi-tenant deployment — elastic or
// static — and returns each tenant's average measured error and final
// budget. Both modes are built from scratch with identical seeds, so they
// replay the same operand streams against the same initial equal split; the
// arbiter is the only difference.
func runTenantBenchMode(cfg TenantBenchConfig, elastic bool) (errs map[string]float64, budgets map[string]int, err error) {
	every := 0
	if elastic {
		every = cfg.Every
	}
	// MinMove 6: a binary tenant re-converges for a couple of rounds after
	// every budget change reshapes its side split, so small oscillating
	// moves cost more than their allocation gain is worth.
	reg, err := core.NewRegistry(core.SharedConfig{
		Name:         "tenantbench.calc",
		TotalEntries: cfg.TotalEntries,
		Arbiter:      tenant.ArbiterConfig{Every: every, MinMove: 6},
	})
	if err != nil {
		return nil, nil, err
	}
	workloads := tenantBenchWorkloads()
	share := cfg.TotalEntries / len(workloads)
	tenants := make([]*core.Tenant, len(workloads))
	feedRNGs := make([]*rand.Rand, len(workloads))
	evalRNGs := make([]*rand.Rand, len(workloads))
	for i, w := range workloads {
		c := core.DefaultConfig(cfg.Width)
		c.MonitorEntries = 12
		c.CalcEntries = share
		if w.bop != 0 {
			tenants[i], err = reg.MountBinary(w.name, c, w.bop)
		} else {
			tenants[i], err = reg.MountUnary(w.name, c, w.uop)
		}
		if err != nil {
			return nil, nil, err
		}
		feedRNGs[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)*977))
		evalRNGs[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)*977 + 500009))
	}
	errSums := make([]float64, len(workloads))
	measured := 0
	for round := 0; round < cfg.Rounds; round++ {
		progress := float64(round) / float64(cfg.Rounds-1)
		for i, w := range workloads {
			if w.bop != 0 {
				xs := make([]uint64, cfg.SamplesPerRound)
				ys := make([]uint64, cfg.SamplesPerRound)
				for j := range xs {
					xs[j], ys[j] = w.sample(feedRNGs[i], progress)
				}
				tenants[i].Binary().ObserveAll(xs, ys)
			} else {
				vs := make([]uint64, cfg.SamplesPerRound)
				for j := range vs {
					vs[j], _ = w.sample(feedRNGs[i], progress)
				}
				tenants[i].Unary().ObserveAll(vs)
			}
		}
		if _, err := reg.Sync(); err != nil {
			return nil, nil, err
		}
		if round < cfg.Warmup {
			continue
		}
		measured++
		for i, w := range workloads {
			e, err := w.evalError(tenants[i], evalRNGs[i], progress, cfg.EvalSamples)
			if err != nil {
				return nil, nil, err
			}
			errSums[i] += e
		}
	}
	errs = make(map[string]float64, len(workloads))
	for i, w := range workloads {
		errs[w.name] = errSums[i] / float64(measured)
	}
	return errs, reg.Budgets(), nil
}

// RunTenantBench runs the static and elastic deployments and assembles the
// comparison.
func RunTenantBench(cfg TenantBenchConfig) (*TenantBenchResult, error) {
	staticErrs, staticBudgets, err := runTenantBenchMode(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("static mode: %w", err)
	}
	elasticErrs, elasticBudgets, err := runTenantBenchMode(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("elastic mode: %w", err)
	}
	res := &TenantBenchResult{
		TotalEntries:   cfg.TotalEntries,
		Tenants:        len(tenantBenchWorkloads()),
		Rounds:         cfg.Rounds,
		RebalanceEvery: cfg.Every,
	}
	for _, w := range tenantBenchWorkloads() {
		res.Rows = append(res.Rows, TenantBenchRow{
			Tenant:        w.name,
			Op:            w.opName(),
			StaticBudget:  staticBudgets[w.name],
			ElasticBudget: elasticBudgets[w.name],
			StaticErr:     staticErrs[w.name],
			ElasticErr:    elasticErrs[w.name],
		})
		res.StaticAggregate += staticErrs[w.name]
		res.ElasticAggregate += elasticErrs[w.name]
	}
	res.StaticAggregate /= float64(len(res.Rows))
	res.ElasticAggregate /= float64(len(res.Rows))
	if res.ElasticAggregate > 0 {
		res.Improvement = res.StaticAggregate / res.ElasticAggregate
	}
	return res, nil
}

// RenderTenantBench formats the result.
func RenderTenantBench(res *TenantBenchResult) string {
	t := stats.NewTable(
		fmt.Sprintf("Multi-tenant TCAM sharing: elastic vs static split (%d entries, %d tenants)",
			res.TotalEntries, res.Tenants),
		"tenant", "op", "static budget", "elastic budget", "static err", "elastic err")
	for _, r := range res.Rows {
		t.AddF(r.Tenant, r.Op, r.StaticBudget, r.ElasticBudget,
			fmt.Sprintf("%.4f", r.StaticErr), fmt.Sprintf("%.4f", r.ElasticErr))
	}
	return t.String() + fmt.Sprintf("\naggregate error: static %.4f, elastic %.4f (%.2fx better)\n",
		res.StaticAggregate, res.ElasticAggregate, res.Improvement)
}
