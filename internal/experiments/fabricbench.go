package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/fabric"
	"github.com/ada-repro/ada/internal/faults"
	"github.com/ada-repro/ada/internal/netsim"
	"github.com/ada-repro/ada/internal/stats"
	"github.com/ada-repro/ada/internal/tenant"
)

// FabricBenchConfig parameterises the sharded multi-switch experiment:
// dozens of skewed, drifting tenants consistent-hashed across a fabric of
// switches, ingested through the sharded replay fan-out, with per-switch
// control rounds on the fabric's bounded worker pool. The same streams run
// twice — static placement (ring placement, equal per-switch splits, no
// arbitration) versus the elastic fabric (switch-local budget arbiters plus
// cross-switch tenant migration) — and a subset of switches runs behind an
// injected outage/latency fault profile in both modes.
type FabricBenchConfig struct {
	// Switches is the fabric size.
	Switches int
	// SwitchEntries is each switch's physical calculation capacity.
	SwitchEntries int
	// Tenants is the tenant count, consistent-hashed over the switches.
	Tenants int
	// Rounds is the fabric control rounds per mode.
	Rounds int
	// Warmup is the rounds excluded from the error aggregate.
	Warmup int
	// SamplesPerRound is the operands fed per tenant per round.
	SamplesPerRound int
	// EvalSamples is the operands drawn per tenant per measured round for
	// the error estimate.
	EvalSamples int
	// Workers is the fabric's control worker pool and the replay worker
	// count.
	Workers int
	// BatchSize is the sharded-replay flush threshold.
	BatchSize int
	// RoundDeadline bounds each switch round's modelled delay.
	RoundDeadline time.Duration
	// MigrateEvery is the fabric arbiter cadence (elastic mode only).
	MigrateEvery int
	// ArbiterEvery is the switch-local budget arbiter cadence (elastic only).
	ArbiterEvery int
	// FaultySwitches is how many switches (lowest indices) run behind an
	// injected outage+latency driver profile, in both modes.
	FaultySwitches int
	// Seed seeds every stream; both modes replay identical operands.
	Seed int64
}

// DefaultFabricBenchConfig returns the committed-baseline configuration:
// 64 switches × 24 tenants, 8 control/replay workers, 8 faulty switches.
func DefaultFabricBenchConfig() FabricBenchConfig {
	return FabricBenchConfig{
		Switches:        64,
		SwitchEntries:   128,
		Tenants:         24,
		Rounds:          24,
		Warmup:          8,
		SamplesPerRound: 300,
		EvalSamples:     400,
		Workers:         8,
		BatchSize:       256,
		RoundDeadline:   25 * time.Millisecond,
		MigrateEvery:    2,
		ArbiterEvery:    2,
		FaultySwitches:  8,
		Seed:            1,
	}
}

// FabricLatency summarises per-switch round delays across a mode's run
// (occupied switches × rounds). The delays are CostModel figures, not
// clock readings.
type FabricLatency struct {
	P50Micros        float64 `json:"modelled_p50_micros"`
	P99Micros        float64 `json:"modelled_p99_micros"`
	MaxMicros        float64 `json:"modelled_max_micros"`
	DeadlineExceeded int     `json:"deadline_exceeded_rounds"`
	DegradedTenants  int     `json:"degraded_tenant_rounds"`
}

// FabricBenchResult is the benchmark artefact (BENCH_fabric.json).
type FabricBenchResult struct {
	Switches       int `json:"switches"`
	SwitchEntries  int `json:"switch_entries"`
	Tenants        int `json:"tenants"`
	Rounds         int `json:"rounds"`
	Workers        int `json:"workers"`
	MigrateEvery   int `json:"migrate_every"`
	FaultySwitches int `json:"faulty_switches"`
	// OccupiedStatic/OccupiedElastic count switches holding >= 1 tenant at
	// the end of each mode — migrations spread the elastic fabric out.
	OccupiedStatic  int `json:"occupied_switches_static"`
	OccupiedElastic int `json:"occupied_switches_elastic"`
	Migrations      int `json:"migrations"`

	// Aggregate mean relative error across tenants and measured rounds.
	StaticAggregate  float64 `json:"static_aggregate_error"`
	ElasticAggregate float64 `json:"elastic_aggregate_error"`
	// Improvement is StaticAggregate / ElasticAggregate (>1 = elastic wins).
	Improvement float64 `json:"improvement"`

	// Modelled round latency under the injected per-switch faults.
	StaticLatency  FabricLatency `json:"static_round_latency"`
	ElasticLatency FabricLatency `json:"elastic_round_latency"`
}

// fabricWorkload is one tenant's op and drifting operand distribution.
type fabricWorkload struct {
	name   string
	op     arith.UnaryOp
	sample func(rng *rand.Rand, progress float64) uint64
}

// fabricWorkloads builds cfg.Tenants skewed workloads cycling the tenant
// trio (entry-hungry drifting square, near-point-mass recip donor, moderate
// sqrt), with per-tenant ranges spread so different switches see different
// loads. Names are stable, so ring placement — and therefore the crowding
// the elastic fabric must fix — is deterministic. fabric's
// BenchmarkShardedIngest times ingest on the same trio (its ingestSample);
// keep the two in step.
func fabricWorkloads(n int) []fabricWorkload {
	out := make([]fabricWorkload, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%02d", i)
		switch i % 3 {
		case 0: // wide drifting square: keeps needing entries where it has none
			lo := 512 + 256*(i/3)
			out[i] = fabricWorkload{name: name, op: arith.OpSquare,
				sample: func(rng *rand.Rand, progress float64) uint64 {
					hi := 4000 + int(40000*progress)
					return tri(rng, lo, hi)
				}}
		case 1: // near-point mass: the donor
			base := uint64(16 + 8*(i/3))
			out[i] = fabricWorkload{name: name, op: arith.OpRecip,
				sample: func(rng *rand.Rand, progress float64) uint64 {
					return base + rng.Uint64()%4
				}}
		default: // moderate drifting sqrt
			lo := 256 + 128*(i/3)
			out[i] = fabricWorkload{name: name, op: arith.OpSqrt,
				sample: func(rng *rand.Rand, progress float64) uint64 {
					hi := 3000 + int(8000*progress)
					return tri(rng, lo, hi)
				}}
		}
	}
	return out
}

const fabricVNodes = 16

// fabricBenchFabric builds one mode's fabric with per-switch fault
// injectors on the first FaultySwitches switches. The injectors come back
// disarmed so provisioning mounts succeed deterministically; the caller arms
// them once the fleet is placed, so faults hit steady-state control rounds
// (and migrations), not setup.
func fabricBenchFabric(cfg FabricBenchConfig, elastic bool) (*fabric.Fabric, []*faults.Injector, error) {
	injectors := make([]*faults.Injector, cfg.FaultySwitches)
	for i := range injectors {
		prof := faults.OutageProfile()
		prof.Seed = cfg.Seed + int64(i)*131
		injectors[i] = faults.MustNew(prof)
		injectors[i].SetArmed(false)
	}
	fcfg := fabric.Config{
		Switches:      cfg.Switches,
		SwitchEntries: cfg.SwitchEntries,
		Workers:       cfg.Workers,
		RoundDeadline: cfg.RoundDeadline,
		VNodes:        fabricVNodes,
	}
	if elastic {
		fcfg.TenantArbiter = tenant.ArbiterConfig{Every: cfg.ArbiterEvery, MinMove: 6}
		fcfg.Migration = fabric.MigrationConfig{Every: cfg.MigrateEvery, MaxMoves: 2}
	}
	if cfg.FaultySwitches > 0 {
		fcfg.WrapDriver = func(sw int, d controlplane.Driver) controlplane.Driver {
			if sw < len(injectors) {
				return injectors[sw].Wrap(d)
			}
			return d
		}
	}
	f, err := fabric.New(fcfg)
	return f, injectors, err
}

// occupiedCount counts switches holding at least one tenant.
func occupiedCount(f *fabric.Fabric) int {
	seen := make(map[int]bool)
	for _, sw := range f.Placement() {
		seen[sw] = true
	}
	return len(seen)
}

// runFabricBenchMode runs one full deployment and returns the final fabric,
// the aggregate error, latency summary and migration count.
func runFabricBenchMode(cfg FabricBenchConfig, elastic bool) (*fabric.Fabric, float64, FabricLatency, int, error) {
	f, injectors, err := fabricBenchFabric(cfg, elastic)
	if err != nil {
		return nil, 0, FabricLatency{}, 0, err
	}
	workloads := fabricWorkloads(cfg.Tenants)

	// Static placement splits each switch's capacity equally among the
	// tenants the ring put there; elastic starts from the identical split.
	ring, err := fabric.NewRing(cfg.Switches, fabricVNodes)
	if err != nil {
		return nil, 0, FabricLatency{}, 0, err
	}
	counts := make([]int, cfg.Switches)
	for _, w := range workloads {
		counts[ring.Place(w.name)]++
	}
	for _, w := range workloads {
		c := core.DefaultConfig(16)
		c.MonitorEntries = 10
		c.CalcEntries = cfg.SwitchEntries / counts[ring.Place(w.name)]
		if _, err := f.AddUnary(w.name, c, w.op); err != nil {
			return nil, 0, FabricLatency{}, 0, err
		}
	}
	for _, inj := range injectors {
		inj.SetArmed(true)
	}

	feedRNGs := make([]*rand.Rand, len(workloads))
	evalRNGs := make([]*rand.Rand, len(workloads))
	for i := range workloads {
		feedRNGs[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)*977))
		evalRNGs[i] = rand.New(rand.NewSource(cfg.Seed + int64(i)*977 + 500009))
	}

	sr := netsim.NewShardedReplay(cfg.Switches, cfg.BatchSize)
	scratch := make([]fabric.IngestScratch, cfg.Workers)
	var snap []int
	route := func(p uint64) int { return snap[p>>32] }
	stream := make([]uint64, 0, len(workloads)*cfg.SamplesPerRound)

	var delays []time.Duration
	var lat FabricLatency
	migrations := 0
	errSum, measured := 0.0, 0
	ctx := context.Background()
	for round := 0; round < cfg.Rounds; round++ {
		progress := float64(round) / float64(cfg.Rounds-1)
		// Interleave every tenant's round feed into one packed stream and
		// fan it across the fabric.
		stream = stream[:0]
		for s := 0; s < cfg.SamplesPerRound; s++ {
			for ti, w := range workloads {
				stream = append(stream, fabric.Pack(ti, w.sample(feedRNGs[ti], progress)))
			}
		}
		snap = f.RouteSnapshot(snap)
		sr.Replay(cfg.Workers, stream, route, func(w, shard int, batch []uint64) {
			f.ObserveEvalPacked(batch, &scratch[w], nil)
		})

		rep, err := f.SyncAll(ctx)
		if err != nil {
			return nil, 0, FabricLatency{}, 0, err
		}
		migrations += len(rep.Migrations)
		for _, sw := range rep.Switches {
			if sw.Tenants == 0 {
				continue
			}
			delays = append(delays, sw.Delay)
			if sw.DeadlineExceeded {
				lat.DeadlineExceeded++
			}
			lat.DegradedTenants += sw.Degraded
		}

		if round < cfg.Warmup {
			continue
		}
		measured++
		for ti, w := range workloads {
			tn, _, ok := f.Tenant(w.name)
			if !ok {
				return nil, 0, FabricLatency{}, 0, fmt.Errorf("fabricbench: tenant %s lost", w.name)
			}
			sum := 0.0
			for i := 0; i < cfg.EvalSamples; i++ {
				x := w.sample(evalRNGs[ti], progress)
				approx, err := tn.Unary().Engine().Eval(x)
				if err != nil {
					return nil, 0, FabricLatency{}, 0, fmt.Errorf("fabricbench: %s eval(%d): %w", w.name, x, err)
				}
				exact := w.op.Exact(x)
				diff := float64(approx) - float64(exact)
				if diff < 0 {
					diff = -diff
				}
				den := float64(exact)
				if den < 1 {
					den = 1
				}
				sum += diff / den
			}
			errSum += sum / float64(cfg.EvalSamples)
		}
	}

	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	if n := len(delays); n > 0 {
		lat.P50Micros = float64(delays[n/2]) / float64(time.Microsecond)
		lat.P99Micros = float64(delays[n*99/100]) / float64(time.Microsecond)
		lat.MaxMicros = float64(delays[n-1]) / float64(time.Microsecond)
	}
	agg := errSum / float64(measured*len(workloads))
	return f, agg, lat, migrations, nil
}

// RunFabricBench runs the static and elastic fabrics over identical streams
// and assembles the comparison.
func RunFabricBench(cfg FabricBenchConfig) (*FabricBenchResult, error) {
	fStatic, staticAgg, staticLat, _, err := runFabricBenchMode(cfg, false)
	if err != nil {
		return nil, fmt.Errorf("static mode: %w", err)
	}
	fElastic, elasticAgg, elasticLat, migrations, err := runFabricBenchMode(cfg, true)
	if err != nil {
		return nil, fmt.Errorf("elastic mode: %w", err)
	}
	res := &FabricBenchResult{
		Switches:         cfg.Switches,
		SwitchEntries:    cfg.SwitchEntries,
		Tenants:          cfg.Tenants,
		Rounds:           cfg.Rounds,
		Workers:          cfg.Workers,
		MigrateEvery:     cfg.MigrateEvery,
		FaultySwitches:   cfg.FaultySwitches,
		OccupiedStatic:   occupiedCount(fStatic),
		OccupiedElastic:  occupiedCount(fElastic),
		Migrations:       migrations,
		StaticAggregate:  staticAgg,
		ElasticAggregate: elasticAgg,
		StaticLatency:    staticLat,
		ElasticLatency:   elasticLat,
	}
	if res.ElasticAggregate > 0 {
		res.Improvement = res.StaticAggregate / res.ElasticAggregate
	}
	return res, nil
}

// RenderFabricBench formats the result.
func RenderFabricBench(res *FabricBenchResult) string {
	t := stats.NewTable(
		fmt.Sprintf("Sharded fabric: elastic rebalancing vs static placement (%d switches x %d tenants, %d faulty)",
			res.Switches, res.Tenants, res.FaultySwitches),
		"mode", "aggregate err", "occupied", "modelled p50 round", "modelled p99 round", "deadline miss", "degraded")
	t.AddF("static", fmt.Sprintf("%.4f", res.StaticAggregate), res.OccupiedStatic,
		fmt.Sprintf("%.0fus", res.StaticLatency.P50Micros), fmt.Sprintf("%.0fus", res.StaticLatency.P99Micros),
		res.StaticLatency.DeadlineExceeded, res.StaticLatency.DegradedTenants)
	t.AddF("elastic", fmt.Sprintf("%.4f", res.ElasticAggregate), res.OccupiedElastic,
		fmt.Sprintf("%.0fus", res.ElasticLatency.P50Micros), fmt.Sprintf("%.0fus", res.ElasticLatency.P99Micros),
		res.ElasticLatency.DeadlineExceeded, res.ElasticLatency.DegradedTenants)
	out := t.String()
	out += fmt.Sprintf("\nmigrations: %d, improvement: %.2fx better aggregate error\n",
		res.Migrations, res.Improvement)
	return out
}
