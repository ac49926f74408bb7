package experiments

import (
	"testing"
	"time"
)

// shortFabricBenchConfig is the CI-sized fabric deployment: same shape as
// the committed baseline (crowded ring placement, faulty switches, drifting
// tenants) at a fraction of the round and sample counts.
func shortFabricBenchConfig() FabricBenchConfig {
	return FabricBenchConfig{
		Switches:        16,
		SwitchEntries:   96,
		Tenants:         9,
		Rounds:          12,
		Warmup:          4,
		SamplesPerRound: 250,
		EvalSamples:     250,
		Workers:         4,
		BatchSize:       128,
		RoundDeadline:   25 * time.Millisecond,
		MigrateEvery:    2,
		ArbiterEvery:    2,
		FaultySwitches:  4,
		Seed:            1,
	}
}

// TestFabricBenchElasticBeatsStatic is the fabric acceptance gate: over
// identical streams the elastic fabric (switch-local arbiters + cross-switch
// migration) must beat static equal placement on aggregate error, and the
// modelled round latency under the injected per-switch faults must be
// reported. Short mode runs the reduced CI deployment; the full default is
// the committed baseline.
func TestFabricBenchElasticBeatsStatic(t *testing.T) {
	cfg := DefaultFabricBenchConfig()
	if testing.Short() {
		cfg = shortFabricBenchConfig()
	}
	res, err := RunFabricBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderFabricBench(res))
	if res.Improvement <= 1.0 {
		t.Errorf("elastic aggregate error %.4f not below static %.4f (improvement %.2fx)",
			res.ElasticAggregate, res.StaticAggregate, res.Improvement)
	}
	if res.Migrations < 1 {
		t.Errorf("elastic fabric performed %d migrations, want >= 1", res.Migrations)
	}
	if res.OccupiedElastic < res.OccupiedStatic {
		t.Errorf("elastic fabric occupies %d switches, fewer than static %d",
			res.OccupiedElastic, res.OccupiedStatic)
	}
	if res.StaticLatency.P99Micros <= 0 || res.ElasticLatency.P99Micros <= 0 {
		t.Errorf("p99 round latency not reported: static %v elastic %v",
			res.StaticLatency, res.ElasticLatency)
	}
	if res.StaticLatency.P99Micros < res.StaticLatency.P50Micros ||
		res.ElasticLatency.P99Micros < res.ElasticLatency.P50Micros {
		t.Errorf("latency quantiles out of order: static %+v elastic %+v",
			res.StaticLatency, res.ElasticLatency)
	}
}
