package fabric

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/netsim"
	"github.com/ada-repro/ada/internal/tenant"
)

// BenchmarkShardedIngest is the fabric's replay rate on the elastic fabric
// of the fabric experiment (internal/experiments, `adabench fabric`): 24
// width-16 tenants cycling the skewed trio of ingestSample, ring-placed on
// 64 switches whose 128 entries are split equally among each switch's
// tenants, with the switch-local arbiter and cross-switch migration on, and
// the experiment's 24 rounds of drifting feed and control before the timer
// starts. The experiment's fault injectors are left out: they act on control
// rounds, not on lookups. One op replays a 200000-sample packed stream, a
// random tenant per sample at the final drift, through netsim's sharded
// fan-out with the experiment's 8 workers (-cpu varies the Ps they share),
// each resolving 256-sample batches with ObserveEvalPacked.
func BenchmarkShardedIngest(b *testing.B) {
	const (
		switches, switchEntries, tenants = 64, 128, 24
		rounds, samplesPerRound          = 24, 300
		workers, batch, samples          = 8, 256, 200000
	)
	f, err := New(Config{
		Switches:      switches,
		SwitchEntries: switchEntries,
		Workers:       workers,
		RoundDeadline: 25 * time.Millisecond,
		VNodes:        16,
		TenantArbiter: tenant.ArbiterConfig{Every: 2, MinMove: 6},
		Migration:     MigrationConfig{Every: 2, MaxMoves: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	ring, err := NewRing(switches, 16)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, tenants)
	counts := make([]int, switches)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
		counts[ring.Place(names[i])]++
	}
	ops := [3]arith.UnaryOp{arith.OpSquare, arith.OpRecip, arith.OpSqrt}
	for i, name := range names {
		cfg := core.DefaultConfig(16)
		cfg.MonitorEntries = 10
		cfg.CalcEntries = switchEntries / counts[ring.Place(name)]
		if _, err := f.AddUnary(name, cfg, ops[i%3]); err != nil {
			b.Fatal(err)
		}
	}

	sr := netsim.NewShardedReplay(switches, batch)
	scratch := make([]IngestScratch, workers)
	var snap []int
	route := func(p uint64) int { return snap[p>>32] }
	ingest := func(w, shard int, batch []uint64) { f.ObserveEvalPacked(batch, &scratch[w], nil) }
	feed := make([]*rand.Rand, tenants)
	for i := range feed {
		feed[i] = rand.New(rand.NewSource(1 + int64(i)*977))
	}
	stream := make([]uint64, 0, samples)
	for round := 0; round < rounds; round++ {
		progress := float64(round) / float64(rounds-1)
		stream = stream[:0]
		for s := 0; s < samplesPerRound; s++ {
			for ti := range names {
				stream = append(stream, Pack(ti, ingestSample(feed[ti], ti, progress)))
			}
		}
		snap = f.RouteSnapshot(snap)
		sr.Replay(workers, stream, route, ingest)
		if _, err := f.SyncAll(context.Background()); err != nil {
			b.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(1 + 999331))
	stream = stream[:0]
	for len(stream) < samples {
		ti := rng.Intn(tenants)
		stream = append(stream, Pack(ti, ingestSample(rng, ti, 1)))
	}
	snap = f.RouteSnapshot(snap)
	sr.Replay(workers, stream, route, ingest)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.Replay(workers, stream, route, ingest)
	}
	b.ReportMetric(float64(b.N*samples)/b.Elapsed().Seconds(), "lookups/s")
}

// ingestSample draws tenant ti's operand at drift progress in [0, 1] from
// the fabric experiment's trio: a square over a triangular range that
// widens with progress (entry-hungry), a reciprocal on a four-value point
// mass (the budget donor), and a square root over a moderately widening
// range. Ranges step up with ti/3, so different switches see different
// loads. It mirrors experiments.fabricWorkloads, which a test inside this
// package cannot import (experiments imports fabric); keep the two in step.
func ingestSample(rng *rand.Rand, ti int, progress float64) uint64 {
	k := ti / 3
	switch ti % 3 {
	case 0:
		return tri(rng, 512+256*k, 4000+int(40000*progress))
	case 1:
		return uint64(16+8*k) + rng.Uint64()%4
	default:
		return tri(rng, 256+128*k, 3000+int(8000*progress))
	}
}

// tri draws from a triangular distribution on [lo, lo+span).
func tri(rng *rand.Rand, lo, span int) uint64 {
	return uint64(lo + rng.Intn(span/2) + rng.Intn(span/2))
}
