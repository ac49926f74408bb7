package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/faults"
	"github.com/ada-repro/ada/internal/tcam"
	"github.com/ada-repro/ada/internal/trie"
)

// drawRound generates one round of operand traffic. The distribution centre
// drifts over a repeating schedule with runs of stable rounds, so the
// differential covers heavy churn, light churn, and near-converged rounds.
func drawRound(rng *rand.Rand, round, n int) []uint64 {
	mu := float64(2000 + (round/4%13)*4800)
	sigma := 300.0
	out := make([]uint64, n)
	for i := range out {
		v := int64(mu + sigma*rng.NormFloat64())
		if v < 0 {
			v = 0
		}
		if v > 1<<16-1 {
			v = 1<<16 - 1
		}
		out[i] = uint64(v)
	}
	return out
}

// runUnaryDifferential drives an incremental and a full-repopulation unary
// system through identical traffic (and, when prof is non-nil, identical
// injected fault schedules) and requires bit-identical calculation tables
// after every round.
func runUnaryDifferential(t *testing.T, rounds int, mutate func(*Config), prof *faults.Profile) {
	t.Helper()
	build := func(disable bool) *UnarySystem {
		cfg := DefaultConfig(16)
		cfg.MonitorEntries = 8
		cfg.MaxMonitorEntries = 32
		cfg.CalcEntries = 64
		cfg.DisableIncremental = disable
		if mutate != nil {
			mutate(&cfg)
		}
		if prof != nil {
			inj := faults.MustNew(*prof)
			cfg.WrapDriver = inj.Wrap
		}
		sys, err := NewUnary(cfg, arith.OpSquare)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	inc, full := build(false), build(true)
	if inc.Engine().Table().Fingerprint() != full.Engine().Table().Fingerprint() {
		t.Fatal("initial populations differ")
	}
	rng := rand.New(rand.NewSource(1234))
	var degraded, recovered int
	var incComputed, fullComputed int
	prevDegraded := false
	for round := 0; round < rounds; round++ {
		vals := drawRound(rng, round, 400)
		inc.ObserveAll(vals)
		full.ObserveAll(vals)
		ri, err := inc.Sync()
		if err != nil {
			t.Fatalf("round %d: incremental Sync: %v", round, err)
		}
		rf, err := full.Sync()
		if err != nil {
			t.Fatalf("round %d: full Sync: %v", round, err)
		}
		if ri.Degraded != rf.Degraded {
			t.Fatalf("round %d: degraded flags diverge: incremental=%v full=%v (%s vs %s)",
				round, ri.Degraded, rf.Degraded, ri.DegradedReason, rf.DegradedReason)
		}
		if ri.Degraded {
			degraded++
		} else if prevDegraded {
			recovered++
		}
		prevDegraded = ri.Degraded
		incComputed += ri.Computed
		fullComputed += rf.Computed
		gi := inc.Engine().Table().Fingerprint()
		gf := full.Engine().Table().Fingerprint()
		if gi != gf {
			t.Fatalf("round %d: calculation tables diverge (degraded=%v)", round, ri.Degraded)
		}
	}
	if incComputed > fullComputed {
		t.Errorf("incremental computed %d entries, full %d: memo never reused",
			incComputed, fullComputed)
	}
	if prof != nil {
		if degraded == 0 {
			t.Error("chaos run produced no degraded rounds; fault schedule inert")
		}
		if recovered == 0 {
			t.Error("chaos run never recovered from a degraded round")
		}
	}
	t.Logf("rounds=%d degraded=%d recovered=%d computed incremental=%d full=%d",
		rounds, degraded, recovered, incComputed, fullComputed)
}

// TestIncrementalRoundDifferential is the ISSUE 3 acceptance differential:
// the incremental control round must be observationally identical to full
// repopulation at every churn level, across ≥1k randomized rounds.
func TestIncrementalRoundDifferential(t *testing.T) {
	rounds := 1000
	if testing.Short() {
		rounds = 150
	}
	runUnaryDifferential(t, rounds, nil, nil)
}

// TestIncrementalRoundDifferentialChaos layers an injected fault schedule on
// both systems (same seed, same call sequence → identical schedules) so the
// differential crosses degraded rounds, recovery resyncs, and rolled-back
// populates.
func TestIncrementalRoundDifferentialChaos(t *testing.T) {
	rounds := 1000
	if testing.Short() {
		rounds = 150
	}
	prof := faults.Profile{
		Seed:             5,
		WriteFailure:     0.10,
		SnapshotDrop:     0.02,
		SnapshotStale:    0.05,
		OutageProb:       0.02,
		OutageOps:        4,
		CapacityPressure: 0.03,
	}
	runUnaryDifferential(t, rounds, nil, &prof)
}

// TestIncrementalRoundDifferentialEWMA repeats the differential under the
// exponential hit-decay ablation, whose DecayHits call dirties every non-zero
// leaf each round.
func TestIncrementalRoundDifferentialEWMA(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	runUnaryDifferential(t, rounds, func(c *Config) { c.EWMADecay = true }, nil)
}

// TestIncrementalBinaryDifferential runs the same equivalence proof for the
// joint two-operand population, whose memo must survive the post-commit
// populate ordering (the tries commit before the joint build runs).
func TestIncrementalBinaryDifferential(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 60
	}
	build := func(disable bool) *BinarySystem {
		cfg := DefaultConfig(16)
		cfg.MonitorEntries = 6
		cfg.MaxMonitorEntries = 24
		cfg.CalcEntries = 80
		cfg.DisableIncremental = disable
		sys, err := NewBinary(cfg, arith.OpMul)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	inc, full := build(false), build(true)
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < rounds; round++ {
		xs := drawRound(rng, round, 250)
		ys := drawRound(rng, round+7, 250)
		inc.ObserveAll(xs, ys)
		full.ObserveAll(xs, ys)
		if _, err := inc.Sync(); err != nil {
			t.Fatalf("round %d: incremental Sync: %v", round, err)
		}
		if _, err := full.Sync(); err != nil {
			t.Fatalf("round %d: full Sync: %v", round, err)
		}
		if inc.Engine().Table().Fingerprint() != full.Engine().Table().Fingerprint() {
			t.Fatalf("round %d: joint calculation tables diverge", round)
		}
	}
}

// ackDropDriver reports every calculation populate as failed after it
// landed, while *drop is set: the dropped-ack fault, scripted.
type ackDropDriver struct {
	controlplane.Driver
	drop *bool
}

func (d *ackDropDriver) PopulateCalc(tr *trie.Trie, budget int) (int, int, error) {
	w, c, err := d.Driver.PopulateCalc(tr, budget)
	if err == nil && *d.drop {
		return 0, 0, errors.New("ack dropped")
	}
	return w, c, err
}

func (d *ackDropDriver) PopulateCalcDelta(tr *trie.Trie, budget int) (int, int, int, error) {
	w, c, r, err := d.Driver.(controlplane.DeltaPopulator).PopulateCalcDelta(tr, budget)
	if err == nil && *d.drop {
		return 0, 0, 0, errors.New("ack dropped")
	}
	return w, c, r, err
}

// TestIncrementalAfterFailedPopulate: a round whose populate fails degrades,
// and the next round builds from a new clone of the same committed trie. The
// incremental table must still match full repopulation, for a unary table
// and for a binary system's joint table (only y sees traffic, so y's clones
// alone decide the joint build), whether the failed populate rolled back (a
// row write failed) or landed with its ack dropped. Two sequences:
//   - collide: with the bin layout pinned, both rounds' clones change the
//     same leaves to different hit masses, so the second clone's build must
//     not pass for the one already in the table;
//   - return: the failed round reshapes towards one hot bin, and the next
//     round brings every other bin back to its committed count, so the
//     failed round's masses must not be reused for bins the new clone's
//     dirty set does not cover.
func TestIncrementalAfterFailedPopulate(t *testing.T) {
	uniform := func(lo, hi int) func(*rand.Rand) []uint64 {
		return func(rng *rand.Rand) []uint64 {
			vs := make([]uint64, 4000)
			for i := range vs {
				vs[i] = uint64(lo + rng.Intn(hi-lo))
			}
			return vs
		}
	}
	// perBin spreads counts[b] values evenly over the b-th of the eight
	// initial bins.
	perBin := func(counts ...int) func(*rand.Rand) []uint64 {
		return func(*rand.Rand) []uint64 {
			var vs []uint64
			for b, n := range counts {
				for j := 0; j < n; j++ {
					vs = append(vs, uint64(b<<13+j*(1<<13)/n))
				}
			}
			return vs
		}
	}
	type round struct {
		draw func(*rand.Rand) []uint64
		fail bool
	}
	sequences := []struct {
		name   string
		pinned bool // never reshape or grow: only hit masses move
		rounds []round
	}{
		{"collide", true, []round{
			{uniform(0, 1<<16), false},
			{uniform(0, 1<<13), true},
			{uniform(60000, 1<<16), false},
		}},
		{"return", false, []round{
			{perBin(500, 500, 500, 500, 500, 500, 500, 500), false},
			{perBin(0, 0, 4000, 0, 0, 0, 0, 0), true},
			{perBin(500, 500, 500, 500, 500, 500, 500, 600), false},
		}},
	}
	for _, sq := range sequences {
		for _, arity := range []string{"unary", "binary"} {
			for _, landed := range []bool{false, true} {
				mode := "rolled-back"
				if landed {
					mode = "landed"
				}
				t.Run(sq.name+"/"+arity+"/"+mode, func(t *testing.T) {
					drop := false
					type system interface {
						Sync() (SyncReport, error)
					}
					var (
						observe []func([]uint64)
						tables  []*tcam.Table
						systems []system
					)
					for _, disable := range []bool{false, true} {
						cfg := DefaultConfig(16)
						cfg.MonitorEntries = 8
						cfg.CalcEntries = 128
						if sq.pinned {
							cfg.ThBalance = 1
							cfg.ThExpansion = 0
						}
						cfg.DisableIncremental = disable
						cfg.WrapDriver = func(d controlplane.Driver) controlplane.Driver {
							return &ackDropDriver{Driver: d, drop: &drop}
						}
						if arity == "binary" {
							s, err := NewBinary(cfg, arith.OpMul)
							if err != nil {
								t.Fatal(err)
							}
							observe = append(observe, func(vs []uint64) { s.ObserveAll(nil, vs) })
							tables, systems = append(tables, s.Engine().Table()), append(systems, s)
						} else {
							s, err := NewUnary(cfg, arith.OpSquare)
							if err != nil {
								t.Fatal(err)
							}
							observe = append(observe, s.ObserveAll)
							tables, systems = append(tables, s.Engine().Table()), append(systems, s)
						}
					}
					rng := rand.New(rand.NewSource(1))
					for i, r := range sq.rounds {
						vs := r.draw(rng)
						drop = r.fail && landed
						var hook tcam.WriteHook
						if r.fail && !landed {
							hook = func(tcam.WriteOp) error { return errors.New("injected row-write failure") }
						}
						for j, s := range systems {
							tables[j].SetWriteHook(hook)
							observe[j](vs)
							rep, err := s.Sync()
							if err != nil {
								t.Fatal(err)
							}
							if rep.Degraded != r.fail {
								t.Fatalf("round %d: degraded = %v (%s), want %v", i, rep.Degraded, rep.DegradedReason, r.fail)
							}
							if r.fail && !sq.pinned && rep.Rebalances == 0 {
								t.Fatalf("round %d did not reshape the trie", i)
							}
						}
						if tables[0].Fingerprint() != tables[1].Fingerprint() {
							t.Fatalf("round %d: incremental and full calculation tables diverge", i)
						}
					}
				})
			}
		}
	}
}
