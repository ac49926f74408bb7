package core

import (
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/faults"
)

// TestCachedMatchesUncached drives two identically configured unary systems,
// one with a 4096-slot lookup cache and one without, through 500 control
// rounds (60 under -short) of Zipf s = 1.1 operands whose hot set moves every
// 20 rounds, with 20 rounds of uniform operands a third of the way in. Both
// run tiered, audit every 7 rounds, journal, take the same seeded write
// faults, and crash-restart halfway inside a fault-free window. After every
// batch the eval results and miss counts must match; after every round the
// degraded verdicts, calculation fingerprints and monitor registers must
// match, and both restarts must replay the same journal commit. The churn
// must invalidate the cache, the audits must run, the uniform phase must
// make the cache stand aside, and the Zipf phase after it must find the
// cache probing and hitting again, or the soak proved nothing.
func TestCachedMatchesUncached(t *testing.T) {
	const width, calc = 16, 64
	rounds, restartAt := 500, 250
	if testing.Short() {
		rounds, restartAt = 60, 30
	}
	mk := func(cacheEntries int) (*UnarySystem, *faults.Injector) {
		t.Helper()
		cfg := DefaultConfig(width)
		cfg.CalcEntries = calc
		cfg.CalcCapacity = 2 * calc
		cfg.TieredTCAMEntries = calc / 2
		cfg.AuditEvery = 7
		cfg.EnableJournal = true
		cfg.LookupCacheEntries = cacheEntries
		prof, err := faults.ParseProfile("seed=29,write=0.03")
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.MustNew(prof)
		cfg.WrapDriver = inj.Wrap
		sys, err := NewUnary(cfg, arith.OpSquare)
		if err != nil {
			t.Fatal(err)
		}
		return sys, inj
	}
	cached, injC := mk(4096)
	plain, injP := mk(0)

	const max = uint64(1)<<width - 1
	zipf := rand.NewZipf(rand.New(rand.NewSource(48)), 1.1, 1, max)
	uniform := rand.New(rand.NewSource(49))
	uniformFrom, uniformTo := rounds/3, rounds/3+20
	xs := make([]uint64, 512)
	var scC, scP arith.Scratch
	var dstC, dstP []uint64
	var uniformEnd struct{ hits, bypassed uint64 }
	audits := 0
	for round := 0; round < rounds; round++ {
		peak := (uint64(round/20) * 0x9E37) & max
		for b := 0; b < 4; b++ {
			for i := range xs {
				if round >= uniformFrom && round < uniformTo {
					xs[i] = uniform.Uint64() & max
				} else {
					xs[i] = (peak + zipf.Uint64()) & max
				}
			}
			var mC, mP int
			dstC, mC = cached.ObserveEvalAll(dstC, xs, &scC)
			dstP, mP = plain.ObserveEvalAll(dstP, xs, &scP)
			if mC != mP {
				t.Fatalf("round %d: cached misses %d, plain %d", round, mC, mP)
			}
			for i := range dstP {
				if dstC[i] != dstP[i] {
					t.Fatalf("round %d sample %d: cached %d, plain %d", round, i, dstC[i], dstP[i])
				}
			}
		}

		if round == restartAt {
			injC.SetArmed(false)
			injP.SetArmed(false)
			recC, err := cached.Restart()
			if err != nil {
				t.Fatalf("cached restart: %v", err)
			}
			recP, err := plain.Restart()
			if err != nil {
				t.Fatalf("plain restart: %v", err)
			}
			if recC.FullResync || recC.ReplayedRound != recP.ReplayedRound {
				t.Fatalf("round %d: restarts replayed cached %+v, plain %+v; want the same journal commit", round, recC, recP)
			}
			injC.SetArmed(true)
			injP.SetArmed(true)
		}

		repC, err := cached.Sync()
		if err != nil {
			t.Fatal(err)
		}
		repP, err := plain.Sync()
		if err != nil {
			t.Fatal(err)
		}
		if repC.Degraded != repP.Degraded {
			t.Fatalf("round %d: degraded %v vs %v", round, repC.Degraded, repP.Degraded)
		}
		if repC.AuditRan {
			audits++
		}
		if cached.Engine().Store().Fingerprint() != plain.Engine().Store().Fingerprint() {
			t.Fatalf("round %d: calculation fingerprints diverged", round)
		}
		snapC := cached.Controller().Monitor().Snapshot()
		snapP := plain.Controller().Monitor().Snapshot()
		if len(snapC) != len(snapP) {
			t.Fatalf("round %d: %d registers cached, %d plain", round, len(snapC), len(snapP))
		}
		for i := range snapC {
			if snapC[i] != snapP[i] {
				t.Fatalf("round %d: register %d: cached %d, plain %d", round, i, snapC[i], snapP[i])
			}
		}
		if round == uniformTo-1 {
			st := scC.CacheStats()
			uniformEnd.hits, uniformEnd.bypassed = st.Hits, st.Bypassed
		}
	}
	st := scC.CacheStats()
	t.Logf("%d rounds: %d audits, cache %+v; after the uniform phase %d hits, %d bypassed",
		rounds, audits, st, uniformEnd.hits, uniformEnd.bypassed)
	if st.Invalidations == 0 {
		t.Errorf("%d rounds caused no cache invalidations; the churn did not reach the cache", rounds)
	}
	if audits == 0 {
		t.Error("no audit ran")
	}
	if uniformEnd.bypassed == 0 {
		t.Error("the uniform phase never made the cache stand aside")
	}
	if st.Hits <= uniformEnd.hits {
		t.Errorf("no cache hits after the uniform phase (%d at its end, %d at the end)", uniformEnd.hits, st.Hits)
	}
}
