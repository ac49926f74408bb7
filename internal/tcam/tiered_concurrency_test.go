package tcam

import (
	"math/rand"
	"sync"
	"testing"
)

// TestTieredConcurrentChurn hammers the tiered lookup — full batches and
// batches of one — (and the lazy rebuildSnap behind it) against concurrent full-population
// ApplyRowsAtomic churn and heat-driven tier moves. Run under -race this is
// the tiered store's data-plane/control-plane isolation proof; without it,
// it still checks every observed snapshot is internally consistent (hits
// resolve to payloads the populations actually install).
func TestTieredConcurrentChurn(t *testing.T) {
	const width = 10
	rng := rand.New(rand.NewSource(41))
	ts := mustTiered(t, 16, 0, width)
	tilings := make([][]Row, 8)
	for i := range tilings {
		tilings[i] = tilingRows(randTiling(rng, width, 7))
	}
	if _, err := ts.ApplyRowsAtomic(tilings[0]); err != nil {
		t.Fatal(err)
	}

	applies := 60
	rebalances := 30
	if testing.Short() {
		applies, rebalances = 20, 10
	}
	done := make(chan struct{})
	var writers, readers sync.WaitGroup

	writers.Add(1)
	go func() { // full-population churn
		defer writers.Done()
		for i := 0; i < applies; i++ {
			if _, err := ts.ApplyRowsAtomic(tilings[i%len(tilings)]); err != nil {
				t.Errorf("apply %d: %v", i, err)
				return
			}
		}
	}()
	writers.Add(1)
	go func() { // heat-driven tier moves
		defer writers.Done()
		for i := 0; i < rebalances; i++ {
			salt := uint64(i)
			heat := func(fields []Field, _ int) uint64 { return fields[0].Value ^ salt }
			if _, err := ts.Rebalance(heat); err != nil {
				t.Errorf("rebalance %d: %v", i, err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(seed int64) { // reader: full batches + batches of one
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			keys := make([]uint64, 256)
			var ordDst []int32
			for {
				select {
				case <-done:
					return
				default:
				}
				for i := range keys {
					keys[i] = rng.Uint64() & (1<<width - 1)
				}
				var pay Payloads
				ordDst, pay = ts.LookupIndexBatch(keys, ordDst)
				for i, k := range keys {
					if e, ok := lookupOne(ts, k); ok {
						if v, vok := e.Data.(uint64); !vok || v < 1000 {
							t.Errorf("lookupOne(%d): payload %v outside population range", k, e.Data)
							return
						}
					}
					if ordDst[i] >= 0 {
						if v, ok := pay.Value(ordDst[i]); !ok || v < 1000 {
							t.Errorf("LookupIndexBatch(%d): payload %v/%v outside population range", k, v, ok)
							return
						}
					}
				}
			}
		}(int64(100 + r))
	}

	writers.Wait()
	close(done)
	readers.Wait()

	// The final state must still resolve bit-identically to a pure table
	// holding the same logical population.
	ref := MustNew("ref", 0, width)
	if _, err := ref.ApplyRowsAtomic(tilings[(applies-1)%len(tilings)]); err != nil {
		t.Fatal(err)
	}
	assertLookupParity(t, ts, ref, domainKeys(width))
}
