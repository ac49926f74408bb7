package population

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/ada-repro/ada/internal/trie"
)

// mutate applies one random leaf-hits / reshape step to tr.
func mutate(tr *trie.Trie, rng *rand.Rand) {
	switch rng.Intn(10) {
	case 0:
		tr.Rebalance(0.2)
	case 1:
		if tr.NumLeaves() < 128 {
			tr.Expand()
		}
	case 2:
		tr.DecayHits()
	case 3:
		tr.ResetHits()
	default:
		hits := make([]uint64, tr.NumLeaves())
		for i := range hits {
			// Zipf-ish skew so rebalances actually fire.
			hits[i] = uint64(rng.Intn(1 + 1000/(1+i*i)))
		}
		if rng.Intn(2) == 0 {
			_ = tr.SetLeafHits(hits)
		} else {
			_ = tr.AddLeafHits(hits)
		}
	}
}

// TestADAAllocateCachedDifferential drives randomized mutation sequences and
// asserts the cached allocator is byte-identical to the plain one at every
// step, across commit cadences and budget changes.
func TestADAAllocateCachedDifferential(t *testing.T) {
	for _, commitEvery := range []int{1, 3, 0} { // 0 = never commit
		rng := rand.New(rand.NewSource(42))
		tr, err := trie.NewInitial(16, 10)
		if err != nil {
			t.Fatal(err)
		}
		var cache AllocCache
		budget := 64
		for step := 0; step < 300; step++ {
			if rng.Intn(4) != 0 { // some rounds observe an unchanged trie
				mutate(tr, rng)
			}
			if rng.Intn(20) == 0 {
				budget = 16 << rng.Intn(4)
			}
			want, err := ADAAllocate(tr, budget)
			if err != nil {
				t.Fatalf("commitEvery=%d step %d: ADAAllocate: %v", commitEvery, step, err)
			}
			got, _, err := ADAAllocateCached(tr, budget, &cache)
			if err != nil {
				t.Fatalf("commitEvery=%d step %d: ADAAllocateCached: %v", commitEvery, step, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("commitEvery=%d step %d: allocations diverge\n got: %v\nwant: %v",
					commitEvery, step, got, want)
			}
			if commitEvery > 0 && step%commitEvery == 0 {
				tr.CommitGeneration()
			}
		}
	}
}

// TestADAAllocateCachedSurvivesForeignCommit covers the memo-staleness
// hazard: the trie commits at a state the cache never saw (e.g. a degraded
// round dropped the shadow trie), so the dirty set no longer describes the
// delta from the cached state and mass reuse must be refused.
func TestADAAllocateCachedSurvivesForeignCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr, err := trie.NewInitial(16, 10)
	if err != nil {
		t.Fatal(err)
	}
	var cache AllocCache
	for step := 0; step < 200; step++ {
		mutate(tr, rng)
		if rng.Intn(3) == 0 {
			// Mutate then commit immediately: the commit point is a state
			// the cache has not observed.
			mutate(tr, rng)
			tr.CommitGeneration()
		}
		want, err := ADAAllocate(tr, 48)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ADAAllocateCached(tr, 48, &cache)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: allocations diverge after foreign commit", step)
		}
	}
}

// TestADAAllocateCachedDiscardedClone covers a rolled-back control round: the
// cache is filled on a shadow clone that is then discarded, and the next
// clone of the same committed trie returns the first clone's changed leaves
// to their committed hit counts. Its dirty set does not cover those leaves,
// so the discarded clone's masses must not be reused.
func TestADAAllocateCachedDiscardedClone(t *testing.T) {
	committed, err := trie.NewInitial(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := committed.SetLeafHits([]uint64{50, 60, 70, 80, 90, 100, 110, 120}); err != nil {
		t.Fatal(err)
	}
	committed.CommitGeneration()
	var cache AllocCache
	discarded := committed.Clone()
	if err := discarded.SetLeafHits([]uint64{50, 60, 70, 80, 900, 800, 700, 600}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ADAAllocateCached(discarded, 32, &cache); err != nil {
		t.Fatal(err)
	}
	next := committed.Clone()
	if err := next.SetLeafHits([]uint64{55, 65, 75, 85, 90, 100, 110, 120}); err != nil {
		t.Fatal(err)
	}
	want, err := ADAAllocate(next, 32)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ADAAllocateCached(next, 32, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("allocation reused a discarded clone's masses\n got: %v\nwant: %v", got, want)
	}
}

func TestADAUnaryMemoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr, err := trie.NewInitial(16, 12)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x uint64) uint64 { return x * x }
	var memo UnaryMemo
	for step := 0; step < 300; step++ {
		if rng.Intn(4) != 0 {
			mutate(tr, rng)
		}
		want, err := ADAUnary(tr, f, 96, Midpoint)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ADAUnaryMemo(tr, f, 96, Midpoint, &memo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Entries, want) {
			t.Fatalf("step %d: memoized entries diverge", step)
		}
		if res.Computed+res.Reused != len(want) {
			t.Fatalf("step %d: computed %d + reused %d != %d entries",
				step, res.Computed, res.Reused, len(want))
		}
		if len(res.Results) != len(want) {
			t.Fatalf("step %d: results map has %d keys, want %d", step, len(res.Results), len(want))
		}
		for _, e := range want {
			if got, ok := res.Results[e.P]; !ok || got != e.Result {
				t.Fatalf("step %d: Results[%v] = %d,%v, want %d", step, e.P, got, ok, e.Result)
			}
		}
		if rng.Intn(3) == 0 {
			tr.CommitGeneration()
		}
	}
}

func TestADAUnaryMemoConvergedRoundComputesNothing(t *testing.T) {
	tr, err := trie.NewInitial(16, 12)
	if err != nil {
		t.Fatal(err)
	}
	hits := make([]uint64, tr.NumLeaves())
	for i := range hits {
		hits[i] = uint64(1 + i*i)
	}
	if err := tr.SetLeafHits(hits); err != nil {
		t.Fatal(err)
	}
	f := func(x uint64) uint64 { return 2 * x }
	var memo UnaryMemo
	first, err := ADAUnaryMemo(tr, f, 64, Midpoint, &memo)
	if err != nil {
		t.Fatal(err)
	}
	if first.Computed == 0 {
		t.Fatal("first build computed nothing")
	}
	tr.CommitGeneration()
	second, err := ADAUnaryMemo(tr, f, 64, Midpoint, &memo)
	if err != nil {
		t.Fatal(err)
	}
	if second.Computed != 0 || !second.AllocReused {
		t.Fatalf("converged round recomputed: computed=%d allocReused=%v",
			second.Computed, second.AllocReused)
	}
	if second.Reused != len(first.Entries) {
		t.Fatalf("converged round reused %d, want %d", second.Reused, len(first.Entries))
	}
}

func TestADABinaryMemoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tx, err := trie.NewInitial(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	ty, err := trie.NewInitial(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x, y uint64) uint64 { return x*1000 + y }
	var memo BinaryMemo
	for step := 0; step < 150; step++ {
		if rng.Intn(3) != 0 {
			mutate(tx, rng)
		}
		if rng.Intn(3) != 0 {
			mutate(ty, rng)
		}
		want, err := ADABinary(tx, ty, f, 100, Midpoint)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ADABinaryMemo(tx, ty, f, 100, Midpoint, &memo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Entries, want) {
			t.Fatalf("step %d: memoized binary entries diverge", step)
		}
		if res.Computed+res.Reused != len(want) {
			t.Fatalf("step %d: computed+reused != entries", step)
		}
		if rng.Intn(3) == 0 {
			tx.CommitGeneration()
		}
		if rng.Intn(3) == 0 {
			ty.CommitGeneration()
		}
	}
	// Converged: no mutation since last build.
	res, err := ADABinaryMemo(tx, ty, f, 100, Midpoint, &memo)
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != 0 || !res.AllocReused {
		t.Fatalf("converged binary round recomputed: computed=%d allocReused=%v",
			res.Computed, res.AllocReused)
	}
}

func TestUnaryMemoRepChangeInvalidates(t *testing.T) {
	tr, err := trie.NewInitial(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetLeafHits([]uint64{5, 9, 100, 3, 7, 1, 0, 44}); err != nil {
		t.Fatal(err)
	}
	f := func(x uint64) uint64 { return x + 1 }
	var memo UnaryMemo
	for _, rep := range []Representative{Midpoint, GeoMean, Midpoint} {
		want, err := ADAUnary(tr, f, 32, rep)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ADAUnaryMemo(tr, f, 32, rep, &memo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Entries, want) {
			t.Fatalf("rep %v: memoized entries diverge", rep)
		}
	}
}
