package arith

import (
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/population"
)

func dedupEngines(t *testing.T) (*UnaryEngine, *BinaryEngine) {
	t.Helper()
	uEntries, err := population.NaiveUnaryRange(OpSquare.Func(), 8, 8, 0, 63, population.Midpoint)
	if err != nil {
		t.Fatal(err)
	}
	ue, err := NewUnaryEngine("sq", 8, 8, uEntries)
	if err != nil {
		t.Fatal(err)
	}
	bEntries, err := population.NaiveBinary(OpMul.Func(), 6, 64, population.Midpoint)
	if err != nil {
		t.Fatal(err)
	}
	be, err := NewBinaryEngine("mul", 6, 64, bEntries)
	if err != nil {
		t.Fatal(err)
	}
	return ue, be
}

// TestDedupDifferential pins the cached path to the plain path on
// adversarial batch shapes: all-identical (one key repeated through every
// sample), all-unique (nothing repeats within a batch), operands pinned at
// the domain maximum (saturating results), and miss-heavy batches (half the
// unary domain is unpopulated). Results and per-occurrence miss accounting
// must be bit-identical throughout. The name predates the removal of the
// intra-batch dedup fold, whose repeated-key shapes these were.
func TestDedupDifferential(t *testing.T) {
	ue, be := dedupEngines(t)
	rng := rand.New(rand.NewSource(17))

	batches := map[string]func(n int) []uint64{
		"all-identical": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = 42
			}
			return out
		},
		"all-unique": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = uint64(i) % 256
			}
			return out
		},
		"saturating-max": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = 63 // unary domain max; binary field max via %64
			}
			return out
		},
		"miss-heavy": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = 64 + uint64(rng.Intn(192)) // outside the populated unary range
			}
			return out
		},
		"zipf-ish": func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				if rng.Intn(4) > 0 {
					out[i] = uint64(rng.Intn(4))
				} else {
					out[i] = uint64(rng.Intn(256))
				}
			}
			return out
		},
	}

	var sc Scratch
	sc.EnableCache(ue.Store(), 512)
	var scB Scratch
	scB.EnableCache(be.Store(), 512)
	var dst []uint64
	for name, gen := range batches {
		for _, n := range []int{0, 1, 7, 256, 1000} {
			xs := gen(n)
			want, wantM := ue.EvalBatch(xs)
			var gotM int
			dst, gotM = ue.EvalBatchInto(dst, xs, &sc)
			if gotM != wantM {
				t.Fatalf("%s/n=%d: unary misses %d, want %d", name, n, gotM, wantM)
			}
			for i := range xs {
				if dst[i] != want[i] {
					t.Fatalf("%s/n=%d: unary result[%d] = %d, want %d", name, n, i, dst[i], want[i])
				}
			}

			ys := gen(n)
			for i := range ys {
				ys[i] %= 64
			}
			xb := make([]uint64, n)
			for i := range xb {
				xb[i] = xs[i] % 64
			}
			wantB, wantBM := be.EvalBatch(xb, ys)
			dst, gotM = be.EvalBatchInto(dst, xb, ys, &scB)
			if gotM != wantBM {
				t.Fatalf("%s/n=%d: binary misses %d, want %d", name, n, gotM, wantBM)
			}
			for i := range xb {
				if dst[i] != wantB[i] {
					t.Fatalf("%s/n=%d: binary result[%d] = %d, want %d", name, n, i, dst[i], wantB[i])
				}
			}
		}
	}
	if st := sc.CacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("unary cache stats unexercised: %+v", st)
	}
}

// TestDedupReloadDifferential pins the cached path across population
// changes: every Reload must invalidate transparently.
func TestDedupReloadDifferential(t *testing.T) {
	ue, _ := dedupEngines(t)
	rng := rand.New(rand.NewSource(23))
	var sc Scratch
	sc.EnableCache(ue.Store(), 256)
	var dst []uint64
	for round := 0; round < 8; round++ {
		hi := uint64(32 + rng.Intn(200))
		entries, err := population.NaiveUnaryRange(OpSquare.Func(), 8, 8, 0, hi, population.Midpoint)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ue.Reload(entries); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 3; b++ {
			xs := make([]uint64, 512)
			for i := range xs {
				xs[i] = uint64(rng.Intn(256))
			}
			want, wantM := ue.EvalBatch(xs)
			var gotM int
			dst, gotM = ue.EvalBatchInto(dst, xs, &sc)
			if gotM != wantM {
				t.Fatalf("round %d: misses %d, want %d", round, gotM, wantM)
			}
			for i := range xs {
				if dst[i] != want[i] {
					t.Fatalf("round %d: result[%d] = %d, want %d", round, i, dst[i], want[i])
				}
			}
		}
	}
	if inv := sc.CacheStats().Invalidations; inv < 7 {
		t.Fatalf("Invalidations = %d, want one per Reload", inv)
	}
}

// TestEnableCacheRebind pins the arming semantics: re-arming with the same
// store and size keeps the warm cache; changing either rebinds cold.
func TestEnableCacheRebind(t *testing.T) {
	ue, be := dedupEngines(t)
	var sc Scratch
	sc.EnableCache(ue.Store(), 128)
	xs := []uint64{1, 2, 3, 1, 2, 3}
	ue.EvalBatchInto(nil, xs, &sc)
	ue.EvalBatchInto(nil, xs, &sc)
	st := sc.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("warm repeat produced no hits: %+v", st)
	}
	sc.EnableCache(ue.Store(), 128) // same binding: no-op
	if got := sc.CacheStats(); got != st {
		t.Fatalf("same-binding EnableCache reset stats: %+v vs %+v", got, st)
	}
	sc.EnableCache(be.Store(), 128) // different store: cold rebind
	if got := sc.CacheStats(); got.Hits != 0 || got.Misses != 0 {
		t.Fatalf("rebind kept old stats: %+v", got)
	}
	// An engine the cache is not armed for bypasses it without error.
	ue.EvalBatchInto(nil, xs, &sc)
	if got := sc.CacheStats(); got.Hits != 0 || got.Misses != 0 {
		t.Fatalf("bypassed store accounted into foreign cache: %+v", got)
	}
}

// TestDedupZeroAllocs: an armed cache must stay allocation-free in steady
// state, like the plain EvalBatchInto contract, both while it probes and
// while it stands aside. The one-set cache cannot hold the stream, so after
// one trial window of misses every engine forwards its batches uncached.
func TestDedupZeroAllocs(t *testing.T) {
	ue, be := dedupEngines(t)
	xs := make([]uint64, 1024)
	ys := make([]uint64, 1024)
	rng := rand.New(rand.NewSource(5))
	for i := range xs {
		xs[i] = uint64(rng.Intn(96)) // mix of hits and misses
		ys[i] = uint64(rng.Intn(64))
	}
	for _, slots := range []int{1024, 1} {
		var scU, scB Scratch
		scU.EnableCache(ue.Store(), slots)
		scB.EnableCache(be.Store(), slots)
		var dst []uint64
		for i := 0; i < 32; i++ { // two trial windows
			dst, _ = ue.EvalBatchInto(dst, xs, &scU)
			dst, _ = be.EvalBatchInto(dst, xs, ys, &scB)
		}
		if a := testing.AllocsPerRun(50, func() {
			dst, _ = ue.EvalBatchInto(dst, xs, &scU)
		}); a != 0 {
			t.Fatalf("unary cache (%d slots) AllocsPerRun = %v, want 0", slots, a)
		}
		if a := testing.AllocsPerRun(50, func() {
			dst, _ = be.EvalBatchInto(dst, xs, ys, &scB)
		}); a != 0 {
			t.Fatalf("binary cache (%d slots) AllocsPerRun = %v, want 0", slots, a)
		}
		bypassed := scU.CacheStats().Bypassed > 0 && scB.CacheStats().Bypassed > 0
		if want := slots == 1; bypassed != want {
			t.Fatalf("%d slots: bypassed %v, want %v (unary %+v, binary %+v)",
				slots, bypassed, want, scU.CacheStats(), scB.CacheStats())
		}
	}
}
