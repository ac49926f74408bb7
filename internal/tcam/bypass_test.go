package tcam

import (
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

// driveCache resolves every batch through c and through c's store and fails
// on any difference.
func driveCache(t *testing.T, c *LookupCache, batches [][]uint64) {
	t.Helper()
	for _, flat := range batches {
		assertCachedParity(t, c, c.Store(), flat)
	}
}

// driveUniform resolves n batches of size keys, uniform over a width-bit
// domain, through c as driveCache does, reusing one key buffer.
func driveUniform(t *testing.T, c *LookupCache, rng *rand.Rand, n, size, width int) {
	t.Helper()
	flat := make([]uint64, size)
	for b := 0; b < n; b++ {
		for i := range flat {
			flat[i] = rng.Uint64() & (1<<uint(width) - 1)
		}
		driveCache(t, c, [][]uint64{flat})
	}
}

// TestLookupCacheBypassNeverOnZipf runs a dataplane-shaped stream through a
// 4096-slot cache: 1024-key batches of Zipf s = 1.1 keys over the upper half
// of a width-17 domain, against a 4096-entry tiered population on a 256-row
// TCAM tier, with the hot set shifted and the population recommitted every
// phase. The cache wins every trial window, so it must never stand aside,
// not even in the first window after each invalidation.
func TestLookupCacheBypassNeverOnZipf(t *testing.T) {
	const width, phases, phaseBatches = 17, 8, 64
	root, err := bitstr.Root(width)
	if err != nil {
		t.Fatal(err)
	}
	tiling := subdivideForBench(root, 4096)
	ts := mustTiered(t, 256, 0, width)
	c := NewLookupCache(ts, 4096)
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.1, 1, 1<<(width-1)-1)
	for phase := 0; phase < phases; phase++ {
		rows := make([]Row, len(tiling))
		for i, p := range tiling {
			rows[i] = RowFromPrefix(p, uint64(1000+i+phase))
		}
		if _, err := ts.ApplyRowsAtomic(rows); err != nil {
			t.Fatal(err)
		}
		batches := make([][]uint64, phaseBatches)
		for b := range batches {
			batches[b] = make([]uint64, 1024)
			for i := range batches[b] {
				batches[b][i] = (zipf.Uint64()+uint64(phase*13))&(1<<(width-1)-1) | 1<<(width-1)
			}
		}
		driveCache(t, c, batches)
	}
	st := c.Stats()
	t.Logf("cache %+v, hit ratio %.3f", st, float64(st.Hits)/float64(st.Hits+st.Misses))
	if st.Bypassed != 0 {
		t.Fatalf("Zipf stream bypassed %d lookups, want 0", st.Bypassed)
	}
	if st.Invalidations < phases {
		t.Fatalf("Invalidations = %d, want one per committed phase", st.Invalidations)
	}
}

// TestLookupCacheBypassSchedule runs a serve-shaped stream, 64-key batches
// of uniform keys over a domain sixteen times the cache, and pins the bypass
// schedule in units of W = bypassWindow lookups: each losing trial window
// stands aside for W, 2W, 4W, … lookups, capped at bypassMaxSpan·W, and a
// winning window resets the span to one W. A commit while the cache stands
// aside goes unseen until probing resumes, a forwarded batch allocates
// nothing, and every batch stays bit-identical to the store.
func TestLookupCacheBypassSchedule(t *testing.T) {
	const width, size, w = 16, 64, bypassWindow
	const perWindow = w / size
	tb := MustNew("t", 0, width)
	root, err := bitstr.Root(width)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ApplyRowsAtomic(tilingRows(subdivideForBench(root, 64))); err != nil {
		t.Fatal(err)
	}
	c := NewLookupCache(tb, 4096)
	rng := rand.New(rand.NewSource(7))
	uniform := func(windows int) { t.Helper(); driveUniform(t, c, rng, windows*perWindow, size, width) }
	expect := func(when string, probed, bypassed, span int) {
		t.Helper()
		st := c.Stats()
		if st.Hits+st.Misses != uint64(probed*w) || st.Bypassed != uint64(bypassed*w) || c.span != span {
			t.Fatalf("%s: %+v, span %d; want %d W probed, %d W bypassed, span %d",
				when, st, c.span, probed, bypassed, span)
		}
	}

	// Four losing windows: probe, bypass 1, probe, bypass 2, probe,
	// bypass 4, probe, then 5 of a bypass of 8.
	uniform(16)
	expect("16 W uniform", 4, 12, 16)

	// A commit mid-bypass is not checked for until probing resumes.
	inv := c.Stats().Invalidations
	if _, err := tb.ApplyRowsAtomic(tilingRows(subdivideForBench(root, 128))); err != nil {
		t.Fatal(err)
	}
	uniform(3)
	expect("rest of the bypass", 4, 15, 16)
	if got := c.Stats().Invalidations; got != inv {
		t.Fatalf("bypassed batches checked the generation: %d invalidations, before %d", got, inv)
	}
	driveUniform(t, c, rng, 1, size, width)
	if got := c.Stats().Invalidations; got != inv+1 {
		t.Fatalf("first probed batch after the bypass did not re-base: %d invalidations, before %d", got, inv)
	}
	driveUniform(t, c, rng, perWindow-1, size, width)
	expect("fifth losing window", 5, 15, 32)

	// Bypass 16, lose, bypass 32, lose, bypass 64: the span stays capped.
	uniform(16 + 1 + 32 + 1 + bypassMaxSpan)
	expect("seventh losing window", 7, 15+16+32+bypassMaxSpan, bypassMaxSpan)

	// One winning window resets the span: the next losing one stands aside
	// for one W.
	hot := make([][]uint64, perWindow)
	for i := range hot {
		hot[i] = make([]uint64, size) // key 0 only: every probe after the first hits
	}
	driveCache(t, c, hot)
	expect("winning window", 8, 15+16+32+bypassMaxSpan, 1)
	uniform(2)
	expect("losing window after a win", 9, 16+16+32+bypassMaxSpan, 2)

	// A forwarded batch allocates nothing when the caller recycles its
	// ordinal buffer.
	uniform(1)
	flat := make([]uint64, size)
	dst, _ := c.LookupIndexBatch(flat, nil)
	before := c.Stats().Bypassed
	if a := testing.AllocsPerRun(100, func() { dst, _ = c.LookupIndexBatch(flat, dst) }); a != 0 {
		t.Fatalf("bypassed batch AllocsPerRun = %v, want 0", a)
	}
	if got := c.Stats().Bypassed - before; got != 101*size {
		t.Fatalf("timed batches bypassed %d lookups, want %d", got, 101*size)
	}
}
