package tcam

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// assertCachedParity resolves one batch through the cache and directly
// through the store and requires bit-identical ordinals and resolved values
// — the exactness contract the cache advertises.
func assertCachedParity(t *testing.T, c *LookupCache, st Store, flat []uint64) {
	t.Helper()
	got, gpay := c.LookupIndexBatch(flat, nil)
	want, wpay := st.LookupIndexBatch(flat, nil)
	if len(got) != len(want) {
		t.Fatalf("cached batch length %d, uncached %d", len(got), len(want))
	}
	for i := range want {
		gv, gok := gpay.Value(got[i])
		wv, wok := wpay.Value(want[i])
		if got[i] != want[i] || gv != wv || gok != wok {
			t.Fatalf("sample %d: cached (ord %d, val %d/%v) vs uncached (ord %d, val %d/%v)",
				i, got[i], gv, gok, want[i], wv, wok)
		}
	}
}

// skewedBatch draws n keys of the width-bit domain with repeats concentrated
// on a small hot set, the shape the cache is built for.
func skewedBatch(rng *rand.Rand, n, width int) []uint64 {
	mask := uint64(1)<<uint(width) - 1
	hot := make([]uint64, 8)
	for i := range hot {
		hot[i] = rng.Uint64() & mask
	}
	out := make([]uint64, n)
	for i := range out {
		if rng.Intn(4) > 0 {
			out[i] = hot[rng.Intn(len(hot))]
		} else {
			out[i] = rng.Uint64() & mask
		}
	}
	return out
}

// TestLookupCacheDifferentialApplyRows is the core differential: across many
// bulk-committed generations the cached path must stay bit-identical to the
// uncached store, and each committed round must invalidate wholesale.
func TestLookupCacheDifferentialApplyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tb := MustNew("t", 0, 8)
	c := NewLookupCache(tb, 256)
	if !c.Enabled() {
		t.Fatal("cache disabled over a *Table")
	}
	gen0 := tb.Generation()
	for round := 0; round < 64; round++ {
		if _, err := tb.ApplyRowsAtomic(tilingRows(randTiling(rng, 8, 5))); err != nil {
			t.Fatalf("round %d: ApplyRowsAtomic: %v", round, err)
		}
		for b := 0; b < 4; b++ {
			assertCachedParity(t, c, tb, skewedBatch(rng, 512, 8))
		}
	}
	if tb.Generation() == gen0 {
		t.Fatal("64 ApplyRowsAtomic rounds left the generation unchanged")
	}
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatal("skewed batches produced zero cache hits")
	}
	// Every committed round re-bases the cache: at least one invalidation
	// per generation the cache observed.
	if st.Invalidations < 64 {
		t.Fatalf("Invalidations = %d, want >= 64 (one per committed round)", st.Invalidations)
	}
}

// TestLookupCacheApplyDeltaRollback pins the rollback half of the contract:
// a failed delta must not advance the bulk generation, yet the rollback's
// physical writes advance the snapshot generation, so the cache re-bases and
// keeps serving exactly what the store serves.
func TestLookupCacheApplyDeltaRollback(t *testing.T) {
	tab := MustNew("t", 0, 8)
	base := []Row{
		row(0x00, 0xC0, 0, uint64(1)),
		row(0x40, 0xC0, 0, uint64(2)),
		row(0x80, 0xC0, 0, uint64(3)),
		row(0xC0, 0xC0, 0, uint64(4)),
	}
	if _, err := tab.ApplyRowsAtomic(base); err != nil {
		t.Fatal(err)
	}
	c := NewLookupCache(tab, 64)
	batch := []uint64{0x00, 0x41, 0x82, 0xC3, 0x00, 0x41}
	assertCachedParity(t, c, tab, batch) // warm
	assertCachedParity(t, c, tab, batch) // all-hit pass
	gen := tab.Generation()
	inv := c.Stats().Invalidations

	boom := errors.New("row write fault")
	n := 0
	tab.SetWriteHook(func(WriteOp) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	})
	_, err := tab.ApplyDelta(
		[]Row{row(0x40, 0xC0, 0, uint64(20)), row(0x20, 0xE0, 0, uint64(5))},
		[]Row{row(0x00, 0xC0, 0, uint64(1))},
	)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	tab.SetWriteHook(nil)

	if tab.Generation() != gen {
		t.Fatal("rolled-back delta advanced the bulk generation")
	}
	assertCachedParity(t, c, tab, batch)
	if got := c.Stats().Invalidations; got != inv+1 {
		t.Fatalf("Invalidations after rollback = %d, want %d (rollback writes move the snapshot)", got, inv+1)
	}
}

// TestLookupCacheTamperRepair covers the Version-invisible mutations:
// silent tampering must be visible through the cache the instant it lands
// (the snapshot generation moves even though Version does not), and the
// ApplyRowsAtomic repair must restore the pre-tamper results through the
// cache too.
func TestLookupCacheTamperRepair(t *testing.T) {
	tab := MustNew("t", 0, 8)
	expect := []Row{
		row(0x00, 0xC0, 0, uint64(1)),
		row(0x40, 0xC0, 0, uint64(2)),
		row(0x80, 0xC0, 0, uint64(3)),
		row(0xC0, 0xC0, 0, uint64(4)),
	}
	if _, err := tab.ApplyRowsAtomic(expect); err != nil {
		t.Fatal(err)
	}
	c := NewLookupCache(tab, 64)
	batch := []uint64{0x41, 0x41, 0x41, 0x41}
	assertCachedParity(t, c, tab, batch)

	ver := tab.Version()
	if err := tab.TamperData([]Field{{Value: 0x40, Mask: 0xC0}}, 0, uint64(99)); err != nil {
		t.Fatalf("TamperData: %v", err)
	}
	if tab.Version() != ver {
		t.Fatal("tampering advanced Version — the control plane noticed for free")
	}
	ords, pay := c.LookupIndexBatch(batch, nil)
	if v, ok := pay.Value(ords[0]); !ok || v != 99 {
		t.Fatalf("cached lookup after tamper = %d/%v, want tampered 99", v, ok)
	}
	assertCachedParity(t, c, tab, batch)

	writes, err := tab.ApplyRowsAtomic(expect)
	if err != nil || writes == 0 {
		t.Fatalf("repair writes=%d err=%v, want repairs", writes, err)
	}
	ords, pay = c.LookupIndexBatch(batch, nil)
	if v, ok := pay.Value(ords[0]); !ok || v != 2 {
		t.Fatalf("cached lookup after repair = %d/%v, want restored 2", v, ok)
	}
	assertCachedParity(t, c, tab, batch)
}

// TestLookupCacheTieredRebalance pins the tiered re-placement case: moving
// rows between TCAM and SRAM changes every ordinal without advancing
// Version, and the cache must follow the placement, not the Version.
func TestLookupCacheTieredRebalance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := mustTiered(t, 4, 0, 8)
	rows := tilingRows(randTiling(rng, 8, 5))
	for len(rows) <= 4 {
		rows = tilingRows(randTiling(rng, 8, 5))
	}
	if _, err := ts.ApplyRowsAtomic(rows); err != nil {
		t.Fatal(err)
	}
	c := NewLookupCache(ts, 512)
	if !c.Enabled() {
		t.Fatal("cache disabled over a *TieredStore")
	}
	all := make([]uint64, 256)
	for k := range all {
		all[k] = uint64(k)
	}
	assertCachedParity(t, c, ts, all)

	ver := ts.Version()
	flip := uint64(0)
	for round := 0; round < 3; round++ {
		flip = ^flip // alternate which rows look hot, forcing moves
		moves, err := ts.Rebalance(func(fields []Field, _ int) uint64 {
			return fields[0].Value ^ flip
		})
		if err != nil {
			t.Fatalf("Rebalance: %v", err)
		}
		if round > 0 && moves.Promotions == 0 && moves.Demotions == 0 {
			t.Fatalf("round %d: flipped heat produced no tier moves", round)
		}
		assertCachedParity(t, c, ts, all)
	}
	if ts.Version() != ver {
		t.Fatal("tier placement advanced Version")
	}
}

// noSnap hides the Snapshotter surface of a store, modelling a Store
// implementation that cannot be cached.
type noSnap struct{ Store }

// TestLookupCachePassThrough pins the degraded modes: a store without
// LookupSnapshot, or a non-positive size, yields a transparent forwarder.
func TestLookupCachePassThrough(t *testing.T) {
	tb := MustNew("t", 0, 8)
	if _, err := tb.ApplyRowsAtomic([]Row{row(0x00, 0x80, 0, uint64(1)), row(0x80, 0x80, 0, uint64(2))}); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*LookupCache{
		"no-snapshotter": NewLookupCache(noSnap{tb}, 1024),
		"zero-entries":   NewLookupCache(tb, 0),
	} {
		if c.Enabled() {
			t.Fatalf("%s: Enabled() = true", name)
		}
		if c.Len() != 0 {
			t.Fatalf("%s: Len() = %d, want 0", name, c.Len())
		}
		assertCachedParity(t, c, tb, []uint64{0x01, 0x81, 0x01})
		if st := c.Stats(); st != (CacheStats{}) {
			t.Fatalf("%s: pass-through accounted stats %+v", name, st)
		}
	}
}

// TestLookupCacheCachedMiss requires misses (ordinal −1) to be cached like
// hits: a key with no covering entry must not re-search the store on every
// batch just because the answer is "no entry".
func TestLookupCacheCachedMiss(t *testing.T) {
	tb := MustNew("t", 0, 8)
	if _, err := tb.ApplyRowsAtomic([]Row{row(0x00, 0xC0, 0, uint64(1))}); err != nil {
		t.Fatal(err)
	}
	c := NewLookupCache(tb, 64)
	batch := []uint64{0x01, 0xF0, 0xF0} // one hit key, one missing key twice
	ords, _ := c.LookupIndexBatch(batch, nil)
	if ords[1] != -1 || ords[2] != -1 {
		t.Fatalf("miss ordinals = %d,%d, want -1,-1", ords[1], ords[2])
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("first batch stats = %+v, want 0 hits, 3 misses", st)
	}
	ords, _ = c.LookupIndexBatch(batch, nil)
	if ords[0] < 0 || ords[1] != -1 || ords[2] != -1 {
		t.Fatalf("second batch ordinals = %v", ords)
	}
	if st := c.Stats(); st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("second batch stats = %+v, want all three samples served cached", st)
	}
}

// TestLookupCacheBinaryKeys exercises the two-field variant keyed on the
// packed product-grid key pair.
func TestLookupCacheBinaryKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tb := MustNew("t", 0, 4, 4)
	rows := make([]Row, 0, 16)
	for a := uint64(0); a < 4; a++ {
		for b := uint64(0); b < 4; b++ {
			rows = append(rows, Row{
				Fields: []Field{{Value: a << 2, Mask: 0xC}, {Value: b << 2, Mask: 0xC}},
				Data:   a*4 + b,
			})
		}
	}
	if _, err := tb.ApplyRowsAtomic(rows); err != nil {
		t.Fatal(err)
	}
	c := NewLookupCache(tb, 128)
	for pass := 0; pass < 3; pass++ {
		flat := make([]uint64, 2*256)
		for i := 0; i < 256; i++ {
			flat[2*i] = rng.Uint64() & 0xF
			flat[2*i+1] = rng.Uint64() & 0xF
		}
		assertCachedParity(t, c, tb, flat)
	}
	if st := c.Stats(); st.Hits == 0 {
		t.Fatalf("binary batches produced no hits: %+v", st)
	}
}

// TestLookupCacheEviction runs a working set far larger than a single-set
// cache: correctness must survive continuous round-robin eviction.
func TestLookupCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tb := MustNew("t", 0, 8)
	if _, err := tb.ApplyRowsAtomic(tilingRows(randTiling(rng, 8, 5))); err != nil {
		t.Fatal(err)
	}
	c := NewLookupCache(tb, cacheWays) // one set: every insert contends
	if c.Len() != cacheWays {
		t.Fatalf("Len = %d, want %d", c.Len(), cacheWays)
	}
	keys := make([]uint64, 256)
	for k := range keys {
		keys[k] = uint64(k)
	}
	for pass := 0; pass < 4; pass++ {
		assertCachedParity(t, c, tb, keys)
	}
}

// TestLookupCacheConcurrentReaders runs cached readers against control
// rounds committing concurrently. Each reader owns its cache (the documented
// ownership model); the shared table mutates underneath. Readers assert
// internal consistency only — every key of a full tiling must resolve to
// some committed tiling value — and the race detector does the rest.
func TestLookupCacheConcurrentReaders(t *testing.T) {
	tb := MustNew("t", 0, 8)
	rng := rand.New(rand.NewSource(99))
	if _, err := tb.ApplyRowsAtomic(tilingRows(randTiling(rng, 8, 5))); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(seed))
			c := NewLookupCache(tb, 256)
			var dst []int32
			for !stop.Load() {
				batch := skewedBatch(rrng, 256, 8)
				var pay Payloads
				dst, pay = c.LookupIndexBatch(batch, dst)
				for _, ord := range dst {
					v, ok := pay.Value(ord)
					// tilingRows data is 1000+i and a tiling covers the
					// whole domain: every sample must resolve.
					if ord < 0 || !ok || v < 1000 || v >= 1256 {
						select {
						case errc <- errors.New("reader saw inconsistent snapshot"):
						default:
						}
						return
					}
				}
			}
		}(int64(r))
	}

	for round := 0; round < 50; round++ {
		if _, err := tb.ApplyRowsAtomic(tilingRows(randTiling(rng, 8, 5))); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
