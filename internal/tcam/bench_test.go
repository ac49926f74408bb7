package tcam

import (
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

func benchTable(b *testing.B, entries int) *Table {
	b.Helper()
	tb := MustNew("bench", 0, 32)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < entries; i++ {
		sig := 8 + rng.Intn(24)
		p, err := bitstr.New(rng.Uint64()&0xFFFFFFFF, sig, 32)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tb.InsertPrefix(p, 0, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

func benchKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() & 0xFFFFFFFF
	}
	return keys
}

// scanLookup replicates the pre-index serialized read path: a full linear
// scan over the resolution-ordered entries under the table's write lock.
// The indexed benchmarks below are measured against this baseline.
func scanLookup(tb *Table, keys ...uint64) (*Entry, bool) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for _, e := range tb.ordered {
		if matchAll(e.Fields, keys) {
			return e, true
		}
	}
	return nil, false
}

// benchmarkLookup measures a single key resolved as a batch of one, the
// shape of UnaryEngine.Eval and Monitor.Observe.
func benchmarkLookup(b *testing.B, entries int) {
	tb := benchTable(b, entries)
	keys := benchKeys(1024)
	dst, _ := tb.LookupIndexBatch(keys[:1], nil) // compile the index outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(keys)
		dst, _ = tb.LookupIndexBatch(keys[k:k+1], dst)
	}
}

func benchmarkLookupScan(b *testing.B, entries int) {
	tb := benchTable(b, entries)
	keys := benchKeys(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanLookup(tb, keys[i%len(keys)])
	}
}

func BenchmarkLookup128(b *testing.B)  { benchmarkLookup(b, 128) }
func BenchmarkLookup1024(b *testing.B) { benchmarkLookup(b, 1024) }
func BenchmarkLookup8192(b *testing.B) { benchmarkLookup(b, 8192) }

func BenchmarkLookupScan128(b *testing.B)  { benchmarkLookupScan(b, 128) }
func BenchmarkLookupScan1024(b *testing.B) { benchmarkLookupScan(b, 1024) }
func BenchmarkLookupScan8192(b *testing.B) { benchmarkLookupScan(b, 8192) }

// BenchmarkLookupParallel measures concurrent read scaling: the indexed
// path resolves against a shared immutable snapshot, so throughput should
// grow near-linearly with GOMAXPROCS (use -cpu 1,2,4 to see the curve).
func BenchmarkLookupParallel1024(b *testing.B) {
	tb := benchTable(b, 1024)
	keys := benchKeys(1024)
	tb.LookupIndexBatch(keys[:1], nil)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var dst []int32
		i := 0
		for pb.Next() {
			k := i % len(keys)
			dst, _ = tb.LookupIndexBatch(keys[k:k+1], dst)
			i++
		}
	})
}

// BenchmarkLookupBatch1024 resolves the whole 1024-key batch per op against
// one snapshot.
func BenchmarkLookupBatch1024(b *testing.B) {
	tb := benchTable(b, 1024)
	keys := benchKeys(1024)
	dst, _ := tb.LookupIndexBatch(keys, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = tb.LookupIndexBatch(keys, dst)
	}
}

func BenchmarkApplyRowsNoChange(b *testing.B) {
	tb := MustNew("bench", 0, 16)
	rows := make([]Row, 0, 64)
	root, _ := bitstr.Root(16)
	for i, p := range subdivideForBench(root, 64) {
		rows = append(rows, RowFromPrefix(p, uint64(i)))
	}
	if _, err := tb.ApplyRowsAtomic(rows); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.ApplyRowsAtomic(rows); err != nil {
			b.Fatal(err)
		}
	}
}

// subdivideForBench avoids importing population (cycle-free helper).
func subdivideForBench(p bitstr.Prefix, m int) []bitstr.Prefix {
	out := []bitstr.Prefix{p}
	for len(out) < m {
		best, bestWild := -1, 0
		for i, q := range out {
			if q.WildBits() > bestWild {
				best, bestWild = i, q.WildBits()
			}
		}
		if best < 0 {
			break
		}
		l, _ := out[best].Left()
		r, _ := out[best].Right()
		out[best] = l
		out = append(out, r)
	}
	return out
}

// benchTieredPair builds a tiered store (tcamRows hot slots) and a pure
// table holding the same `entries`-row disjoint tiling — the matched
// populations the tiered-vs-table lookup benchmarks compare.
func benchTieredPair(b *testing.B, tcamRows, entries, width int) (*TieredStore, *Table) {
	b.Helper()
	root, err := bitstr.Root(width)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]Row, 0, entries)
	for i, p := range subdivideForBench(root, entries) {
		rows = append(rows, RowFromPrefix(p, uint64(1000+i)))
	}
	ts, err := NewTiered("bench-tiered", tcamRows, 0, width)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ts.ApplyRowsAtomic(rows); err != nil {
		b.Fatal(err)
	}
	tb := MustNew("bench-table", 0, width)
	if _, err := tb.ApplyRowsAtomic(rows); err != nil {
		b.Fatal(err)
	}
	return ts, tb
}

func benchWidthKeys(n, width int) []uint64 {
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() & (1<<uint(width) - 1)
	}
	return keys
}

// benchmarkTieredIndexBatch measures the tiered combined-snapshot ordinal
// path: a 128-row TCAM tier fronting an `entries`-row population, against
// BenchmarkTableIndexBatch* on the identical population in a pure table.
func benchmarkTieredIndexBatch(b *testing.B, entries int) {
	const width = 16
	ts, _ := benchTieredPair(b, 128, entries, width)
	keys := benchWidthKeys(1024, width)
	var dst []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = ts.LookupIndexBatch(keys, dst)
	}
}

func benchmarkTableIndexBatch(b *testing.B, entries int) {
	const width = 16
	_, tb := benchTieredPair(b, 128, entries, width)
	keys := benchWidthKeys(1024, width)
	var dst []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = tb.LookupIndexBatch(keys, dst)
	}
}

func BenchmarkTieredIndexBatch128(b *testing.B)  { benchmarkTieredIndexBatch(b, 128) }
func BenchmarkTieredIndexBatch1280(b *testing.B) { benchmarkTieredIndexBatch(b, 1280) }
func BenchmarkTableIndexBatch128(b *testing.B)   { benchmarkTableIndexBatch(b, 128) }
func BenchmarkTableIndexBatch1280(b *testing.B)  { benchmarkTableIndexBatch(b, 1280) }

// BenchmarkTieredLookup1280 resolves single keys as batches of one against
// the tiered snapshot; like the Table path it must not allocate.
func BenchmarkTieredLookup1280(b *testing.B) {
	const width = 16
	ts, _ := benchTieredPair(b, 128, 1280, width)
	keys := benchWidthKeys(1024, width)
	dst, _ := ts.LookupIndexBatch(keys[:1], nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(keys)
		dst, _ = ts.LookupIndexBatch(keys[k:k+1], dst)
	}
}

// benchCacheBatch draws one skewed 4096-key batch over the bench table's
// 32-bit domain: 7 of 8 draws come from a 64-key hot set, the rest are
// uniform tail — roughly the per-batch repeat mass of a Zipf s≈1.1 stream,
// which is the regime the cache is designed for.
func benchCacheBatch() []uint64 {
	rng := rand.New(rand.NewSource(3))
	hot := make([]uint64, 64)
	for i := range hot {
		hot[i] = rng.Uint64() & 0xFFFFFFFF
	}
	flat := make([]uint64, 4096)
	for i := range flat {
		if rng.Intn(8) > 0 {
			flat[i] = hot[rng.Intn(len(hot))]
		} else {
			flat[i] = rng.Uint64() & 0xFFFFFFFF
		}
	}
	return flat
}

// BenchmarkLookupCacheBatch4096 is the cached typed batch path on a skewed
// stream: one warm LookupCache in front of the compiled table index. Run
// with -benchmem — steady state must report 0 allocs/op; an allocation here
// is a hot-path regression (the CI short-bench job runs exactly this).
func BenchmarkLookupCacheBatch4096(b *testing.B) {
	tb := benchTable(b, 1024)
	flat := benchCacheBatch()
	c := NewLookupCache(tb, 4096)
	var dst []int32
	dst, _ = c.LookupIndexBatch(flat, dst) // warm: compile index, fill cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = c.LookupIndexBatch(flat, dst)
	}
}

// BenchmarkLookupCacheUncached4096 is the same batch resolved directly by
// the store — the baseline the cached benchmark above is read against.
func BenchmarkLookupCacheUncached4096(b *testing.B) {
	tb := benchTable(b, 1024)
	flat := benchCacheBatch()
	var dst []int32
	dst, _ = tb.LookupIndexBatch(flat, dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = tb.LookupIndexBatch(flat, dst)
	}
}

// BenchmarkBuildIndexTiling3840 compiles a 3840-row disjoint tiling of a
// 17-bit domain — the cold tier of a 4096-entry population over a 256-row
// TCAM slice — which takes the predecessor-search range set and no trie.
func BenchmarkBuildIndexTiling3840(b *testing.B) {
	root, _ := bitstr.Root(17)
	tb := MustNew("bench-compile", 0, 17)
	rows := make([]Row, 0, 3840)
	for i, p := range subdivideForBench(root, 3840) {
		rows = append(rows, RowFromPrefix(p, uint64(i)))
	}
	if _, err := tb.ApplyRowsAtomic(rows); err != nil {
		b.Fatal(err)
	}
	ordered := tb.Entries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = buildIndex(0, tb.fieldWidths, ordered, 0)
	}
}

// indexSink keeps the compiler from discarding a benchmarked build.
var indexSink *index
