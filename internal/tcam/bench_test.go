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

// deltaRows returns n distinct single-field rows over 32-bit keys, their
// prefix lengths spread over 20–27 bits so the resolution order interleaves.
func deltaRows(n, from int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		id := uint64(from + i)
		bits := uint(20 + id%8)
		mask := (uint64(1)<<bits - 1) << (32 - bits)
		rows[i] = Row{Fields: []Field{{Value: id << (32 - bits), Mask: mask}}, Data: id}
	}
	return rows
}

// benchmarkApplyDelta commits a 16-row delta — 4 deletes, 4 inserts and 8
// action rewrites — against a store holding n rows. Consecutive deltas swap
// the deleted and inserted rows back and forth, so the store stays at n rows
// and every delta does the same work.
func benchmarkApplyDelta(b *testing.B, st Store, n int) {
	base := deltaRows(n, 0)
	if _, err := st.ApplyRowsAtomic(base); err != nil {
		b.Fatal(err)
	}
	out := base[:4]              // installed at even iterations
	in := deltaRows(4, n)        // installed at odd iterations
	rewrite := base[n/2 : n/2+8] // rewritten every iteration
	upserts := make([]Row, 0, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upserts = upserts[:0]
		for _, r := range rewrite {
			r.Data = uint64(i)
			upserts = append(upserts, r)
		}
		add, del := in, out
		if i%2 == 1 {
			add, del = out, in
		}
		upserts = append(upserts, add...)
		if _, err := st.ApplyDelta(upserts, del); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyDelta1k(b *testing.B)  { benchmarkApplyDelta(b, MustNew("bench", 0, 32), 1024) }
func BenchmarkApplyDelta16k(b *testing.B) { benchmarkApplyDelta(b, MustNew("bench", 0, 32), 16384) }

func BenchmarkApplyDeltaTiered1k(b *testing.B) {
	st, err := NewTiered("bench", 128, 0, 32)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkApplyDelta(b, st, 1024)
}

// BenchmarkRebalance1k re-places a 1024-row tiling over a 128-row TCAM
// slice under a triangular heat peak that advances 32 rows an iteration, so
// every Rebalance promotes and demotes rows.
func BenchmarkRebalance1k(b *testing.B) {
	const width = 16
	ts, _ := benchTieredPair(b, 128, 1024, width)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peak := uint64(i) * 2048
		if _, err := ts.Rebalance(func(fields []Field, _ int) uint64 {
			d := (fields[0].Value - peak) & (1<<width - 1)
			return 1<<width - min(d, 1<<width-d)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// jointAxis tiles an 8-bit field: 32 /5 blocks, or with alt the upper half
// re-tiled as 6 /4, 6 /6 and 4 /7 blocks, so half the blocks differ and
// their prefix lengths mix.
func jointAxis(alt bool) []Field {
	var fs []Field
	v := uint64(0)
	add := func(sig, n int) {
		for ; n > 0; n-- {
			fs = append(fs, Field{Value: v, Mask: 0xff << uint(8-sig) & 0xff})
			v += 1 << uint(8-sig)
		}
	}
	add(5, 16)
	if alt {
		add(4, 6)
		add(6, 6)
		add(7, 4)
	} else {
		add(5, 16)
	}
	return fs
}

// jointRows is the x × y product of xs with the 32 /5 y blocks.
func jointRows(xs []Field) []Row {
	ys := jointAxis(false)
	rows := make([]Row, 0, len(xs)*len(ys))
	for _, x := range xs {
		for _, y := range ys {
			rows = append(rows, Row{Fields: []Field{x, y}, Data: x.Value<<8 | y.Value})
		}
	}
	return rows
}

// BenchmarkApplyDeltaJoint1k commits the joint-table shape of a binary
// system's drifting round: a 1024-row x × y product table of two 8-bit
// fields whose delta deletes the 512 rows of half the x blocks and inserts
// 512 rows of mixed prefix lengths in their place, alternating between the
// two tilings.
func BenchmarkApplyDeltaJoint1k(b *testing.B) {
	base := jointAxis(false)
	tb := MustNew("bench-joint", 0, 8, 8)
	if _, err := tb.ApplyRowsAtomic(jointRows(base)); err != nil {
		b.Fatal(err)
	}
	out, in := jointRows(base[16:]), jointRows(jointAxis(true)[16:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.ApplyDelta(in, out); err != nil {
			b.Fatal(err)
		}
		in, out = out, in
	}
}
