package tcam

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

// lookupOne resolves one key tuple as a batch of one through the store's
// LookupIndexBatch and returns the winning snapshot entry. A tuple of the
// wrong arity misses.
func lookupOne(s Store, keys ...uint64) (*Entry, bool) {
	if len(keys) != len(s.FieldWidths()) {
		return nil, false
	}
	ords, pay := s.LookupIndexBatch(keys, nil)
	e := pay.Entry(ords[0])
	return e, e != nil
}

// randomPrefixTable builds a table with n random prefix entries over the
// given field widths (one prefix per field), random priorities.
func randomPrefixTable(t testing.TB, rng *rand.Rand, n int, widths ...int) *Table {
	t.Helper()
	tb := MustNew("fuzz", 0, widths...)
	for i := 0; i < n; i++ {
		fields := make([]Field, len(widths))
		for f, w := range widths {
			p, err := bitstr.New(rng.Uint64()&lowMask(w), rng.Intn(w+1), w)
			if err != nil {
				t.Fatal(err)
			}
			fields[f] = FieldFromPrefix(p)
		}
		if _, err := tb.Insert(fields, rng.Intn(4), i); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestIndexDifferentialSingleField proves the compiled index resolves
// bit-identically to the reference scan on ≥10k random keys across random
// single-field tables — overlapping prefixes (trie) and disjoint ones
// (range sets) alike.
func TestIndexDifferentialSingleField(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keysChecked := 0
	for trial := 0; trial < 40; trial++ {
		width := 1 + rng.Intn(32)
		tb := randomPrefixTable(t, rng, 1+rng.Intn(200), width)
		for probe := 0; probe < 300; probe++ {
			key := rng.Uint64() & lowMask(width)
			got, ok := lookupOne(tb, key)
			all := tb.LookupAll(key)
			if (len(all) > 0) != ok {
				t.Fatalf("width %d key %#x: indexed ok=%v, reference found %d", width, key, ok, len(all))
			}
			if ok && got.ID != all[0].ID {
				t.Fatalf("width %d key %#x: indexed winner %d, reference winner %d", width, key, got.ID, all[0].ID)
			}
			keysChecked++
		}
	}
	if keysChecked < 10000 {
		t.Fatalf("differential covered only %d keys, want >= 10000", keysChecked)
	}
}

// TestIndexDifferentialMultiField runs the same differential over two- and
// three-field tables, where LPM winners combine per-field significant bits.
func TestIndexDifferentialMultiField(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		nf := 2 + rng.Intn(2)
		widths := make([]int, nf)
		for i := range widths {
			widths[i] = 1 + rng.Intn(12)
		}
		tb := randomPrefixTable(t, rng, 1+rng.Intn(150), widths...)
		for probe := 0; probe < 400; probe++ {
			keys := make([]uint64, nf)
			for i, w := range widths {
				keys[i] = rng.Uint64() & lowMask(w)
			}
			got, ok := lookupOne(tb, keys...)
			all := tb.LookupAll(keys...)
			if (len(all) > 0) != ok {
				t.Fatalf("widths %v keys %v: indexed ok=%v, reference found %d", widths, keys, ok, len(all))
			}
			if ok && got.ID != all[0].ID {
				t.Fatalf("widths %v keys %v: indexed winner %d, reference winner %d", widths, keys, got.ID, all[0].ID)
			}
		}
	}
}

// TestIndexFallbackNonPrefixMask: entries with non-contiguous ternary masks
// cannot be trie-compiled; the index must fall back to the resolution-order
// scan and still agree with LookupAll.
func TestIndexFallbackNonPrefixMask(t *testing.T) {
	tb := MustNew("ternary", 0, 8)
	// Match any key whose bit 2 is set, regardless of other bits.
	if _, err := tb.Insert([]Field{{Value: 0b100, Mask: 0b100}}, 0, "bit2"); err != nil {
		t.Fatal(err)
	}
	// And a proper prefix entry that outranks it on significant bits.
	p := bitstr.MustNew(0b10000000, 4, 8)
	if _, err := tb.InsertPrefix(p, 0, "prefix"); err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 256; key++ {
		got, ok := lookupOne(tb, key)
		all := tb.LookupAll(key)
		if (len(all) > 0) != ok {
			t.Fatalf("key %#x: ok=%v, reference %d", key, ok, len(all))
		}
		if ok && got.ID != all[0].ID {
			t.Fatalf("key %#x: indexed %d, reference %d", key, got.ID, all[0].ID)
		}
	}
}

// TestIndexSeesMutations: single-row mutations (insert, update, delete)
// must invalidate the compiled index even though they do not advance the
// bulk-commit generation.
func TestIndexSeesMutations(t *testing.T) {
	tb := MustNew("mut", 0, 4)
	p := bitstr.MustNew(0b0100, 2, 4)
	id, err := tb.InsertPrefix(p, 0, "a")
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := lookupOne(tb, 5); !ok || e.Data.(string) != "a" {
		t.Fatalf("after insert: %v", e)
	}
	if err := tb.UpdateData(id, "b"); err != nil {
		t.Fatal(err)
	}
	if e, ok := lookupOne(tb, 5); !ok || e.Data.(string) != "b" {
		t.Fatalf("after update: %v", e)
	}
	if err := tb.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := lookupOne(tb, 5); ok {
		t.Fatal("lookup hit after delete")
	}
	tb.Clear()
	if _, err := tb.InsertPrefix(p, 0, "c"); err != nil {
		t.Fatal(err)
	}
	if e, ok := lookupOne(tb, 5); !ok || e.Data.(string) != "c" {
		t.Fatalf("after clear+insert: %v", e)
	}
}

// generationRows builds a full 2-bit-domain population whose every entry
// carries the tag, so any lookup reveals which generation served it.
func generationRows(t *testing.T, tag int) []Row {
	t.Helper()
	var rows []Row
	// Alternate the population shape per tag parity so commits genuinely
	// reshape the table rather than only rewriting action data.
	if tag%2 == 0 {
		for v := uint64(0); v < 4; v++ {
			p, err := bitstr.New(v<<2, 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, RowFromPrefix(p, tag))
		}
	} else {
		for v := uint64(0); v < 2; v++ {
			p, err := bitstr.New(v<<3, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, RowFromPrefix(p, tag))
		}
	}
	return rows
}

// TestIndexNoTornGeneration hammers lock-free LookupIndexBatch calls —
// batches of eight and batches of one — against ApplyRowsAtomic/ApplyDelta
// commits. Every committed population tags all
// of its rows with one generation number; a batch resolved against a single
// snapshot must never mix tags, and no lookup may miss (every population
// covers the domain). Run under -race this also proves the read path is
// data-race free against the commit path.
func TestIndexNoTornGeneration(t *testing.T) {
	tb := MustNew("torn", 0, 4)
	if _, err := tb.ApplyRowsAtomic(generationRows(t, 0)); err != nil {
		t.Fatal(err)
	}

	const (
		readers = 4
		rounds  = 400
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			keys := make([]uint64, 8)
			var ords []int32
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range keys {
					keys[i] = rng.Uint64() & 0xF
				}
				var pay Payloads
				ords, pay = tb.LookupIndexBatch(keys, ords)
				tag := -1
				for i, ord := range ords {
					e := pay.Entry(ord)
					if e == nil {
						select {
						case errs <- "lookup miss mid-commit (torn or empty generation)":
						default:
						}
						return
					}
					if i == 0 {
						tag = e.Data.(int)
					} else if e.Data.(int) != tag {
						select {
						case errs <- "one batch served two generations":
						default:
						}
						return
					}
				}
				if e, ok := lookupOne(tb, rng.Uint64()&0xF); !ok || e == nil {
					select {
					case errs <- "single lookup missed a fully covered domain":
					default:
					}
					return
				}
			}
		}(int64(r))
	}

	for tag := 1; tag <= rounds; tag++ {
		rows := generationRows(t, tag)
		var err error
		if tag%2 == 0 {
			_, err = tb.ApplyRowsAtomic(rows)
		} else {
			// Delete the previous (even-tag) population, install this one.
			_, err = tb.ApplyDelta(rows, generationRows(t, tag-1))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestLookupSnapshotStableAcrossUpdate: an entry a lookup returns belongs
// to an immutable snapshot — a subsequent UpdateData must not mutate it
// under the caller.
func TestLookupSnapshotStableAcrossUpdate(t *testing.T) {
	tb := MustNew("snap", 0, 4)
	p := bitstr.MustNew(0b0100, 2, 4)
	id, err := tb.InsertPrefix(p, 0, "old")
	if err != nil {
		t.Fatal(err)
	}
	e, ok := lookupOne(tb, 5)
	if !ok {
		t.Fatal("miss")
	}
	if err := tb.UpdateData(id, "new"); err != nil {
		t.Fatal(err)
	}
	if e.Data.(string) != "old" {
		t.Error("held snapshot entry mutated by UpdateData")
	}
	if e2, _ := lookupOne(tb, 5); e2.Data.(string) != "new" {
		t.Error("fresh lookup does not see the update")
	}
}

// TestCompileFormsSkipTrie pins which compiled form each entry-set shape
// gets: disjoint tilings compile to range sets (LUT at ≤16 bits, the direct
// index above) or the product grid and never build the trie, while nested
// prefixes and non-product two-field sets still do.
func TestCompileFormsSkipTrie(t *testing.T) {
	for _, width := range []int{12, 20} {
		ix := tileTable(t, width, 6).loadIndex()
		if ix.rset == nil || ix.root != nil {
			t.Fatalf("width %d tiling: rset=%v root=%v, want range set and no trie", width, ix.rset != nil, ix.root != nil)
		}
		if narrow := width <= lutMaxBits; (ix.rset.lut != nil) != narrow || (ix.rset.root != nil) == narrow {
			t.Fatalf("width %d tiling: lut=%v direct=%v", width, ix.rset.lut != nil, ix.rset.root != nil)
		}
	}

	nested := MustNew("nested", 0, 8)
	for _, p := range []bitstr.Prefix{bitstr.MustNew(0x80, 1, 8), bitstr.MustNew(0xC0, 2, 8)} {
		if _, err := nested.InsertPrefix(p, 0, uint64(p.Bits())); err != nil {
			t.Fatal(err)
		}
	}
	if ix := nested.loadIndex(); ix.rset != nil || ix.root == nil {
		t.Fatalf("nested prefixes: rset=%v root=%v, want trie only", ix.rset != nil, ix.root != nil)
	}

	grid := MustNew("grid", 0, 4, 4)
	nonProduct := MustNew("non-product", 0, 4, 4)
	for i := uint64(0); i < 4; i++ {
		for j := uint64(0); j < 4; j++ {
			f := []Field{FieldFromPrefix(bitstr.MustNew(i<<2, 2, 4)), FieldFromPrefix(bitstr.MustNew(j<<2, 2, 4))}
			if _, err := grid.Insert(f, 0, i*4+j); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two rows whose Y prefixes nest: the X tiling is disjoint but the set
	// is no product of two disjoint tilings.
	for _, f := range [][]Field{
		{FieldFromPrefix(bitstr.MustNew(0x0, 1, 4)), FieldFromPrefix(bitstr.MustNew(0x0, 1, 4))},
		{FieldFromPrefix(bitstr.MustNew(0x8, 1, 4)), FieldFromPrefix(bitstr.MustNew(0x0, 2, 4))},
	} {
		if _, err := nonProduct.Insert(f, 0, uint64(1)); err != nil {
			t.Fatal(err)
		}
	}
	if ix := grid.loadIndex(); ix.grid == nil || ix.root != nil {
		t.Fatalf("product set: grid=%v root=%v, want grid and no trie", ix.grid != nil, ix.root != nil)
	}
	if ix := nonProduct.loadIndex(); ix.grid != nil || ix.root == nil {
		t.Fatalf("non-product set: grid=%v root=%v, want trie only", ix.grid != nil, ix.root != nil)
	}
}

// TestBuildRangeSetReverseSorted feeds buildRangeSet its spans in
// descending order — the worst case for an insertion sort — in both the LUT
// and the direct-index forms, and checks every key resolves to its span's
// slot, gaps included.
func TestBuildRangeSetReverseSorted(t *testing.T) {
	for _, width := range []int{10, 24} {
		const n = 300
		step := uint64(1) << uint(width) / n
		spans := make([]span, 0, n)
		for i := n - 1; i >= 0; i-- {
			lo := uint64(i) * step
			spans = append(spans, span{lo: lo, hi: lo + step/2, slot: int32(i)})
		}
		rs := buildRangeSet(width, spans)
		if rs == nil {
			t.Fatalf("width %d: disjoint spans rejected", width)
		}
		for i := uint64(0); i < n; i++ {
			lo := i * step
			for _, k := range []uint64{lo, lo + step/4, lo + step/2} {
				if got := rs.resolve(k); got != int32(i) {
					t.Fatalf("width %d key %#x: slot %d, want %d", width, k, got, i)
				}
			}
			if got := rs.resolve(lo + step/2 + 1); got != -1 {
				t.Fatalf("width %d gap key %#x: slot %d, want miss", width, lo+step/2+1, got)
			}
		}
	}
	overlap := []span{{lo: 8, hi: 15, slot: 1}, {lo: 0, hi: 15, slot: 0}}
	if buildRangeSet(8, overlap) != nil {
		t.Fatal("overlapping spans compiled")
	}
}
