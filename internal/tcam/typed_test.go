package tcam

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

// checkIndexBatch resolves every tuple through LookupIndexBatch and fails on
// any divergence from the reference scan, LookupAll, in hit/miss, winner,
// or typed payload.
func checkIndexBatch(t *testing.T, tb *Table, flat []uint64, arity int) {
	t.Helper()
	ords, pay := tb.LookupIndexBatch(flat, nil)
	n := len(flat) / arity
	if len(ords) != n {
		t.Fatalf("LookupIndexBatch returned %d ordinals for %d tuples", len(ords), n)
	}
	for i := 0; i < n; i++ {
		keys := flat[i*arity : (i+1)*arity]
		all := tb.LookupAll(keys...)
		ok := len(all) > 0
		if (ords[i] >= 0) != ok {
			t.Fatalf("tuple %v: ordinal %d, reference ok=%v", keys, ords[i], ok)
		}
		if !ok {
			if pay.Entry(ords[i]) != nil {
				t.Fatalf("tuple %v: miss ordinal resolved an entry", keys)
			}
			continue
		}
		want := all[0]
		got := pay.Entry(ords[i])
		if got == nil || got.ID != want.ID {
			t.Fatalf("tuple %v: typed winner %v, reference winner %d", keys, got, want.ID)
		}
		v, vok := pay.Value(ords[i])
		switch d := want.Data.(type) {
		case uint64:
			if !vok || v != d {
				t.Fatalf("tuple %v: Value=(%d,%v), want (%d,true)", keys, v, vok, d)
			}
		case int:
			if d >= 0 && (!vok || v != uint64(d)) {
				t.Fatalf("tuple %v: Value=(%d,%v), want (%d,true)", keys, v, vok, d)
			}
		}
	}
}

// TestLookupIndexBatchDifferentialFuzz proves the ordinal path bit-identical
// to the reference scan across random one- and two-field tables —
// overlapping and disjoint prefixes, narrow (dense-LUT) and wide
// (direct-indexed) fields alike.
func TestLookupIndexBatchDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 40; trial++ {
		nf := 1 + rng.Intn(2)
		widths := make([]int, nf)
		for i := range widths {
			widths[i] = 1 + rng.Intn(28) // spans the LUT and direct rangeSet forms
		}
		tb := randomPrefixTable(t, rng, 1+rng.Intn(150), widths...)
		flat := make([]uint64, 300*nf)
		for i := range flat {
			flat[i] = rng.Uint64() & lowMask(widths[i%nf])
		}
		checkIndexBatch(t, tb, flat, nf)
	}
}

// tileTable installs a disjoint full cover of the width-bit domain with
// 1<<depth leaves, data = leaf index as uint64.
func tileTable(t *testing.T, width, depth int) *Table {
	t.Helper()
	tb := MustNew("tile", 0, width)
	for i := 0; i < 1<<depth; i++ {
		p := bitstr.MustNew(uint64(i)<<uint(width-depth), depth, width)
		if _, err := tb.InsertPrefix(p, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestLookupIndexBatchProductGrid covers the two-field product compilation
// the joint binary populations hit: disjoint X and Y tilings crossed into
// pair entries, with some pairs deliberately absent (grid holes must miss).
func TestLookupIndexBatchProductGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const wx, wy, dx, dy = 10, 8, 3, 2
	tb := MustNew("product", 0, wx, wy)
	seq := 0
	for i := 0; i < 1<<dx; i++ {
		for j := 0; j < 1<<dy; j++ {
			if i == 2 && j == 1 {
				continue // hole: this prefix pair has no entry
			}
			px := bitstr.MustNew(uint64(i)<<uint(wx-dx), dx, wx)
			py := bitstr.MustNew(uint64(j)<<uint(wy-dy), dy, wy)
			fields := []Field{FieldFromPrefix(px), FieldFromPrefix(py)}
			if _, err := tb.Insert(fields, 0, uint64(seq)); err != nil {
				t.Fatal(err)
			}
			seq++
		}
	}
	if ix := tb.loadIndex(); ix.grid == nil {
		t.Fatal("product table did not compile to the grid fast path")
	}
	flat := make([]uint64, 2*500)
	for i := 0; i < 500; i++ {
		flat[2*i] = rng.Uint64() & lowMask(wx)
		flat[2*i+1] = rng.Uint64() & lowMask(wy)
	}
	checkIndexBatch(t, tb, flat, 2)
	// The hole must miss on both paths.
	hx := uint64(2) << uint(wx-dx)
	hy := uint64(1) << uint(wy-dy)
	if _, ok := lookupOne(tb, hx, hy); ok {
		t.Fatal("grid hole resolved an entry")
	}
	ords, _ := tb.LookupIndexBatch([]uint64{hx, hy}, nil)
	if ords[0] >= 0 {
		t.Fatalf("grid hole resolved ordinal %d", ords[0])
	}
}

// TestGridRejectsNestedPrefixes: a two-field table whose X prefixes nest
// must refuse the grid compilation and fall back to the trie, still
// resolving identically to the reference scan.
func TestGridRejectsNestedPrefixes(t *testing.T) {
	tb := MustNew("nested", 0, 8, 8)
	px1 := bitstr.MustNew(0x80, 1, 8) // 1xxxxxxx
	px2 := bitstr.MustNew(0xC0, 2, 8) // 11xxxxxx — nested in px1
	py := bitstr.MustNew(0x00, 1, 8)
	if _, err := tb.Insert([]Field{FieldFromPrefix(px1), FieldFromPrefix(py)}, 0, uint64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert([]Field{FieldFromPrefix(px2), FieldFromPrefix(py)}, 0, uint64(2)); err != nil {
		t.Fatal(err)
	}
	if ix := tb.loadIndex(); ix.grid != nil {
		t.Fatal("nested X prefixes compiled to a grid")
	}
	for key := uint64(0); key < 256; key++ {
		got, ok := lookupOne(tb, key, 0x01)
		all := tb.LookupAll(key, 0x01)
		if (len(all) > 0) != ok {
			t.Fatalf("key %#x: ok=%v, reference %d", key, ok, len(all))
		}
		if ok && got.ID != all[0].ID {
			t.Fatalf("key %#x: winner %d, reference %d", key, got.ID, all[0].ID)
		}
	}
	flat := make([]uint64, 0, 512)
	for key := uint64(0); key < 256; key++ {
		flat = append(flat, key, 0x01)
	}
	checkIndexBatch(t, tb, flat, 2)
}

// TestLookupIndexBatchUntypedData: non-integral action data disables the
// dense payload but the ordinal path must still return the right entries.
func TestLookupIndexBatchUntypedData(t *testing.T) {
	tb := MustNew("untyped", 0, 8)
	for i := 0; i < 4; i++ {
		p := bitstr.MustNew(uint64(i)<<6, 2, 8)
		if _, err := tb.InsertPrefix(p, 0, fmt.Sprintf("bin-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ords, pay := tb.LookupIndexBatch([]uint64{0x00, 0x40, 0x80, 0xC0}, nil)
	if pay.Typed() {
		t.Fatal("string action data reported a typed payload")
	}
	for i, ord := range ords {
		if ord < 0 {
			t.Fatalf("key %d missed a full cover", i)
		}
		if _, ok := pay.Value(ord); ok {
			t.Fatalf("key %d: Value resolved non-integral data", i)
		}
		e := pay.Entry(ord)
		if e == nil || e.Data != fmt.Sprintf("bin-%d", i) {
			t.Fatalf("key %d: entry %v", i, e)
		}
	}
}

// TestLookupHighBitsIgnored pins the masking contract: key bits above the
// field width are ignored identically by the reference scan, the dense LUT,
// and the wide-field range search.
func TestLookupHighBitsIgnored(t *testing.T) {
	for _, width := range []int{8, 20} { // LUT form and range form
		tb := tileTable(t, width, 3)
		for probe := 0; probe < 64; probe++ {
			low := uint64(probe) << uint(width-6)
			key := low | (uint64(probe+1) << uint(width)) // garbage above width
			want := tb.LookupAll(key)
			if len(want) == 0 {
				t.Fatalf("width %d key %#x: reference scan missed a full cover", width, key)
			}
			if got, ok := lookupOne(tb, key); !ok || got.ID != want[0].ID {
				t.Fatalf("width %d key %#x: ordinal path (%v,%v), reference winner %d", width, key, got, ok, want[0].ID)
			}
		}
	}
}

// TestLookupIndexBatchLUTMatchesReference cross-checks the dense-LUT form
// against the reference scan on a table that compiles to it.
func TestLookupIndexBatchLUTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	tb := tileTable(t, 12, 5)
	if ix := tb.loadIndex(); ix.rset == nil || ix.rset.lut == nil {
		t.Fatal("disjoint 12-bit tiling did not compile to the dense LUT")
	}
	keys := make([]uint64, 2048)
	for i := range keys {
		keys[i] = rng.Uint64() & lowMask(12)
	}
	checkIndexBatch(t, tb, keys, 1)
}

// TestRangeSetRejectsOverlapSingleField: nested single-field prefixes must
// keep the trie (LPM semantics) and still agree with the reference.
func TestRangeSetRejectsOverlapSingleField(t *testing.T) {
	tb := MustNew("overlap", 0, 8)
	if _, err := tb.InsertPrefix(bitstr.MustNew(0x80, 1, 8), 0, uint64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InsertPrefix(bitstr.MustNew(0xC0, 2, 8), 0, uint64(2)); err != nil {
		t.Fatal(err)
	}
	if ix := tb.loadIndex(); ix.rset != nil {
		t.Fatal("overlapping prefixes compiled to a range set")
	}
	flat := make([]uint64, 256)
	for i := range flat {
		flat[i] = uint64(i)
	}
	checkIndexBatch(t, tb, flat, 1)
}
