package tcam

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

// randTiling returns a random disjoint prefix tiling of the width-bit domain
// (the shape of every ADA calculation population).
func randTiling(rng *rand.Rand, width, maxDepth int) []bitstr.Prefix {
	root, _ := bitstr.Root(width)
	var out []bitstr.Prefix
	var split func(p bitstr.Prefix, depth int)
	split = func(p bitstr.Prefix, depth int) {
		if p.Bits() < width && depth < maxDepth && (depth == 0 || rng.Intn(3) > 0) {
			l, _ := p.Left()
			r, _ := p.Right()
			split(l, depth+1)
			split(r, depth+1)
			return
		}
		out = append(out, p)
	}
	split(root, 0)
	return out
}

func tilingRows(ps []bitstr.Prefix) []Row {
	rows := make([]Row, len(ps))
	for i, p := range ps {
		rows[i] = RowFromPrefix(p, uint64(1000+i))
	}
	return rows
}

// mustTiered builds a tiered store or fails the test.
func mustTiered(t *testing.T, tcamEntries, capacity int, widths ...int) *TieredStore {
	t.Helper()
	ts, err := NewTiered("tier", tcamEntries, capacity, widths...)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// domainKeys returns every key of a width-bit domain.
func domainKeys(width int) []uint64 {
	keys := make([]uint64, 1<<uint(width))
	for k := range keys {
		keys[k] = uint64(k)
	}
	return keys
}

// assertLookupParity checks every packed key tuple in flat resolves through
// the tiered store — as one full batch and as batches of one — to the same
// winner as the reference scan over a table holding the same population.
func assertLookupParity(t *testing.T, ts *TieredStore, ref *Table, flat []uint64) {
	t.Helper()
	arity := len(ts.FieldWidths())
	ords, pay := ts.LookupIndexBatch(flat, nil)
	for i := range ords {
		keys := flat[i*arity : (i+1)*arity]
		all := ref.LookupAll(keys...)
		one, ok := lookupOne(ts, keys...)
		if ok != (len(all) > 0) || (ords[i] >= 0) != ok {
			t.Fatalf("keys %v: batch ordinal %d, batch-of-one ok=%v, reference matches %d", keys, ords[i], ok, len(all))
		}
		if !ok {
			continue
		}
		want := all[0].Data
		if !dataEqual(one.Data, want) {
			t.Fatalf("keys %v: batch of one %v, reference %v", keys, one.Data, want)
		}
		if v, vok := pay.Value(ords[i]); !vok || v != want.(uint64) {
			t.Fatalf("keys %v: batch payload %v/%v, reference %v", keys, v, vok, want)
		}
	}
}

// TestTieredDifferentialVsTable is the core bit-identity claim: a TieredStore
// with a tiny TCAM slice resolves every key exactly like a pure Table holding
// the same logical population, and fingerprints byte-identically, across
// random populations and incremental churn. The cases drive the SRAM tier
// through each compiled form buildIndex picks for one field: the dense LUT
// (≤16 bits), the direct index (wider), and the trie (nested rows: the
// parents of half the leaves are installed too, and lose LPM to them).
// Each case draws from its own seed, so one case's failure leaves the
// others' inputs unchanged.
func TestTieredDifferentialVsTable(t *testing.T) {
	cases := []struct {
		name     string
		seed     int64
		width    int
		maxDepth int
		nested   bool
		form     func(*index) bool
	}{
		{"lut", 7, 8, 6, false, func(ix *index) bool { return ix.rset != nil && ix.rset.lut != nil }},
		{"direct", 8, 20, 9, false, func(ix *index) bool { return ix.rset != nil && ix.rset.root != nil }},
		{"trie", 9, 8, 6, true, func(ix *index) bool { return ix.rset == nil && ix.root != nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			population := func() []Row {
				ps := randTiling(rng, tc.width, tc.maxDepth)
				for len(ps) < 8 { // leaves fill the 4-row TCAM slice first
					ps = randTiling(rng, tc.width, tc.maxDepth)
				}
				rows := tilingRows(ps)
				if tc.nested {
					seen := make(map[bitstr.Prefix]bool)
					for _, p := range ps[:len(ps)/2] {
						anc, err := p.Parent()
						if err != nil || anc.Bits() == 0 || seen[anc] {
							continue
						}
						seen[anc] = true
						// Priority 1 keeps an ancestor's match key distinct
						// from any leaf's, so sticky placement never keeps
						// a nested row in the TCAM tier across churn.
						rows = append(rows, Row{Fields: []Field{FieldFromPrefix(anc)}, Priority: 1, Data: uint64(5000 + len(seen))})
					}
				}
				return rows
			}
			probes := func(rows []Row) []uint64 {
				if tc.width <= 12 {
					return domainKeys(tc.width)
				}
				var keys []uint64
				for _, r := range rows {
					lo := r.Fields[0].Value
					hi := lo | (lowMask(tc.width) &^ r.Fields[0].Mask)
					keys = append(keys, lo, hi, (lo-1)&lowMask(tc.width), (hi+1)&lowMask(tc.width))
				}
				for i := 0; i < 512; i++ {
					keys = append(keys, rng.Uint64()&lowMask(tc.width))
				}
				return keys
			}
			for trial := 0; trial < 25; trial++ {
				rows := population()
				ts := mustTiered(t, 4, 0, tc.width)
				ref := MustNew("ref", 0, tc.width)
				if _, err := ts.ApplyRowsAtomic(rows); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.ApplyRowsAtomic(rows); err != nil {
					t.Fatal(err)
				}
				if ts.HotLen() > 4 {
					t.Fatalf("hot tier overflowed its budget: %d", ts.HotLen())
				}
				if ts.Len() != len(rows) {
					t.Fatalf("Len = %d, want %d", ts.Len(), len(rows))
				}
				if ts.Fingerprint() != ref.Fingerprint() {
					t.Fatal("fingerprint diverged from reference table")
				}
				if !tc.form(ts.loadSnap().cold) {
					t.Fatalf("SRAM tier did not compile to the %s form", tc.name)
				}
				assertLookupParity(t, ts, ref, probes(rows))

				// Churn: replace with a fresh population via the
				// full-reconcile path and re-check (sticky placement must
				// not corrupt resolution).
				rows2 := population()
				if _, err := ts.ApplyRowsAtomic(rows2); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.ApplyRowsAtomic(rows2); err != nil {
					t.Fatal(err)
				}
				if ts.Fingerprint() != ref.Fingerprint() {
					t.Fatal("fingerprint diverged after churn")
				}
				assertLookupParity(t, ts, ref, probes(rows2))
			}
		})
	}
}

// TestTieredDeltaDifferential drives the same population through ApplyDelta
// on both stores and checks parity, including the conflict path leaving the
// tiered store untouched.
func TestTieredDeltaDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const width = 8
	ps := randTiling(rng, width, 6)
	rows := tilingRows(ps)
	ts := mustTiered(t, 4, 0, width)
	ref := MustNew("ref", 0, width)
	for _, s := range []Store{ts, ref} {
		if _, err := s.ApplyRowsAtomic(rows); err != nil {
			t.Fatal(err)
		}
	}

	// Split one leaf into its two children: delete the parent, insert kids.
	victim := ps[len(ps)/2]
	for victim.Bits() == width {
		victim = ps[rng.Intn(len(ps))]
	}
	l, _ := victim.Left()
	r, _ := victim.Right()
	up := []Row{RowFromPrefix(l, uint64(7001)), RowFromPrefix(r, uint64(7002))}
	del := []Row{RowFromPrefix(victim, nil)}
	for _, s := range []Store{ts, ref} {
		if _, err := s.ApplyDelta(up, del); err != nil {
			t.Fatal(err)
		}
	}
	if ts.Fingerprint() != ref.Fingerprint() {
		t.Fatal("fingerprint diverged after delta")
	}
	assertLookupParity(t, ts, ref, domainKeys(width))

	// Conflict: deleting a row absent from both tiers must refuse and leave
	// the store exactly as it was (fingerprint and contents unchanged).
	before := ts.Fingerprint()
	if _, err := ts.ApplyDelta(nil, []Row{RowFromPrefix(victim, nil)}); !errors.Is(err, ErrDeltaConflict) {
		t.Fatalf("conflicting delete: got %v, want ErrDeltaConflict", err)
	}
	if ts.Fingerprint() != before {
		t.Fatal("failed delta mutated the store")
	}
	assertLookupParity(t, ts, ref, domainKeys(width))
}

// TestTieredDeltaPlacement pins the split rules: deletes consume the TCAM
// tier first, and new rows take free TCAM slots before spilling to SRAM.
func TestTieredDeltaPlacement(t *testing.T) {
	const width = 4
	ts := mustTiered(t, 2, 0, width)
	p := func(s string) bitstr.Prefix {
		pr, err := bitstr.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	rows := []Row{
		RowFromPrefix(p("00xx"), uint64(1)),
		RowFromPrefix(p("01xx"), uint64(2)),
		RowFromPrefix(p("10xx"), uint64(3)),
		RowFromPrefix(p("11xx"), uint64(4)),
	}
	if _, err := ts.ApplyRowsAtomic(rows); err != nil {
		t.Fatal(err)
	}
	if ts.HotLen() != 2 || ts.ColdLen() != 2 {
		t.Fatalf("tiers = %d/%d, want 2/2", ts.HotLen(), ts.ColdLen())
	}
	// Delete a hot row: the freed slot must be taken by the next new row.
	if _, err := ts.ApplyDelta(nil, []Row{RowFromPrefix(p("00xx"), nil)}); err != nil {
		t.Fatal(err)
	}
	if ts.HotLen() != 1 {
		t.Fatalf("hot after hot delete = %d, want 1", ts.HotLen())
	}
	if _, err := ts.ApplyDelta([]Row{RowFromPrefix(p("000x"), uint64(5))}, nil); err != nil {
		t.Fatal(err)
	}
	if ts.HotLen() != 2 || ts.ColdLen() != 2 {
		t.Fatalf("tiers after refill = %d/%d, want 2/2", ts.HotLen(), ts.ColdLen())
	}
	// Hot tier full: another new row must spill cold.
	if _, err := ts.ApplyDelta([]Row{RowFromPrefix(p("001x"), uint64(6))}, nil); err != nil {
		t.Fatal(err)
	}
	if ts.HotLen() != 2 || ts.ColdLen() != 3 {
		t.Fatalf("tiers after spill = %d/%d, want 2/3", ts.HotLen(), ts.ColdLen())
	}
}

// TestTieredCapacity pins the combined budget: the TCAM slice bounds only the
// hot tier, capacity bounds the union, and a refused apply is a no-op.
func TestTieredCapacity(t *testing.T) {
	const width = 4
	ts := mustTiered(t, 2, 3, width)
	rows := tilingRows(randTiling(rand.New(rand.NewSource(3)), width, 2)) // 4 rows at least
	if len(rows) <= 3 {
		t.Fatalf("tiling too small for the test: %d", len(rows))
	}
	var capErr *CapacityError
	if _, err := ts.ApplyRowsAtomic(rows); !errors.As(err, &capErr) {
		t.Fatalf("over-capacity apply: got %v, want CapacityError", err)
	}
	if ts.Len() != 0 {
		t.Fatalf("refused apply installed %d rows", ts.Len())
	}
	if _, err := ts.ApplyRowsAtomic(rows[:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.ApplyDelta(rows[3:4], nil); !errors.As(err, &capErr) {
		t.Fatalf("over-capacity delta: got %v, want CapacityError", err)
	}
	if ts.Len() != 3 {
		t.Fatalf("refused delta changed Len to %d", ts.Len())
	}
	// NewTiered validation.
	if _, err := NewTiered("bad", 0, 0, width); err == nil {
		t.Error("zero TCAM budget accepted")
	}
	if _, err := NewTiered("bad", 8, 4, width); err == nil {
		t.Error("capacity below TCAM budget accepted")
	}
}

// TestTieredRebalance drives placement: hot rows with no heat are demoted in
// favour of hot cold rows, lookups stay bit-identical, a converged pass is a
// no-op, and placement never advances Version.
func TestTieredRebalance(t *testing.T) {
	const width = 8
	rng := rand.New(rand.NewSource(19))
	rows := tilingRows(randTiling(rng, width, 6))
	ts := mustTiered(t, 4, 0, width)
	ref := MustNew("ref", 0, width)
	if _, err := ts.ApplyRowsAtomic(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ApplyRowsAtomic(rows); err != nil {
		t.Fatal(err)
	}
	ts.TakeSRAMWrites()

	// Heat = the row's low interval bound, so the hottest rows are the ones
	// covering the top of the domain — deterministic and mostly not the ones
	// ApplyRowsAtomic placed hot (it fills in row order from the bottom).
	heat := func(fields []Field, _ int) uint64 { return fields[0].Value }
	version := ts.Version()
	moves, err := ts.Rebalance(heat)
	if err != nil {
		t.Fatal(err)
	}
	if moves.Promotions == 0 || moves.Promotions != moves.Demotions {
		t.Fatalf("moves = %+v, want balanced nonzero promotions/demotions", moves)
	}
	if moves.TCAMWrites == 0 {
		t.Fatalf("moves = %+v, want TCAM writes", moves)
	}
	if got := ts.TakeSRAMWrites(); got != moves.Promotions+moves.Demotions {
		t.Fatalf("SRAM writes = %d, want %d", got, moves.Promotions+moves.Demotions)
	}
	if ts.Version() != version {
		t.Fatal("Rebalance advanced Version; placement must be invisible to version guards")
	}
	if ts.Promotions() != uint64(moves.Promotions) || ts.Demotions() != uint64(moves.Demotions) {
		t.Fatal("cumulative move counters diverge from the reported moves")
	}
	if ts.Fingerprint() != ref.Fingerprint() {
		t.Fatal("placement changed the logical population")
	}
	assertLookupParity(t, ts, ref, domainKeys(width))

	// The hottest rows must now be TCAM-resident: a second pass under the
	// same heat is converged — zero moves, zero writes.
	moves2, err := ts.Rebalance(heat)
	if err != nil {
		t.Fatal(err)
	}
	if moves2 != (TierMoves{}) {
		t.Fatalf("converged rebalance moved rows: %+v", moves2)
	}
	if got := ts.TakeSRAMWrites(); got != 0 {
		t.Fatalf("converged rebalance cost %d SRAM writes", got)
	}

	// Hysteresis: uniform heat keeps every incumbent in place.
	moves3, err := ts.Rebalance(func([]Field, int) uint64 { return 42 })
	if err != nil {
		t.Fatal(err)
	}
	if moves3 != (TierMoves{}) {
		t.Fatalf("uniform heat caused churn: %+v", moves3)
	}
}

// TestTieredTamperAudit routes tampering through both tiers and checks the
// read-back fingerprint sees it and ApplyRowsAtomic repairs it.
func TestTieredTamperAudit(t *testing.T) {
	const width = 4
	ts := mustTiered(t, 2, 0, width)
	rows := []Row{
		RowFromPrefix(bitstr.MustNew(0x0, 2, width), uint64(1)),
		RowFromPrefix(bitstr.MustNew(0x4, 2, width), uint64(2)),
		RowFromPrefix(bitstr.MustNew(0x8, 2, width), uint64(3)),
		RowFromPrefix(bitstr.MustNew(0xc, 2, width), uint64(4)),
	}
	if _, err := ts.ApplyRowsAtomic(rows); err != nil {
		t.Fatal(err)
	}
	expect := make([]Row, len(rows))
	copy(expect, rows)
	want := ts.Fingerprint()

	// Corrupt a cold-tier row (rows[2] or [3] spilled) and a hot-tier row.
	if err := ts.TamperData(rows[3].Fields, rows[3].Priority, uint64(99)); err != nil {
		t.Fatal(err)
	}
	if err := ts.TamperData(rows[0].Fields, rows[0].Priority, uint64(98)); err != nil {
		t.Fatal(err)
	}
	// The data plane serves the corruption immediately.
	if e, ok := lookupOne(ts, 0xf); !ok || e.Data.(uint64) != 99 {
		t.Fatalf("cold tamper not served: %v", e)
	}
	if e, ok := lookupOne(ts, 0x0); !ok || e.Data.(uint64) != 98 {
		t.Fatalf("hot tamper not served: %v", e)
	}
	if ts.Fingerprint() == want {
		t.Fatal("fingerprint blind to tampering")
	}
	// Ghost insert and silent delete, then repair everything in one pass.
	if err := ts.TamperInsert([]Field{FieldFromPrefix(bitstr.MustNew(0x2, 3, width))}, 0, uint64(66)); err != nil {
		t.Fatal(err)
	}
	if err := ts.TamperDelete(rows[1].Fields, rows[1].Priority); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.ApplyRowsAtomic(expect); err != nil {
		t.Fatal(err)
	}
	if ts.Fingerprint() != want {
		t.Fatal("repair did not restore the expected population")
	}
	// Tampering an absent row reports ErrNotFound from either tier.
	if err := ts.TamperData([]Field{FieldFromPrefix(bitstr.MustNew(0x3, 4, width))}, 5, uint64(0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tamper missing row: got %v, want ErrNotFound", err)
	}
}

// TestTieredBinaryGridDifferential checks the two-field SRAM tier in each
// compiled form buildIndex picks — the product grid, the trie (an
// all-wildcard row nesting over the product, or non-product rows), and the
// linear scan (a non-prefix mask) — against the reference table.
func TestTieredBinaryGridDifferential(t *testing.T) {
	const w = 3
	pf := func(v uint64, bits int) Field { return FieldFromPrefix(bitstr.MustNew(v, bits, w)) }
	xs := []Field{pf(0, 1), pf(4, 2), pf(6, 2)}
	ys := []Field{pf(0, 2), pf(2, 2), pf(4, 1)}
	var rows []Row
	d := uint64(100)
	for _, x := range xs {
		for _, y := range ys {
			rows = append(rows, Row{Fields: []Field{x, y}, Data: d})
			d++
		}
	}
	check := func(t *testing.T, rows []Row, form func(*index) bool) {
		t.Helper()
		ts := mustTiered(t, 2, 0, w, w)
		ref := MustNew("ref", 0, w, w)
		for _, s := range []Store{ts, ref} {
			if _, err := s.ApplyRowsAtomic(rows); err != nil {
				t.Fatal(err)
			}
		}
		if !form(ts.loadSnap().cold) {
			t.Fatal("SRAM tier compiled to an unexpected form")
		}
		flat := make([]uint64, 0, 2*64)
		for x := uint64(0); x < 8; x++ {
			for y := uint64(0); y < 8; y++ {
				flat = append(flat, x, y)
			}
		}
		assertLookupParity(t, ts, ref, flat)
	}
	t.Run("grid", func(t *testing.T) {
		check(t, rows, func(ix *index) bool { return ix.grid != nil && ix.root == nil })
	})
	t.Run("trie", func(t *testing.T) {
		// An extra all-wildcard row overlaps every x interval, defeating the
		// disjointness precondition of the grid.
		overlap := Row{Fields: []Field{pf(0, 0), pf(0, 0)}, Priority: -1, Data: uint64(9999)}
		check(t, append(append([]Row{}, rows...), overlap), func(ix *index) bool { return ix.grid == nil && ix.root != nil })
	})
	t.Run("non-product", func(t *testing.T) {
		// Disjoint 2-D tiles whose y splits differ per x: the y prefixes
		// nest across x, so no grid compiles.
		np := []Row{
			{Fields: []Field{pf(0, 1), pf(0, 2)}, Data: uint64(1)},
			{Fields: []Field{pf(0, 1), pf(2, 2)}, Data: uint64(2)},
			{Fields: []Field{pf(0, 1), pf(4, 1)}, Data: uint64(3)},
			{Fields: []Field{pf(4, 1), pf(0, 1)}, Data: uint64(4)},
			{Fields: []Field{pf(4, 1), pf(4, 2)}, Data: uint64(5)},
			{Fields: []Field{pf(4, 1), pf(6, 2)}, Data: uint64(6)},
		}
		check(t, np, func(ix *index) bool { return ix.grid == nil && ix.root != nil })
	})
	t.Run("linear-fallback", func(t *testing.T) {
		// Leave a hole in the product and add a non-prefix row (odd x, any
		// y) that serves it: the SRAM tier must scan in resolution order
		// and still agree with the table.
		holed := append([]Row{}, rows[:2]...)
		holed = append(holed, rows[3:]...)
		odd := Row{Fields: []Field{{Value: 1, Mask: 1}, pf(0, 0)}, Priority: -1, Data: uint64(9999)}
		check(t, append(holed, odd), func(ix *index) bool { return ix.rset == nil && ix.grid == nil && ix.root == nil })
	})
}

// TestTieredVersionSemantics pins the Version contract: every Store-API
// mutation attempt bumps it (success or refusal), tampering and placement
// never do.
func TestTieredVersionSemantics(t *testing.T) {
	const width = 4
	ts := mustTiered(t, 2, 3, width)
	rows := []Row{
		RowFromPrefix(bitstr.MustNew(0x0, 2, width), uint64(1)),
		RowFromPrefix(bitstr.MustNew(0x4, 2, width), uint64(2)),
		RowFromPrefix(bitstr.MustNew(0x8, 2, width), uint64(3)),
	}
	v := ts.Version()
	if _, err := ts.ApplyRowsAtomic(rows); err != nil {
		t.Fatal(err)
	}
	if ts.Version() == v {
		t.Fatal("successful apply did not bump Version")
	}
	v = ts.Version()
	if _, err := ts.ApplyDelta(tilingRows([]bitstr.Prefix{bitstr.MustNew(0xc, 2, width), bitstr.MustNew(0x2, 3, width)}), nil); err == nil {
		t.Fatal("over-capacity delta accepted")
	}
	if ts.Version() == v {
		t.Fatal("refused delta did not bump Version (mutation attempts must)")
	}
	v = ts.Version()
	if err := ts.TamperData(rows[0].Fields, rows[0].Priority, uint64(77)); err != nil {
		t.Fatal(err)
	}
	if ts.Version() != v {
		t.Fatal("tamper bumped Version; silent corruption must stay silent")
	}
}
