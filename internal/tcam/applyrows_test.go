package tcam

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

func rowsOf(t *testing.T, data map[string]uint64) []Row {
	t.Helper()
	out := make([]Row, 0, len(data))
	for s, v := range data {
		p, err := bitstr.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, RowFromPrefix(p, v))
	}
	return out
}

func TestApplyRowsIdempotent(t *testing.T) {
	tb := MustNew("t", 8, 3)
	rows := rowsOf(t, map[string]uint64{"0xx": 1, "10x": 2, "11x": 3})
	writes, err := tb.ApplyRowsAtomic(rows)
	if err != nil {
		t.Fatal(err)
	}
	if writes != 3 {
		t.Errorf("initial writes = %d, want 3", writes)
	}
	// Re-applying identical rows must cost nothing.
	writes, err = tb.ApplyRowsAtomic(rows)
	if err != nil {
		t.Fatal(err)
	}
	if writes != 0 {
		t.Errorf("idempotent re-apply writes = %d, want 0", writes)
	}
	if tb.Len() != 3 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestApplyRowsDataOnlyChange(t *testing.T) {
	tb := MustNew("t", 8, 3)
	if _, err := tb.ApplyRowsAtomic(rowsOf(t, map[string]uint64{"0xx": 1, "1xx": 2})); err != nil {
		t.Fatal(err)
	}
	// Same keys, one new result: exactly one action rewrite.
	writes, err := tb.ApplyRowsAtomic(rowsOf(t, map[string]uint64{"0xx": 1, "1xx": 99}))
	if err != nil {
		t.Fatal(err)
	}
	if writes != 1 {
		t.Errorf("data-only change writes = %d, want 1", writes)
	}
	e, ok := lookupOne(tb, 7)
	if !ok || e.Data.(uint64) != 99 {
		t.Fatalf("lookup after update: %v", e)
	}
	if got := tb.Stats().Updates; got != 1 {
		t.Errorf("Updates = %d", got)
	}
}

func TestApplyRowsAddAndRemove(t *testing.T) {
	tb := MustNew("t", 8, 3)
	if _, err := tb.ApplyRowsAtomic(rowsOf(t, map[string]uint64{"0xx": 1, "1xx": 2})); err != nil {
		t.Fatal(err)
	}
	// Split 1xx into 10x/11x: one delete, two inserts, 0xx untouched.
	writes, err := tb.ApplyRowsAtomic(rowsOf(t, map[string]uint64{"0xx": 1, "10x": 4, "11x": 5}))
	if err != nil {
		t.Fatal(err)
	}
	if writes != 3 {
		t.Errorf("writes = %d, want 3 (1 delete + 2 inserts)", writes)
	}
	if tb.Len() != 3 {
		t.Errorf("Len = %d", tb.Len())
	}
	if e, ok := lookupOne(tb, 5); !ok || e.Data.(uint64) != 4 {
		t.Fatalf("lookup 5: %v", e)
	}
}

func TestApplyRowsCapacity(t *testing.T) {
	tb := MustNew("t", 2, 3)
	rows := rowsOf(t, map[string]uint64{"00x": 1, "01x": 2, "1xx": 3})
	if _, err := tb.ApplyRowsAtomic(rows); !errors.Is(err, ErrCapacity) {
		t.Errorf("over-capacity ApplyRowsAtomic error = %v, want ErrCapacity", err)
	}
	if tb.Len() != 0 {
		t.Error("failed ApplyRowsAtomic mutated the table")
	}
}

func TestApplyRowsPriorityIsPartOfKey(t *testing.T) {
	tb := MustNew("t", 8, 3)
	p, _ := bitstr.Parse("0xx")
	if _, err := tb.ApplyRowsAtomic([]Row{{Fields: []Field{FieldFromPrefix(p)}, Priority: 1, Data: uint64(1)}}); err != nil {
		t.Fatal(err)
	}
	// Same match, different priority: a distinct TCAM row (delete + insert).
	writes, err := tb.ApplyRowsAtomic([]Row{{Fields: []Field{FieldFromPrefix(p)}, Priority: 2, Data: uint64(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if writes != 2 {
		t.Errorf("priority change writes = %d, want 2", writes)
	}
}

// TestApplyRowsAtomicRewritesInsertedRows: a full reload through
// ApplyRowsAtomic replaces rows a single-row Insert installed, and an
// over-capacity reload fails without touching them.
func TestApplyRowsAtomicRewritesInsertedRows(t *testing.T) {
	tb := MustNew("t", 4, 3)
	p1, _ := bitstr.Parse("0xx")
	p2, _ := bitstr.Parse("1xx")
	if _, err := tb.InsertPrefix(p1, 0, "old"); err != nil {
		t.Fatal(err)
	}
	writes, err := tb.ApplyRowsAtomic([]Row{RowFromPrefix(p1, "a"), RowFromPrefix(p2, "b")})
	if err != nil {
		t.Fatal(err)
	}
	if writes != 2 { // 1 action rewrite + 1 insert
		t.Errorf("writes = %d, want 2", writes)
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d, want 2", tb.Len())
	}
	e, ok := lookupOne(tb, 6)
	if !ok || e.Data.(string) != "b" {
		t.Fatalf("lookup(6) = %v, want b", e)
	}
	// Over capacity must fail and leave the table unchanged.
	rows := make([]Row, 5)
	for i := range rows {
		rows[i] = RowFromPrefix(p1, i)
	}
	if _, err := tb.ApplyRowsAtomic(rows); !errors.Is(err, ErrCapacity) {
		t.Fatalf("over-capacity ApplyRowsAtomic error = %v, want ErrCapacity", err)
	}
	if tb.Len() != 2 {
		t.Errorf("table mutated by failed ApplyRowsAtomic: Len = %d", tb.Len())
	}
}

// Property: ApplyRowsAtomic reaches the same end state as a full rewrite
// (delete every installed row, insert every new one) for random row sets,
// with never more writes.
func TestQuickApplyRowsAtomicMatchesFullRewrite(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		width := 4 + rng.Intn(8)
		mkRows := func() []Row {
			n := 1 + rng.Intn(12)
			seen := make(map[string]bool)
			var out []Row
			for i := 0; i < n; i++ {
				sig := rng.Intn(width + 1)
				m := (uint64(1) << uint(width)) - 1
				p, err := bitstr.New(rng.Uint64()&m, sig, width)
				if err != nil {
					t.Fatal(err)
				}
				if seen[p.String()] {
					continue
				}
				seen[p.String()] = true
				out = append(out, RowFromPrefix(p, uint64(rng.Intn(4))))
			}
			return out
		}
		first, second := mkRows(), mkRows()

		a := MustNew("a", 0, width)
		if _, err := a.ApplyRowsAtomic(first); err != nil {
			t.Fatal(err)
		}
		fullWrites := a.Len() + len(second)
		deltaWrites, err := a.ApplyRowsAtomic(second)
		if err != nil {
			t.Fatal(err)
		}
		b := MustNew("b", 0, width) // the full rewrite's end state
		if _, err := b.ApplyRowsAtomic(second); err != nil {
			t.Fatal(err)
		}
		if deltaWrites > fullWrites {
			t.Fatalf("trial %d: delta writes %d exceed full rewrite %d", trial, deltaWrites, fullWrites)
		}
		// Same lookups everywhere.
		for probe := 0; probe < 40; probe++ {
			key := rng.Uint64() & ((uint64(1) << uint(width)) - 1)
			ea, oka := lookupOne(a, key)
			eb, okb := lookupOne(b, key)
			if oka != okb {
				t.Fatalf("trial %d key %d: hit mismatch %v vs %v", trial, key, oka, okb)
			}
			if oka && !sameMatch(ea, eb) {
				t.Fatalf("trial %d key %d: resolved different rows", trial, key)
			}
		}
	}
}

func sameMatch(a, b *Entry) bool {
	if len(a.Fields) != len(b.Fields) || a.Priority != b.Priority {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i] != b.Fields[i] {
			return false
		}
	}
	return dataEqual(a.Data, b.Data)
}
