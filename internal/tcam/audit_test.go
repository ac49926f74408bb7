package tcam

import (
	"errors"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

// auditTable builds the Figure 4b population used across the audit tests.
func auditTable(t *testing.T) (*Table, []Row) {
	t.Helper()
	tb := MustNew("calc", 8, 3)
	var rows []Row
	for i, s := range []string{"00x", "010", "011", "1xx"} {
		p, err := bitstr.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		r := RowFromPrefix(p, uint64(i+1))
		if _, err := tb.InsertPrefix(p, 0, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	return tb, rows
}

func TestReadRowsSortedAndComplete(t *testing.T) {
	tb, rows := auditTable(t)
	digests, err := tb.ReadRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != len(rows) {
		t.Fatalf("ReadRows: %d rows, want %d", len(digests), len(rows))
	}
	for i := 1; i < len(digests); i++ {
		if digests[i-1].Key >= digests[i].Key {
			t.Fatalf("ReadRows not sorted: %q >= %q", digests[i-1].Key, digests[i].Key)
		}
	}
	// Digest keys must be the canonical row keys, round-trippable via Row().
	for _, d := range digests {
		if got := RowKey(d.Fields, d.Priority); got != d.Key {
			t.Errorf("digest key %q != RowKey %q", d.Key, got)
		}
		r := d.Row()
		if RowKey(r.Fields, r.Priority) != d.Key {
			t.Errorf("Row() does not round-trip key %q", d.Key)
		}
	}
}

// TestTamperDataSilentButServed is the corruption model in one test: the
// externally visible Version must not move (the controller shadow stays
// blind), yet the data plane serves the corrupted payload, and the
// read-back fingerprint sees the divergence.
func TestTamperDataSilentButServed(t *testing.T) {
	tb, rows := auditTable(t)
	cleanFP := tb.Fingerprint()
	v := tb.Version()

	victim := rows[1] // "010" → key 2
	if err := tb.TamperData(victim.Fields, victim.Priority, uint64(999)); err != nil {
		t.Fatal(err)
	}

	if got := tb.Version(); got != v {
		t.Errorf("TamperData bumped Version %d → %d; silent corruption must stay invisible", v, got)
	}
	e, ok := lookupOne(tb, 2)
	if !ok {
		t.Fatal("lookup(2): miss")
	}
	if e.Data.(uint64) != 999 {
		t.Errorf("data plane serves %v after tamper, want corrupted 999", e.Data)
	}
	if tb.Fingerprint() == cleanFP {
		t.Error("Fingerprint unchanged after tamper; read-back must see corruption")
	}
}

func TestTamperInsertDeleteAndErrors(t *testing.T) {
	tb, rows := auditTable(t)

	if err := tb.TamperData([]Field{{Value: 7, Mask: 7}}, 5, uint64(1)); !errors.Is(err, ErrNotFound) {
		t.Errorf("TamperData on absent row: %v, want ErrNotFound", err)
	}
	if err := tb.TamperInsert(rows[0].Fields, rows[0].Priority, uint64(7)); !errors.Is(err, ErrDeltaConflict) {
		t.Errorf("TamperInsert over installed key: %v, want ErrDeltaConflict", err)
	}
	if err := tb.TamperDelete([]Field{{Value: 7, Mask: 7}}, 5); !errors.Is(err, ErrNotFound) {
		t.Errorf("TamperDelete on absent row: %v, want ErrNotFound", err)
	}

	v := tb.Version()
	ghost := []Field{{Value: 5, Mask: 7}}
	if err := tb.TamperInsert(ghost, 3, uint64(42)); err != nil {
		t.Fatal(err)
	}
	digests, _ := tb.ReadRows()
	if len(digests) != len(rows)+1 {
		t.Fatalf("after ghost insert: %d rows, want %d", len(digests), len(rows)+1)
	}
	if err := tb.TamperDelete(ghost, 3); err != nil {
		t.Fatal(err)
	}
	if err := tb.TamperDelete(rows[3].Fields, rows[3].Priority); err != nil {
		t.Fatal(err)
	}
	digests, _ = tb.ReadRows()
	if len(digests) != len(rows)-1 {
		t.Fatalf("after drop: %d rows, want %d", len(digests), len(rows)-1)
	}
	if got := tb.Version(); got != v {
		t.Errorf("tamper insert/delete moved Version %d → %d", v, got)
	}

	// Ghost inserts still respect physical capacity.
	for i := 0; tb.Len() < tb.Capacity(); i++ {
		if err := tb.TamperInsert([]Field{{Value: uint64(i), Mask: 7}}, 7, uint64(i)); err != nil &&
			!errors.Is(err, ErrDeltaConflict) {
			t.Fatal(err)
		}
	}
	if err := tb.TamperInsert([]Field{{Value: 6, Mask: 7}}, 6, uint64(1)); !errors.Is(err, ErrCapacity) {
		t.Errorf("TamperInsert over capacity: %v, want ErrCapacity", err)
	}
}

// TestApplyRowsAtomicHealsAllFaultClasses corrupts, ghosts, and drops rows,
// then repairs through ApplyRowsAtomic against the pre-tamper expectation
// and checks the hardware fingerprint returns to the original with one
// write per divergent row.
func TestApplyRowsAtomicHealsAllFaultClasses(t *testing.T) {
	tb, rows := auditTable(t)
	cleanFP := tb.Fingerprint()

	if err := tb.TamperData(rows[0].Fields, rows[0].Priority, uint64(77)); err != nil {
		t.Fatal(err)
	}
	ghost := []Field{{Value: 5, Mask: 7}}
	if err := tb.TamperInsert(ghost, 3, uint64(42)); err != nil {
		t.Fatal(err)
	}
	if err := tb.TamperDelete(rows[2].Fields, rows[2].Priority); err != nil {
		t.Fatal(err)
	}

	writes, err := tb.ApplyRowsAtomic(rows)
	if err != nil {
		t.Fatal(err)
	}
	// One update (corrupted), one delete (ghost), one insert (missing).
	if writes != 3 {
		t.Errorf("repair writes = %d, want 3 (minimal delta)", writes)
	}
	if got := tb.Fingerprint(); got != cleanFP {
		t.Errorf("repair did not restore hardware:\n%s\nwant:\n%s", got, cleanFP)
	}
}

// TestTamperThenAPIWriteKeepsIndexFresh guards the idxSeq split: a tamper
// followed by a normal API write must not leave the compiled lookup index
// keyed at a stale sequence.
func TestTamperThenAPIWriteKeepsIndexFresh(t *testing.T) {
	tb, rows := auditTable(t)
	if err := tb.TamperData(rows[1].Fields, rows[1].Priority, uint64(500)); err != nil {
		t.Fatal(err)
	}
	if e, ok := lookupOne(tb, 2); !ok || e.Data.(uint64) != 500 {
		t.Fatalf("post-tamper lookup: %v %v, want 500", e, ok)
	}
	// A normal API write on top of the tamper must recompile and serve both.
	p, _ := bitstr.Parse("001")
	if _, err := tb.InsertPrefix(p, 1, uint64(9)); err != nil {
		t.Fatal(err)
	}
	if e, ok := lookupOne(tb, 1); !ok || e.Data.(uint64) != 9 {
		t.Fatalf("lookup of new row: %v %v, want 9", e, ok)
	}
	if e, ok := lookupOne(tb, 2); !ok || e.Data.(uint64) != 500 {
		t.Fatalf("tampered row lost after API write: %v %v, want 500", e, ok)
	}
}
