package tcam

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

var errInjected = errors.New("injected row-write failure")

// failAfter returns a hook that admits n row writes and fails every write
// after them.
func failAfter(n int) WriteHook {
	return func(WriteOp) error {
		if n <= 0 {
			return errInjected
		}
		n--
		return nil
	}
}

// TestApplyRowsPartialFailureContract pins the documented non-transactional
// behaviour: when a row write fails mid-reconciliation, ApplyRows returns
// the error with every earlier write still applied.
func TestApplyRowsPartialFailureContract(t *testing.T) {
	tb := MustNew("t", 8, 3)
	if _, err := tb.ApplyRows(rowsOf(t, map[string]uint64{"0xx": 1, "1xx": 2})); err != nil {
		t.Fatal(err)
	}
	// Target set: keep 0xx, split 1xx into 10x/11x — one delete then two
	// inserts. Admit exactly the delete, fail the first insert.
	tb.SetWriteHook(failAfter(1))
	writes, err := tb.ApplyRows(rowsOf(t, map[string]uint64{"0xx": 1, "10x": 4, "11x": 5}))
	if !errors.Is(err, errInjected) {
		t.Fatalf("error = %v, want injected", err)
	}
	if writes != 1 {
		t.Errorf("partial writes = %d, want 1 (the delete that was applied)", writes)
	}
	// The table is now partially written: 1xx is gone, its replacements are
	// not installed — the hole the transactional controller must never expose.
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1 (only 0xx survives)", tb.Len())
	}
	if _, ok := lookupOne(tb, 5); ok {
		t.Error("key 5 still resolves; expected a coverage hole after partial failure")
	}
	if e, ok := lookupOne(tb, 2); !ok || e.Data.(uint64) != 1 {
		t.Errorf("untouched row 0xx lost: %v", e)
	}
}

// TestApplyRowsAtomicRollsBack asserts the transactional variant restores
// the exact pre-call state — entries, lookups, stats, and generation — on a
// mid-reconciliation failure.
func TestApplyRowsAtomicRollsBack(t *testing.T) {
	tb := MustNew("t", 8, 3)
	if _, err := tb.ApplyRows(rowsOf(t, map[string]uint64{"0xx": 1, "1xx": 2})); err != nil {
		t.Fatal(err)
	}
	gen, fp, stats := tb.Generation(), tb.Fingerprint(), tb.Stats()

	tb.SetWriteHook(failAfter(1))
	writes, err := tb.ApplyRowsAtomic(rowsOf(t, map[string]uint64{"0xx": 9, "10x": 4, "11x": 5}))
	if !errors.Is(err, errInjected) {
		t.Fatalf("error = %v, want injected", err)
	}
	if writes != 0 {
		t.Errorf("rolled-back commit reported %d writes, want 0", writes)
	}
	if tb.Generation() != gen {
		t.Errorf("generation moved across a rolled-back commit: %d -> %d", gen, tb.Generation())
	}
	if tb.Fingerprint() != fp {
		t.Errorf("contents changed across a rolled-back commit:\n%s\nwant\n%s", tb.Fingerprint(), fp)
	}
	if tb.Stats() != stats {
		t.Errorf("stats changed across a rolled-back commit: %+v want %+v", tb.Stats(), stats)
	}
	// The update admitted before the failure must not leak: 0xx keeps data 1.
	if e, ok := lookupOne(tb, 2); !ok || e.Data.(uint64) != 1 {
		t.Errorf("lookup 2 after rollback: %v", e)
	}

	// With the hook cleared the same commit succeeds and bumps the generation.
	tb.SetWriteHook(nil)
	if _, err := tb.ApplyRowsAtomic(rowsOf(t, map[string]uint64{"0xx": 9, "10x": 4, "11x": 5})); err != nil {
		t.Fatal(err)
	}
	if tb.Generation() != gen+1 {
		t.Errorf("generation = %d, want %d after commit", tb.Generation(), gen+1)
	}
}

// TestApplyRowsAtomicMatchesApplyRows: on success the two variants are
// indistinguishable (state and write accounting).
func TestApplyRowsAtomicMatchesApplyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mkRows := func(width int) []Row {
		n := 1 + rng.Intn(10)
		seen := make(map[string]bool)
		var out []Row
		for i := 0; i < n; i++ {
			m := (uint64(1) << uint(width)) - 1
			p, err := bitstr.New(rng.Uint64()&m, rng.Intn(width+1), width)
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
	for trial := 0; trial < 50; trial++ {
		width := 4 + rng.Intn(6)
		first, second := mkRows(width), mkRows(width)
		a, b := MustNew("a", 0, width), MustNew("b", 0, width)
		for _, rows := range [][]Row{first, second} {
			wa, err := a.ApplyRows(rows)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := b.ApplyRowsAtomic(rows)
			if err != nil {
				t.Fatal(err)
			}
			if wa != wb {
				t.Fatalf("trial %d: writes differ: ApplyRows %d vs atomic %d", trial, wa, wb)
			}
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("trial %d: end states differ", trial)
		}
	}
}

// TestReplaceAllPreflightsHook: ReplaceAll advertises an atomic swap, so a
// row-write failure must leave it untouched.
func TestReplaceAllPreflightsHook(t *testing.T) {
	tb := MustNew("t", 8, 3)
	if _, err := tb.ReplaceAll(rowsOf(t, map[string]uint64{"0xx": 1, "1xx": 2})); err != nil {
		t.Fatal(err)
	}
	fp := tb.Fingerprint()
	tb.SetWriteHook(failAfter(3)) // 2 deletes admitted, first insert fails
	if _, err := tb.ReplaceAll(rowsOf(t, map[string]uint64{"00x": 7, "01x": 8, "1xx": 9})); !errors.Is(err, errInjected) {
		t.Fatalf("error = %v, want injected", err)
	}
	if tb.Fingerprint() != fp {
		t.Error("failed ReplaceAll mutated the table")
	}
}

// TestRowLevelHooks: Insert, Delete, and UpdateData each consult the hook
// and leave the table unchanged when it fails.
func TestRowLevelHooks(t *testing.T) {
	tb := MustNew("t", 8, 3)
	p, _ := bitstr.Parse("0xx")
	id, err := tb.InsertPrefix(p, 0, uint64(1))
	if err != nil {
		t.Fatal(err)
	}
	tb.SetWriteHook(failAfter(0))
	if _, err := tb.InsertPrefix(mustParse(t, "1xx"), 0, uint64(2)); !errors.Is(err, errInjected) {
		t.Errorf("Insert error = %v", err)
	}
	if err := tb.Delete(id); !errors.Is(err, errInjected) {
		t.Errorf("Delete error = %v", err)
	}
	if err := tb.UpdateData(id, uint64(9)); !errors.Is(err, errInjected) {
		t.Errorf("UpdateData error = %v", err)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
	if e, ok := lookupOne(tb, 2); !ok || e.Data.(uint64) != 1 {
		t.Errorf("entry changed under failing hook: %v", e)
	}
}

func mustParse(t *testing.T, s string) bitstr.Prefix {
	t.Helper()
	p, err := bitstr.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
