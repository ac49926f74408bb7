package tcam

import (
	"errors"
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

// TestApplyRowsAtomicRollsBack asserts the transactional variant restores
// the exact pre-call state — entries, lookups, stats, and generation — on a
// mid-reconciliation failure.
func TestApplyRowsAtomicRollsBack(t *testing.T) {
	tb := MustNew("t", 8, 3)
	if _, err := tb.ApplyRowsAtomic(rowsOf(t, map[string]uint64{"0xx": 1, "1xx": 2})); err != nil {
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
