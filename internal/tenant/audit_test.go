package tenant

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/ada-repro/ada/internal/tcam"
)

// twoSlices opens two populated slices on one partition.
func twoSlices(t *testing.T) (*Partition, *Slice, *Slice) {
	t.Helper()
	p := mustPartition(t, 16, 8, 8)
	a, err := p.Open("a", []int{8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Open("b", []int{8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyRowsAtomic([]tcam.Row{row(1, uint64(10)), row(2, uint64(20))}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ApplyRowsAtomic([]tcam.Row{row(1, uint64(100)), row(3, uint64(300))}); err != nil {
		t.Fatal(err)
	}
	return p, a, b
}

// readRows is ReadRows for a store that cannot fail to read back.
func readRows(t *testing.T, st interface {
	ReadRows() ([]tcam.RowDigest, error)
}) []tcam.RowDigest {
	t.Helper()
	rows, err := st.ReadRows()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestSliceReadRowsScopedToBand(t *testing.T) {
	_, a, b := twoSlices(t)
	rowsA := readRows(t, a)
	if len(rowsA) != 2 {
		t.Fatalf("a.ReadRows: %d rows, want 2 (own band only)", len(rowsA))
	}
	// Digests come back in local coordinates: single operand field, local
	// priority, and the same keys the slice's fingerprint uses.
	for _, d := range rowsA {
		if len(d.Fields) != 1 || d.Priority != 0 {
			t.Errorf("digest %q has %d fields at priority %d, want 1 local operand at 0", d.Key, len(d.Fields), d.Priority)
		}
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("two different slices produced identical fingerprints")
	}
}

// TestSliceAuditNeverCrossesBands tampers slice A, then repairs through
// slice A, asserting slice B's rows, fingerprint, and physical band are
// untouched throughout.
func TestSliceAuditNeverCrossesBands(t *testing.T) {
	p, a, b := twoSlices(t)
	aClean, bClean := a.Fingerprint(), b.Fingerprint()
	physBefore := p.Table().Len()

	// Corrupt one A row, ghost one A row, through the slice tamper seam.
	if err := a.TamperData([]tcam.Field{{Value: 1, Mask: 0xff}}, 0, uint64(999)); err != nil {
		t.Fatal(err)
	}
	if err := a.TamperInsert([]tcam.Field{{Value: 9, Mask: 0xff}}, 0, uint64(90)); err != nil {
		t.Fatal(err)
	}

	// B's read-back must not see A's corruption.
	if got := b.Fingerprint(); got != bClean {
		t.Fatalf("tampering A changed B's fingerprint:\n%s\nwant\n%s", got, bClean)
	}

	// Repair A toward its expected rows; B stays byte-identical.
	expect := []tcam.Row{row(1, uint64(10)), row(2, uint64(20))}
	writes, err := a.ApplyRowsAtomic(expect)
	if err != nil {
		t.Fatal(err)
	}
	if writes != 2 {
		t.Errorf("repair writes = %d, want 2 (one corrupted, one ghost)", writes)
	}
	if a.Fingerprint() != aClean {
		t.Error("A not healed: fingerprint still diverges from the pre-tamper rows")
	}
	if e, ok := lookupOne(a, 1); !ok || e.Data != uint64(10) {
		t.Errorf("lookupOne(a, 1) = %v after repair, want 10", e)
	}
	if got := b.Fingerprint(); got != bClean {
		t.Fatalf("repairing A changed B:\n%s\nwant\n%s", got, bClean)
	}
	if e, ok := lookupOne(b, 1); !ok || e.Data != uint64(100) {
		t.Errorf("lookupOne(b, 1) = %v after A repair, want 100", e)
	}
	if p.Table().Len() != physBefore {
		t.Errorf("physical table len %d, want %d", p.Table().Len(), physBefore)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate after repair: %v", err)
	}
}

func TestSliceTamperValidation(t *testing.T) {
	_, a, _ := twoSlices(t)
	if err := a.TamperData([]tcam.Field{{Value: 7, Mask: 0xff}}, 0, uint64(1)); !errors.Is(err, tcam.ErrNotFound) {
		t.Errorf("TamperData absent row: %v, want ErrNotFound", err)
	}
	if err := a.TamperInsert([]tcam.Field{{Value: 1, Mask: 0xff}}, 0, uint64(5)); !errors.Is(err, tcam.ErrDeltaConflict) {
		t.Errorf("TamperInsert over installed: %v, want ErrDeltaConflict", err)
	}
	// Out-of-band local priority is rejected before touching hardware.
	if err := a.TamperInsert([]tcam.Field{{Value: 8, Mask: 0xff}}, 1<<20, uint64(5)); err == nil {
		t.Error("TamperInsert with out-of-band priority: want error")
	}
}

// TestSliceCloseAfterDroppedRow: a row lost in hardware must not pin the
// tenant. Close deletes what the band holds, so it succeeds and leaves the
// band empty instead of failing every retry with ErrDeltaConflict.
func TestSliceCloseAfterDroppedRow(t *testing.T) {
	p, a, b := twoSlices(t)
	if err := a.TamperDelete([]tcam.Field{{Value: 2, Mask: 0xff}}, 0); err != nil {
		t.Fatal(err)
	}
	writes, err := p.Close("a")
	if err != nil {
		t.Fatalf("Close after a dropped row: %v", err)
	}
	if writes != 1 {
		t.Errorf("Close writes = %d, want 1 (the surviving row)", writes)
	}
	if n := len(readRows(t, a)); n != 0 {
		t.Errorf("closed band holds %d rows, want 0", n)
	}
	if got, want := p.Table().Len(), b.Len(); got != want {
		t.Errorf("physical Len = %d, want b's %d", got, want)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSliceCloseDeletesGhosts: a ghost row in a band occupies a physical
// entry under the tenant's ID, so Close must delete it too; otherwise the
// entry leaks and carries a closed tenant's ID.
func TestSliceCloseDeletesGhosts(t *testing.T) {
	p, a, b := twoSlices(t)
	if err := a.TamperInsert([]tcam.Field{{Value: 9, Mask: 0xff}}, 0, uint64(90)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Close("a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate after closing a ghosted slice: %v", err)
	}
	if got, want := p.Table().Len(), b.Len(); got != want {
		t.Errorf("physical Len = %d, want b's %d", got, want)
	}
}

// TestSliceApplyRowsAtomicDeletesGhosts: after a ghost, reconciling toward
// the rows already installed writes exactly what a private table writes —
// one delete for the ghost — and both then fingerprint equal.
func TestSliceApplyRowsAtomicDeletesGhosts(t *testing.T) {
	_, a, _ := twoSlices(t)
	rows := []tcam.Row{row(1, uint64(10)), row(2, uint64(20))}
	mirror := tcam.MustNew("mirror", 8, 8)
	if _, err := mirror.ApplyRowsAtomic(rows); err != nil {
		t.Fatal(err)
	}
	for _, st := range []tcam.Tamperer{a, mirror} {
		if err := st.TamperInsert([]tcam.Field{{Value: 9, Mask: 0xff}}, 0, uint64(90)); err != nil {
			t.Fatal(err)
		}
	}
	w1, err1 := a.ApplyRowsAtomic(rows)
	w2, err2 := mirror.ApplyRowsAtomic(rows)
	if err1 != nil || err2 != nil {
		t.Fatalf("ApplyRowsAtomic: slice %v, mirror %v", err1, err2)
	}
	if w1 != w2 || w2 != 1 {
		t.Errorf("writes: slice %d, mirror %d, want 1 each", w1, w2)
	}
	if a.Fingerprint() != mirror.Fingerprint() || a.Len() != mirror.Len() {
		t.Errorf("slice %d rows\n%s\nmirror %d rows\n%s", a.Len(), a.Fingerprint(), mirror.Len(), mirror.Fingerprint())
	}
}

// errClass reduces an error to what the differential compares.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, tcam.ErrCapacity):
		return "capacity"
	case errors.Is(err, tcam.ErrDeltaConflict):
		return "conflict"
	case errors.Is(err, tcam.ErrNotFound):
		return "not found"
	}
	return "other: " + err.Error()
}

// TestSliceMatchesPrivateTableUnderFaults drives slice A and a private table
// whose capacity is A's quota through one seeded sequence of full
// reconciliations, deltas (conflicting deletes and inserts past the quota
// included) and silent tampering. After every operation both must report
// the same writes and error class and hold the same rows — Len,
// Fingerprint and ReadRows — while the partition stays valid and the
// neighbour slice B stays byte-unchanged. A repair after a ghost gives the
// ghost's quota back, as a private table gives back its capacity.
func TestSliceMatchesPrivateTableUnderFaults(t *testing.T) {
	const quota = 12
	p := mustPartition(t, 32, 8, 8)
	a, err := p.Open("a", []int{8, 8}, quota)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Open("b", []int{8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ApplyRowsAtomic([]tcam.Row{row(1, uint64(100)), row(3, uint64(300))}); err != nil {
		t.Fatal(err)
	}
	bFP, bRows := b.Fingerprint(), readRows(t, b)
	mirror := tcam.MustNew("mirror", quota, 8, 8)

	rng := rand.New(rand.NewSource(19))
	// A 2×2-bit key space at two priorities: 32 keys against a 12-row
	// quota, so inserts collide, overflow and conflict often.
	key := func() ([]tcam.Field, int) {
		return []tcam.Field{{Value: uint64(rng.Intn(4)), Mask: 0xff}, {Value: uint64(rng.Intn(4)), Mask: 0xff}}, rng.Intn(2)
	}
	randRow := func() tcam.Row {
		f, prio := key()
		return tcam.Row{Fields: f, Priority: prio, Data: uint64(rng.Intn(3))}
	}
	installed := func() []tcam.RowDigest { return readRows(t, mirror) }
	// ghosts holds the keys of ghost rows no commit has deleted or
	// rewritten yet; repairs counts full reconciliations that deleted one.
	ghosts, repairs := map[string]bool{}, 0
	forget := func(rows []tcam.Row) {
		for _, r := range rows {
			delete(ghosts, tcam.RowKey(r.Fields, r.Priority))
		}
	}
	for step := 0; step < 3000; step++ {
		var what string
		var w1, w2 int
		var err1, err2 error
		switch op := rng.Intn(8); op {
		case 0:
			what = "ApplyRowsAtomic"
			n := rng.Intn(quota + 3)
			seen := map[string]bool{}
			var rows []tcam.Row
			for len(rows) < n {
				r := randRow()
				if k := tcam.RowKey(r.Fields, r.Priority); !seen[k] {
					seen[k] = true
					rows = append(rows, r)
				}
			}
			w1, err1 = a.ApplyRowsAtomic(rows)
			w2, err2 = mirror.ApplyRowsAtomic(rows)
			if err2 == nil {
				forget(rows)
				if len(ghosts) > 0 {
					repairs++
				}
				ghosts = map[string]bool{}
			}
		case 1, 2:
			what = "ApplyDelta"
			var ups, dels []tcam.Row
			for i := rng.Intn(5); i > 0; i-- {
				ups = append(ups, randRow())
			}
			have := installed()
			for i := rng.Intn(4); i > 0; i-- {
				if len(have) > 0 && rng.Intn(4) != 0 {
					dels = append(dels, have[rng.Intn(len(have))].Row())
				} else {
					dels = append(dels, randRow()) // often not installed
				}
			}
			w1, err1 = a.ApplyDelta(ups, dels)
			w2, err2 = mirror.ApplyDelta(ups, dels)
			if err2 == nil {
				forget(ups)
				forget(dels)
			}
		case 3, 4:
			what = "TamperData"
			f, prio := key()
			if have := installed(); len(have) > 0 && rng.Intn(4) != 0 {
				d := have[rng.Intn(len(have))]
				f, prio = d.Fields, d.Priority
			}
			data := uint64(7 + rng.Intn(3))
			err1 = a.TamperData(f, prio, data)
			err2 = mirror.TamperData(f, prio, data)
		case 5, 6:
			what = "TamperInsert"
			r := randRow()
			err1 = a.TamperInsert(r.Fields, r.Priority, r.Data)
			err2 = mirror.TamperInsert(r.Fields, r.Priority, r.Data)
			if err2 == nil {
				ghosts[tcam.RowKey(r.Fields, r.Priority)] = true
			}
		case 7:
			what = "TamperDelete"
			f, prio := key()
			if have := installed(); len(have) > 0 && rng.Intn(4) != 0 {
				d := have[rng.Intn(len(have))]
				f, prio = d.Fields, d.Priority
			}
			err1 = a.TamperDelete(f, prio)
			err2 = mirror.TamperDelete(f, prio)
			if err2 == nil {
				forget([]tcam.Row{{Fields: f, Priority: prio}})
			}
		}
		if c1, c2 := errClass(err1), errClass(err2); c1 != c2 || w1 != w2 {
			t.Fatalf("step %d (%s): slice %d writes (%s), private table %d writes (%s)", step, what, w1, c1, w2, c2)
		}
		if a.Len() != mirror.Len() || a.Fingerprint() != mirror.Fingerprint() {
			t.Fatalf("step %d (%s): slice %d rows\n%s\nprivate table %d rows\n%s",
				step, what, a.Len(), a.Fingerprint(), mirror.Len(), mirror.Fingerprint())
		}
		if got, want := readRows(t, a), readRows(t, mirror); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): ReadRows\n%v\nprivate table\n%v", step, what, got, want)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
		if b.Fingerprint() != bFP || !reflect.DeepEqual(readRows(t, b), bRows) {
			t.Fatalf("step %d (%s): slice b changed", step, what)
		}
	}
	if repairs == 0 {
		t.Fatal("no ApplyRowsAtomic deleted a ghost; the sequence never reached the repair case")
	}
	t.Logf("%d full reconciliations deleted ghosts", repairs)
}
