package tenant

import (
	"errors"
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

func TestSliceReadRowsScopedToBand(t *testing.T) {
	_, a, b := twoSlices(t)
	rowsA, err := a.ReadRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsA) != 2 {
		t.Fatalf("a.ReadRows: %d rows, want 2 (own band only)", len(rowsA))
	}
	// Digests come back in local coordinates: single operand field, local
	// priority, and the same keys the slice's shadow fingerprint uses.
	for _, d := range rowsA {
		if len(d.Fields) != 1 {
			t.Errorf("digest has %d fields, want 1 local operand", len(d.Fields))
		}
	}
	afp, err := a.AuditFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if afp != a.Fingerprint() {
		t.Errorf("clean slice: AuditFingerprint != Fingerprint\n%s\nvs\n%s", afp, a.Fingerprint())
	}
	bfp, _ := b.AuditFingerprint()
	if bfp == afp {
		t.Error("two different slices produced identical audit fingerprints")
	}
}

// TestSliceAuditNeverCrossesBands tampers slice A, then audits and repairs
// through slice A, asserting slice B's rows, fingerprint, and physical band
// are untouched throughout — and vice versa for B's own tamper.
func TestSliceAuditNeverCrossesBands(t *testing.T) {
	p, a, b := twoSlices(t)
	bClean, _ := b.AuditFingerprint()
	physBefore := p.Table().Len()

	// Corrupt one A row, ghost one A row, through the slice tamper seam.
	if err := a.TamperData([]tcam.Field{{Value: 1, Mask: 0xff}}, 0, uint64(999)); err != nil {
		t.Fatal(err)
	}
	if err := a.TamperInsert([]tcam.Field{{Value: 9, Mask: 0xff}}, 0, uint64(90)); err != nil {
		t.Fatal(err)
	}

	// B's read-back must not see A's corruption.
	if got, _ := b.AuditFingerprint(); got != bClean {
		t.Fatalf("tampering A changed B's audit fingerprint:\n%s\nwant\n%s", got, bClean)
	}

	// Repair A against its shadow; B stays byte-identical.
	expect := []tcam.Row{row(1, uint64(10)), row(2, uint64(20))}
	writes, err := a.AuditRepair(expect)
	if err != nil {
		t.Fatal(err)
	}
	if writes != 2 {
		t.Errorf("repair writes = %d, want 2 (one corrupted, one ghost)", writes)
	}
	if got, _ := a.AuditFingerprint(); got != a.Fingerprint() {
		t.Error("A not healed: audit and shadow fingerprints still diverge")
	}
	if e, ok := lookupOne(a, 1); !ok || e.Data != uint64(10) {
		t.Errorf("lookupOne(a, 1) = %v after repair, want 10", e)
	}
	if got, _ := b.AuditFingerprint(); got != bClean {
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

// TestSliceAuditRepairRestoresQuota verifies a repair that drops ghosts
// frees quota accounting (Len back to the shadow's row count).
func TestSliceAuditRepairRestoresQuota(t *testing.T) {
	_, a, _ := twoSlices(t)
	if err := a.TamperInsert([]tcam.Field{{Value: 9, Mask: 0xff}}, 0, uint64(90)); err != nil {
		t.Fatal(err)
	}
	expect := []tcam.Row{row(1, uint64(10)), row(2, uint64(20))}
	if _, err := a.AuditRepair(expect); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 {
		t.Errorf("Len = %d after repair, want 2", a.Len())
	}
}
