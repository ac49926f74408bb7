package controlplane

import (
	"github.com/ada-repro/ada/internal/tcam"
)

// AuditReport describes one read-back audit of the calculation table: how
// many physical rows were read, how the hardware diverged from the
// controller's expected population, and what the repair cost.
type AuditReport struct {
	// Audited is the number of physical rows read back.
	Audited int
	// Corrupted counts rows whose match key the controller installed but
	// whose action data diverged (silent payload corruption).
	Corrupted int
	// Ghost counts physical rows the controller never installed.
	Ghost int
	// Missing counts expected rows absent from the hardware.
	Missing int
	// Repaired reports that an anti-entropy repair delta was committed.
	Repaired bool
	// RepairWrites is the TCAM writes the repair issued (0 when clean or
	// when the audit ran in detect-only mode).
	RepairWrites int
}

// Mismatched is the total divergent rows the audit found.
func (r AuditReport) Mismatched() int { return r.Corrupted + r.Ghost + r.Missing }

// Clean reports whether the hardware matched the expected population.
func (r AuditReport) Clean() bool { return r.Mismatched() == 0 }

// Add folds another audit into this one (multi-table systems sum their
// per-table audits into one report).
func (r *AuditReport) Add(o AuditReport) {
	r.Audited += o.Audited
	r.Corrupted += o.Corrupted
	r.Ghost += o.Ghost
	r.Missing += o.Missing
	r.Repaired = r.Repaired || o.Repaired
	r.RepairWrites += o.RepairWrites
}

// Auditor is the optional read-back extension of Driver (like
// DeltaPopulator): a driver that can read the physically installed
// calculation rows back and compare them against the controller's expected
// population, repairing divergence with a minimal anti-entropy delta when
// repair is true. Drivers that cannot read back simply don't implement it
// and the controller never audits.
type Auditor interface {
	AuditCalc(repair bool) (AuditReport, error)
}

// AuditableTarget is the target-side audit seam DirectDriver forwards to —
// the core package's calculation targets implement it by diffing their
// installed shadow against the store's read-back. A unary target that has
// no shadow yet, as after Recover, takes the table over as it reads back
// instead, checking every row against its own key.
type AuditableTarget interface {
	AuditCalc(repair bool) (AuditReport, error)
}

// AuditCalc implements Auditor by forwarding to the target when it supports
// auditing; targets that don't (and monitoring-only drivers) audit
// trivially clean.
func (d *DirectDriver) AuditCalc(repair bool) (AuditReport, error) {
	if d.target == nil {
		return AuditReport{}, nil
	}
	if at, ok := d.target.(AuditableTarget); ok {
		return at.AuditCalc(repair)
	}
	return AuditReport{}, nil
}

// AuditStore diffs a store's physical read-back against the expected
// population and classifies every divergent row: same key but different
// data = corrupted, physically present but not expected = ghost, expected
// but physically absent = missing. With repair set and any divergence
// found, it repairs through the store's ApplyRowsAtomic, which reconciles
// the physical rows toward expect with minimal writes. This is the shared
// classifier behind every AuditableTarget.
func AuditStore(st tcam.Store, expect []tcam.Row, repair bool) (AuditReport, error) {
	digests, err := st.ReadRows()
	if err != nil {
		return AuditReport{}, err
	}
	want := make(map[string]tcam.Row, len(expect))
	for _, r := range expect {
		want[tcam.RowKey(r.Fields, r.Priority)] = r
	}
	var rep AuditReport
	rep.Audited = len(digests)
	seen := make(map[string]bool, len(digests))
	for _, d := range digests {
		w, ok := want[d.Key]
		if !ok {
			rep.Ghost++
			continue
		}
		seen[d.Key] = true
		if !tcam.DataEqual(w.Data, d.Data) {
			rep.Corrupted++
		}
	}
	for k := range want {
		if !seen[k] {
			rep.Missing++
		}
	}
	if repair && rep.Mismatched() > 0 {
		writes, err := st.ApplyRowsAtomic(expect)
		if err != nil {
			return rep, err
		}
		rep.Repaired = true
		rep.RepairWrites = writes
	}
	return rep, nil
}
