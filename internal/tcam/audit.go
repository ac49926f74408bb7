package tcam

import (
	"fmt"
	"sort"
)

// RowDigest is one physical row as read back from the hardware: the match
// key in the table's canonical serialisation, the raw fields/priority it was
// derived from, and the installed action data. The audit layer diffs digests
// against the controller's shadow population to classify desync.
type RowDigest struct {
	Key      string
	Fields   []Field
	Priority int
	Data     any
}

// Row converts the digest back into a Row suitable for re-installation.
func (d RowDigest) Row() Row {
	return Row{Fields: d.Fields, Priority: d.Priority, Data: d.Data}
}

// DataEqual compares two action payloads with the same semantics the
// table's own reconciliation diff uses, so an external audit classifies
// "changed data" exactly when ApplyRowsAtomic would issue an update.
func DataEqual(a, b any) bool { return dataEqual(a, b) }

// ReadRows reads back every physically installed row, sorted by match key
// for deterministic comparison. Unlike Entries, it reflects the true
// hardware contents — including rows silently corrupted or inserted by the
// Tamper methods that the version counter never saw.
func (t *Table) ReadRows() ([]RowDigest, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := appendDigests(make([]RowDigest, 0, len(t.ordered)), t.ordered, len(t.fieldWidths))
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// appendDigests appends a read-back digest of each entry to out, copying
// every entry's arity fields into one shared slab.
func appendDigests(out []RowDigest, entries []*Entry, arity int) []RowDigest {
	slab := make([]Field, 0, len(entries)*arity)
	for _, e := range entries {
		slab = append(slab, e.Fields...)
		fs := slab[len(slab)-arity : len(slab) : len(slab)]
		out = append(out, RowDigest{Key: e.MatchKey(), Fields: fs, Priority: e.Priority, Data: e.Data})
	}
	return out
}

// DigestFingerprint renders read-back digests in Fingerprint format, so a
// tenant slice fingerprints its band byte-identically to a private table.
func DigestFingerprint(rows []RowDigest) string {
	lines := make([]string, 0, len(rows))
	var buf []byte
	for _, d := range rows {
		buf = fmt.Append(append(append(buf[:0], d.Key...), '='), d.Data)
		lines = append(lines, string(buf))
	}
	return joinSorted(lines)
}

// findTamperTargetLocked locates the oldest physical entry with the given
// match fields and priority through the key index; t.mu must be held.
func (t *Table) findTamperTargetLocked(fields []Field, priority int) *Entry {
	return t.keys.first(fields, priority, keyHash(fields, priority))
}

// TamperData silently overwrites the action data of the installed row with
// the given match fields and priority, modelling in-hardware payload
// corruption (e.g. a bit-flip): no write hook fires, no stats move, and the
// externally visible Version stays put, so controller shadows keep trusting
// a row that now serves wrong data. The data plane serves the corrupted
// payload immediately. Returns ErrNotFound when no such row is installed.
func (t *Table) TamperData(fields []Field, priority int, data any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.findTamperTargetLocked(fields, priority)
	if e == nil {
		return fmt.Errorf("%w: tamper target %q in table %q", ErrNotFound, matchKey(fields, priority), t.name)
	}
	e.Data = data
	t.tamperLocked()
	return nil
}

// TamperInsert silently installs a ghost row the controller never asked
// for. It respects physical capacity (hardware cannot hold more rows than
// it has) but bypasses the write hook, stats, and the Version counter.
// Inserting over an already-installed match key fails with ErrDeltaConflict
// so injectors can distinguish ghosts from corruption.
func (t *Table) TamperInsert(fields []Field, priority int, data any) error {
	if err := t.validateFields(fields); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.findTamperTargetLocked(fields, priority) != nil {
		return fmt.Errorf("%w: ghost row %q already installed in table %q",
			ErrDeltaConflict, matchKey(fields, priority), t.name)
	}
	if t.capacity > 0 && len(t.ordered) >= t.capacity {
		return &CapacityError{Table: t.name, Capacity: t.capacity, Installed: len(t.ordered), Requested: 1}
	}
	t.installLocked(t.newEntryLocked(fields, priority, data))
	t.tamperLocked()
	return nil
}

// TamperDelete silently drops the installed row with the given match fields
// and priority, modelling a row lost in hardware. Bypasses the write hook,
// stats, and the Version counter. Returns ErrNotFound when absent.
func (t *Table) TamperDelete(fields []Field, priority int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.findTamperTargetLocked(fields, priority)
	if e == nil {
		return fmt.Errorf("%w: tamper target %q in table %q", ErrNotFound, matchKey(fields, priority), t.name)
	}
	t.uninstallLocked(e)
	t.tamperLocked()
	return nil
}
