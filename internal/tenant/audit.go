package tenant

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/ada-repro/ada/internal/tcam"
)

// Read-back seam: a slice reads back and tampers with only its own priority
// band of the shared table. Scoping is structural — the physical scan keeps
// a row only when its fully-specified tenant-ID field names this slice AND
// its priority sits inside the slice's band — so a read-back can never
// observe, and a repair (ApplyRowsAtomic) never rewrite, another tenant's
// rows, no matter how corrupted the shared table is.

var _ tcam.Tamperer = (*Slice)(nil)

// bandEntriesLocked returns the physical entries of this slice's band:
// those whose fully-specified tenant-ID field names the slice and whose
// priority sits inside its band. The filter renders no key, so other
// tenants' rows cost one comparison each; p.mu must be held.
func (s *Slice) bandEntriesLocked() []*tcam.Entry {
	tidMask := uint64(1)<<s.p.cfg.TenantIDBits - 1
	hi := s.bandLo + s.p.cfg.BandSize
	out := make([]*tcam.Entry, 0, s.rows)
	for _, e := range s.p.phys.Entries() {
		if tid := e.Fields[0]; tid.Mask == tidMask && tid.Value == s.id && e.Priority >= s.bandLo && e.Priority < hi {
			out = append(out, e)
		}
	}
	return out
}

// bandLocked reads back this slice's band in the tenant-local layout,
// sorted by match key; p.mu must be held.
func (s *Slice) bandLocked() []tcam.RowDigest {
	n := len(s.widths)
	es := s.bandEntriesLocked()
	out := make([]tcam.RowDigest, len(es))
	slab := make([]tcam.Field, 0, len(es)*n)
	for i, e := range es {
		slab = append(slab, e.Fields[1:1+n]...)
		fields := slab[len(slab)-n : len(slab) : len(slab)]
		prio := e.Priority - s.bandLo
		out[i] = tcam.RowDigest{Key: tcam.RowKey(fields, prio), Fields: fields, Priority: prio, Data: e.Data}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// staleLocked returns, in tenant-local key order, the physical rows of the
// band whose rawKey keep does not hold — every band row for a nil keep;
// p.mu must be held. Only the stale rows' keys are rendered.
func (s *Slice) staleLocked(keep map[string]bool) []tcam.Row {
	n := len(s.widths)
	var stale []tcam.RowDigest
	var buf []byte
	for _, e := range s.bandEntriesLocked() {
		fields, prio := e.Fields[1:1+n], e.Priority-s.bandLo
		if buf = rawKey(buf[:0], fields, prio); !keep[string(buf)] {
			stale = append(stale, tcam.RowDigest{Key: tcam.RowKey(fields, prio), Fields: fields, Priority: prio})
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].Key < stale[j].Key })
	del := make([]tcam.Row, len(stale))
	for i, d := range stale {
		del[i] = s.physRow(d.Fields, d.Priority, nil)
	}
	return del
}

// rawKey appends a binary encoding of a tenant-local match key to b: a map
// key that is cheaper to build than tcam.RowKey's rendering and never
// leaves memory.
func rawKey(b []byte, fields []tcam.Field, priority int) []byte {
	for _, f := range fields {
		b = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(b, f.Value), f.Mask)
	}
	return binary.LittleEndian.AppendUint64(b, uint64(priority))
}

// ReadRows reads back the physically installed rows of this slice's band
// only, translated to the tenant-local layout and sorted by match key.
// Ghost rows and corrupted payloads inside the band are visible; rows of
// every other tenant are structurally out of reach.
func (s *Slice) ReadRows() ([]tcam.RowDigest, error) {
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	return s.bandLocked(), nil
}

// TamperData silently corrupts an in-band row's payload in the shared
// table; the slice's Version stays untouched.
func (s *Slice) TamperData(fields []tcam.Field, priority int, data any) error {
	pr, err := s.tamperRow(fields, priority)
	if err != nil {
		return err
	}
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	return s.p.phys.TamperData(pr.Fields, pr.Priority, data)
}

// TamperInsert silently installs a ghost row inside this slice's band. Like
// a private table, which admits no ghost past its capacity, a slice admits
// none past its quota; a key already installed fails first, with
// tcam.ErrDeltaConflict.
func (s *Slice) TamperInsert(fields []tcam.Field, priority int, data any) error {
	pr, err := s.tamperRow(fields, priority)
	if err != nil {
		return err
	}
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	if s.rows >= s.quota {
		k := tcam.RowKey(fields, priority)
		for _, d := range s.bandLocked() {
			if d.Key == k {
				return fmt.Errorf("%w: ghost row %q already installed in slice %s", tcam.ErrDeltaConflict, k, s.Name())
			}
		}
		return &tcam.CapacityError{Table: s.Name(), Capacity: s.quota, Installed: s.rows, Requested: 1}
	}
	if err := s.p.phys.TamperInsert(pr.Fields, pr.Priority, data); err != nil {
		return err
	}
	s.rows++
	return nil
}

// TamperDelete silently drops an in-band row from the shared table.
func (s *Slice) TamperDelete(fields []tcam.Field, priority int) error {
	pr, err := s.tamperRow(fields, priority)
	if err != nil {
		return err
	}
	s.p.mu.Lock()
	defer s.p.mu.Unlock()
	if err := s.p.phys.TamperDelete(pr.Fields, pr.Priority); err != nil {
		return err
	}
	s.rows--
	return nil
}

// tamperRow validates and translates a tenant-local tamper target to the
// physical layout; band bounds are enforced by validateLocal, so injected
// faults cannot escape the slice either.
func (s *Slice) tamperRow(fields []tcam.Field, priority int) (tcam.Row, error) {
	if err := s.validateLocal(fields, priority); err != nil {
		return tcam.Row{}, err
	}
	return s.physRow(fields, priority, nil), nil
}
