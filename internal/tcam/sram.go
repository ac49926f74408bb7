// SRAM spill tier for the tiered store (see tiered.go).
//
// Switch pipelines pair a tiny TCAM with orders of magnitude more SRAM.
// MashUp-style tiling exploits that: the wildcard rows a TCAM would hold are
// prefix intervals, and a dense set of disjoint intervals resolves in SRAM
// with a direct-indexed table — no ternary cells needed. The sramTier below is the mutable cold-tail row set: its
// reconciliation against a target population and the row-write accounting.
// It has no lookup code of its own. The tiered snapshot compiles its rows
// with buildIndex (index.go), the same compiler the TCAM tier uses, so the
// SRAM tier resolves through the same range sets, product grid, trie, or
// linear fallback a Table holding those rows would.
//
// Resolution must stay bit-identical to a Table holding the same rows, so
// rows are kept in the table's resolution order (sig desc, priority desc,
// seq asc) — the order buildIndex expects.
package tcam

// sramTier is the mutable cold tier: the spilled rows in resolution order
// plus a key index for reconciliation. All methods require the owning
// TieredStore's mutex; the tier itself has none.
type sramTier struct {
	widths  []int
	rows    []*Entry // resolution order: sig desc, priority desc, seq asc
	keys    keyIndex // match key → installed rows, oldest first
	nextID  int
	nextSeq int
}

func newSRAMTier(widths []int) *sramTier {
	return &sramTier{widths: widths}
}

func (s *sramTier) len() int { return len(s.rows) }

// first returns the oldest unclaimed row installed under fields and
// priority, or nil.
func (s *sramTier) first(fields []Field, priority int) *Entry {
	return s.keys.first(fields, priority, keyHash(fields, priority))
}

// newRow builds and indexes an entry for r; the caller places it in rows.
func (s *sramTier) newRow(r Row) *Entry {
	s.nextID++
	s.nextSeq++
	e := newEntry(s.nextID, s.nextSeq, r.Fields, r.Priority, r.Data)
	s.keys.add(e)
	return e
}

// move drops, for each out row, the oldest row installed under its key (one
// must be), and installs each in row as a new row, in one splice: the SRAM
// half of a tier placement, or a single tampered row.
func (s *sramTier) move(out, in []Row) {
	gone := make([]*Entry, len(out))
	for i, r := range out {
		gone[i] = s.first(r.Fields, r.Priority)
		s.keys.remove(gone[i])
	}
	added := make([]*Entry, len(in))
	for i, r := range in {
		added[i] = s.newRow(r)
	}
	s.rows = spliceOrdered(s.rows, gone, added)
}

// replace reconciles the tier contents toward rows with minimal row writes
// (same diff ApplyRowsAtomic uses: unchanged rows cost nothing, changed data one
// rewrite, new/stale rows one insert/delete each) and returns the write
// count. It cannot fail: SRAM has no capacity gate here — the owning store
// enforces the combined budget before calling.
func (s *sramTier) replace(rows []Row) (writes int) {
	var toInsert []Row
	for _, r := range rows {
		e := s.keys.claim(r.Fields, r.Priority, keyHash(r.Fields, r.Priority))
		if e == nil {
			toInsert = append(toInsert, r)
			continue
		}
		if !dataEqual(e.Data, r.Data) {
			e.Data = r.Data
			writes++
		}
	}
	// Unclaimed rows are stale; drop them and clear the claims in one pass.
	kept := s.rows[:0]
	for _, e := range s.rows {
		if e.claimed {
			e.claimed = false
			kept = append(kept, e)
			continue
		}
		s.keys.remove(e)
		writes++
	}
	clear(s.rows[len(kept):])
	added := make([]*Entry, len(toInsert))
	for i, r := range toInsert {
		added[i] = s.newRow(r)
	}
	s.rows = spliceOrdered(kept, nil, added)
	return writes + len(added)
}

// applyDelta applies the cold half of a staged delta. The owning store has
// already verified every delete is installed here, so it cannot fail.
func (s *sramTier) applyDelta(upserts, deletes []Row) (writes int) {
	var gone, added []*Entry
	for _, r := range deletes {
		if e := s.first(r.Fields, r.Priority); e != nil {
			s.keys.remove(e)
			gone = append(gone, e)
		}
	}
	for _, r := range upserts {
		if e := s.first(r.Fields, r.Priority); e != nil {
			if !dataEqual(e.Data, r.Data) {
				e.Data = r.Data
				writes++
			}
			continue
		}
		added = append(added, s.newRow(r))
	}
	s.rows = spliceOrdered(s.rows, gone, added)
	return writes + len(gone) + len(added)
}
