// SRAM spill tier for the tiered store (see tiered.go).
//
// Switch pipelines pair a tiny TCAM with orders of magnitude more SRAM.
// MashUp-style tiling exploits that: the wildcard rows a TCAM would hold are
// prefix intervals, and a dense set of disjoint intervals resolves in SRAM
// with a direct-indexed table or a predecessor search — no ternary cells
// needed. The sramTier below is the mutable cold-tail row set: its
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

import "sort"

// sramTier is the mutable cold tier: the spilled rows in resolution order
// plus a match-key index for reconciliation. All methods require the owning
// TieredStore's mutex; the tier itself has none.
type sramTier struct {
	widths  []int
	rows    []*Entry            // resolution order: sig desc, priority desc, seq asc
	byKey   map[string][]*Entry // match key → installed rows, oldest first
	nextID  int
	nextSeq int
}

func newSRAMTier(widths []int) *sramTier {
	return &sramTier{widths: widths, byKey: make(map[string][]*Entry)}
}

func (s *sramTier) len() int { return len(s.rows) }

func (s *sramTier) count(key string) int { return len(s.byKey[key]) }

// insert installs one row, keeping resolution order.
func (s *sramTier) insert(r Row) {
	fs := make([]Field, len(r.Fields))
	copy(fs, r.Fields)
	sig := 0
	for _, f := range fs {
		sig += f.SigBits()
	}
	s.nextID++
	s.nextSeq++
	e := &Entry{
		ID: s.nextID, Fields: fs, Priority: r.Priority, Data: r.Data,
		sig: sig, seq: s.nextSeq, key: matchKey(fs, r.Priority),
	}
	i := sort.Search(len(s.rows), func(i int) bool { return !less(s.rows[i], e) })
	s.rows = append(s.rows, nil)
	copy(s.rows[i+1:], s.rows[i:])
	s.rows[i] = e
	s.byKey[e.key] = append(s.byKey[e.key], e)
}

// remove drops the oldest row installed under key, returning it for
// promotion into the other tier.
func (s *sramTier) remove(key string) (Row, bool) {
	list := s.byKey[key]
	if len(list) == 0 {
		return Row{}, false
	}
	e := list[0]
	if len(list) == 1 {
		delete(s.byKey, key)
	} else {
		s.byKey[key] = list[1:]
	}
	for i, o := range s.rows {
		if o == e {
			s.rows = append(s.rows[:i], s.rows[i+1:]...)
			break
		}
	}
	return Row{Fields: e.Fields, Priority: e.Priority, Data: e.Data}, true
}

// replace reconciles the tier contents toward rows with minimal row writes
// (same diff ApplyRows uses: unchanged rows cost nothing, changed data one
// rewrite, new/stale rows one insert/delete each) and returns the write
// count. It cannot fail: SRAM has no capacity gate here — the owning store
// enforces the combined budget before calling.
func (s *sramTier) replace(rows []Row) (writes int) {
	consumed := make(map[string]int, len(rows))
	var toInsert []Row
	for _, r := range rows {
		k := matchKey(r.Fields, r.Priority)
		list := s.byKey[k]
		idx := consumed[k]
		if idx >= len(list) {
			toInsert = append(toInsert, r)
			continue
		}
		consumed[k] = idx + 1
		if !dataEqual(list[idx].Data, r.Data) {
			list[idx].Data = r.Data
			writes++
		}
	}
	// Keep the consumed prefix of each key's list; everything else is stale.
	keep := make(map[*Entry]bool, len(rows))
	for k, n := range consumed {
		for _, e := range s.byKey[k][:n] {
			keep[e] = true
		}
	}
	if len(keep) < len(s.rows) {
		kept := s.rows[:0]
		for _, e := range s.rows {
			if keep[e] {
				kept = append(kept, e)
			} else {
				writes++
			}
		}
		s.rows = kept
		s.byKey = make(map[string][]*Entry, len(kept))
		for _, e := range kept {
			s.byKey[e.key] = append(s.byKey[e.key], e)
		}
	}
	for _, r := range toInsert {
		s.insert(r)
		writes++
	}
	return writes
}

// applyDelta applies the cold half of a staged delta. The owning store has
// already verified every delete is installed here, so it cannot fail.
func (s *sramTier) applyDelta(upserts, deletes []Row) (writes int) {
	for _, r := range deletes {
		if _, ok := s.remove(matchKey(r.Fields, r.Priority)); ok {
			writes++
		}
	}
	for _, r := range upserts {
		k := matchKey(r.Fields, r.Priority)
		if list := s.byKey[k]; len(list) > 0 {
			if !dataEqual(list[0].Data, r.Data) {
				list[0].Data = r.Data
				writes++
			}
			continue
		}
		s.insert(r)
		writes++
	}
	return writes
}
