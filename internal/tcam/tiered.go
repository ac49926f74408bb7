// TieredStore: a Store that splits one logical population across a bounded
// TCAM slice and an SRAM spill tier.
//
// ADA's population quality is capped by how many calculation rows the TCAM
// budget admits, yet the rows are plain prefix intervals — the cold tail
// resolves just as correctly from a dense SRAM interval structure (sram.go)
// as from ternary cells. A TieredStore therefore keeps the hottest rows in a
// real *Table of tcamEntries capacity and spills the rest into an sramTier,
// multiplying the effective entry budget at unchanged TCAM cost. Both tiers
// compile with the same buildIndex (index.go). Lookups consult the TCAM
// tier first and fall through to SRAM on a miss; because ADA populations
// tile the operand domain disjointly, at most one tier can match any key
// and the combined resolution is bit-identical to a single Table holding
// the union (the differential tests pin this).
//
// The mutation surface mirrors Table's contracts exactly: ApplyRowsAtomic
// and ApplyDelta are all-or-nothing across both tiers (the TCAM tier — the
// only one that can fail — commits transactionally first; the SRAM half is
// staged up front and cannot fail), Fingerprint/ReadRows digest the union in
// Table's canonical format, and the returned write counts cover TCAM row
// writes only. SRAM row writes accumulate separately and are drained with
// TakeSRAMWrites, so the control plane can charge the two memories at their
// real, very different costs.
//
// Tier placement is a control-plane decision: Rebalance ranks the rows by a
// caller-supplied heat score (derived from the same per-bin hit registers
// Algorithm 2 reads) and moves rows between tiers so the TCAM slice holds
// the hottest ones. Placement changes which memory serves a row, never the
// row itself, so it advances the internal snapshot sequence but not the
// externally visible Version — a controller shadow guarded by Version keeps
// trusting its copy across placement rounds.
package tcam

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// TierMoves summarises one Rebalance pass.
type TierMoves struct {
	// Promotions counts rows moved SRAM → TCAM.
	Promotions int
	// Demotions counts rows moved TCAM → SRAM.
	Demotions int
	// TCAMWrites counts the physical TCAM row writes the moves cost; the
	// SRAM-side writes are drained via TakeSRAMWrites.
	TCAMWrites int
}

// RowHeat scores one logical row's observed hit mass; Rebalance ranks rows
// by it, hottest into the TCAM tier. The control plane derives it from the
// monitoring trie's per-bin hit registers.
type RowHeat func(fields []Field, priority int) uint64

// tieredSnap is one immutable combined snapshot: the hot tier's compiled
// index, the cold tier's compiled index with ordinals offset past the hot
// tier's, and the union entry/payload view batch lookups hand out.
type tieredSnap struct {
	seq   uint64
	token uint64 // monotonic snapshot generation (Snapshotter contract)
	hot   *index
	cold  *index
	pay   Payloads
}

// TieredStore is a Store backed by a bounded TCAM slice plus an SRAM spill
// tier. It is safe for concurrent use; lookups are lock-free against the
// combined snapshot.
type TieredStore struct {
	mu sync.Mutex // serialises mutation, placement, and tier-consistent reads

	name     string
	widths   []int
	capacity int // combined budget across both tiers; 0 = unbounded
	hot      *Table
	cold     *sramTier

	// version and seq follow the package's Version / snapshot-generation
	// contract (see the package doc): seq additionally advances on tier
	// placement and tampering, which Version must not notice.
	version atomic.Uint64
	seq     atomic.Uint64
	snapGen atomic.Uint64 // tokens handed to combined snapshots, monotonic
	snap    atomic.Pointer[tieredSnap]
	snapMu  sync.Mutex // serialises snapshot rebuilds

	sramWrites atomic.Uint64
	promotions atomic.Uint64
	demotions  atomic.Uint64
}

var (
	_ Store    = (*TieredStore)(nil)
	_ Tamperer = (*TieredStore)(nil)
)

// NewTiered creates a tiered store: a TCAM slice bounded at tcamEntries rows
// plus an SRAM tier holding the spill, with capacity bounding the two tiers
// together (0 = unbounded SRAM behind a bounded TCAM).
func NewTiered(name string, tcamEntries, capacity int, fieldWidths ...int) (*TieredStore, error) {
	if tcamEntries < 1 {
		return nil, fmt.Errorf("tcam: tiered store %q needs a positive TCAM budget, got %d", name, tcamEntries)
	}
	if capacity > 0 && capacity < tcamEntries {
		return nil, fmt.Errorf("tcam: tiered store %q capacity %d below its TCAM budget %d", name, capacity, tcamEntries)
	}
	hot, err := New(name+".tcam", tcamEntries, fieldWidths...)
	if err != nil {
		return nil, err
	}
	return &TieredStore{
		name:     name,
		widths:   hot.fieldWidths,
		capacity: capacity,
		hot:      hot,
		cold:     newSRAMTier(hot.fieldWidths),
	}, nil
}

// Name returns the store name.
func (s *TieredStore) Name() string { return s.name }

// Capacity returns the combined two-tier entry limit (0 = unbounded).
func (s *TieredStore) Capacity() int { return s.capacity }

// TCAMBudget returns the hot tier's row budget.
func (s *TieredStore) TCAMBudget() int { return s.hot.capacity }

// Len returns the number of installed rows across both tiers.
func (s *TieredStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hot.Len() + s.cold.len()
}

// HotLen returns the rows currently resident in the TCAM tier.
func (s *TieredStore) HotLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hot.Len()
}

// ColdLen returns the rows currently spilled to the SRAM tier.
func (s *TieredStore) ColdLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cold.len()
}

// FieldWidths returns a copy of the declared per-field widths.
func (s *TieredStore) FieldWidths() []int { return s.hot.FieldWidths() }

// Version returns the mutation counter per the package's Version contract;
// placement and tampering do not advance it.
func (s *TieredStore) Version() uint64 { return s.version.Load() }

// Promotions returns the cumulative SRAM → TCAM row moves.
func (s *TieredStore) Promotions() uint64 { return s.promotions.Load() }

// Demotions returns the cumulative TCAM → SRAM row moves.
func (s *TieredStore) Demotions() uint64 { return s.demotions.Load() }

// TakeSRAMWrites drains the SRAM row-write counter accumulated since the
// last call: populate spills, delta updates, and tier moves alike.
func (s *TieredStore) TakeSRAMWrites() int { return int(s.sramWrites.Swap(0)) }

// bumpLocked records a Store-API mutation attempt; s.mu must be held.
func (s *TieredStore) bumpLocked() {
	s.version.Add(1)
	s.seq.Add(1)
}

// loadSnap returns the combined snapshot for the current contents,
// rebuilding when a mutation, placement, or hot-tier tamper invalidated it.
func (s *TieredStore) loadSnap() *tieredSnap {
	if sn := s.snap.Load(); sn != nil && sn.seq == s.seq.Load() && sn.hot.version == s.hot.idxSeq.Load() {
		return sn
	}
	return s.rebuildSnap()
}

func (s *TieredStore) rebuildSnap() *tieredSnap {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if sn := s.snap.Load(); sn != nil && sn.seq == s.seq.Load() && sn.hot.version == s.hot.idxSeq.Load() {
		return sn
	}
	// Hold the store lock so the two tiers compile from one committed state,
	// never a torn mid-mutation view.
	s.mu.Lock()
	seq := s.seq.Load()
	hix := s.hot.loadIndex()
	cix := buildIndex(seq, s.widths, s.cold.rows, int32(len(hix.entries)))
	s.mu.Unlock()

	entries := make([]*Entry, 0, len(hix.entries)+len(cix.entries))
	entries = append(entries, hix.entries...)
	entries = append(entries, cix.entries...)
	pay := Payloads{entries: entries, typed: hix.typed && cix.typed}
	if pay.typed {
		pay.vals = make([]uint64, 0, len(entries))
		pay.vals = append(pay.vals, hix.payload...)
		pay.vals = append(pay.vals, cix.payload...)
	}
	sn := &tieredSnap{seq: seq, token: s.snapGen.Add(1), hot: hix, cold: cix, pay: pay}
	s.snap.Store(sn)
	return sn
}

// LookupSnapshot implements Snapshotter over the combined two-tier
// snapshot. The token advances whenever the snapshot recompiles — content
// mutations, tier re-placement, and tampering in either tier — so cached
// ordinals never outlive the entry/payload arrays they index.
func (s *TieredStore) LookupSnapshot() (Payloads, uint64) {
	sn := s.loadSnap()
	return sn.pay, sn.token
}

// LookupIndexBatch is the store's one data-plane lookup, lock-free against
// the combined snapshot: packed key tuples resolve to dense ordinals
// spanning both tiers (hot rows first). The TCAM tier resolves the whole
// batch and the SRAM tier serves its misses, with the same ordinal/payload
// pairing contract as Table.LookupIndexBatch.
func (s *TieredStore) LookupIndexBatch(flat []uint64, dst []int32) ([]int32, Payloads) {
	arity := len(s.widths)
	dst = sizeOrds(dst, len(flat)/arity)
	sn := s.loadSnap()
	sn.hot.resolveBatch(flat, dst)
	for i, ord := range dst {
		if ord < 0 {
			dst[i] = sn.cold.lookupOrd(flat[i*arity : (i+1)*arity])
		}
	}
	return dst, sn.pay
}

func (s *TieredStore) validateRows(rows []Row) error {
	for _, r := range rows {
		if err := s.hot.validateFields(r.Fields); err != nil {
			return err
		}
	}
	return nil
}

// placeLocked splits a full target population across the tiers: rows whose
// match key is already resident in the TCAM tier stay there (sticky, so a
// converged reconcile causes no tier churn; each resident entry keeps one
// row), remaining TCAM slots fill in row order, and everything else spills
// to SRAM. s.mu and s.hot.mu must be held.
func (s *TieredStore) placeLocked(rows []Row) (hotRows, coldRows []Row) {
	budget := s.hot.capacity
	sticky := make([]bool, len(rows))
	n := 0
	for i, r := range rows {
		if n >= budget {
			break
		}
		if s.hot.keys.claim(r.Fields, r.Priority, keyHash(r.Fields, r.Priority)) != nil {
			sticky[i] = true
			n++
		}
	}
	for _, e := range s.hot.ordered { // the TCAM tier holds at most budget rows
		e.claimed = false
	}
	for i, r := range rows {
		switch {
		case sticky[i]:
			hotRows = append(hotRows, r)
		case n < budget:
			hotRows = append(hotRows, r)
			n++
		default:
			coldRows = append(coldRows, r)
		}
	}
	return hotRows, coldRows
}

// ApplyRowsAtomic reconciles both tiers toward rows with minimal writes,
// all-or-nothing: the TCAM tier commits transactionally first, and the SRAM
// reconcile that follows cannot fail. It diffs against the physical rows of
// both tiers, so it also repairs ghost, dropped and corrupted rows in
// either. Returns TCAM row writes; SRAM writes accumulate for
// TakeSRAMWrites.
func (s *TieredStore) ApplyRowsAtomic(rows []Row) (writes int, err error) {
	if err := s.validateRows(rows); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.bumpLocked()
	if s.capacity > 0 && len(rows) > s.capacity {
		return 0, &CapacityError{Table: s.name, Capacity: s.capacity,
			Installed: s.hot.Len() + s.cold.len(), Requested: len(rows)}
	}
	s.hot.mu.Lock()
	hotRows, coldRows := s.placeLocked(rows)
	writes, err = s.hot.applyRowsAtomicLocked(hotRows)
	s.hot.mu.Unlock()
	if err != nil {
		return 0, err
	}
	s.sramWrites.Add(uint64(s.cold.replace(coldRows)))
	return writes, nil
}

// ApplyDelta applies an incremental reconciliation across both tiers,
// transactionally: the split is staged without touching either tier, so a
// conflict (a delete not installed in either tier — ErrDeltaConflict) or a
// capacity refusal leaves the store exactly as before. Deletes consume the
// TCAM tier first; new rows take free TCAM slots before spilling to SRAM.
// Returns TCAM row writes; SRAM writes accumulate for TakeSRAMWrites.
func (s *TieredStore) ApplyDelta(upserts, deletes []Row) (writes int, err error) {
	if err := s.validateRows(upserts); err != nil {
		return 0, err
	}
	if err := s.validateRows(deletes); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.bumpLocked()
	s.hot.mu.Lock()
	hotUp, hotDel, coldUp, coldDel, err := s.stageDeltaLocked(upserts, deletes)
	if err == nil {
		writes, err = s.hot.applyDeltaLocked(hotUp, hotDel)
	}
	s.hot.mu.Unlock()
	if err != nil {
		return 0, err
	}
	s.sramWrites.Add(uint64(s.cold.applyDelta(coldUp, coldDel)))
	return writes, nil
}

// stageDeltaLocked splits a delta across the tiers without touching either,
// looking each row up in the tiers' key indexes. Deletes claim the oldest
// installed entry under their key, TCAM tier first, so duplicate deletes
// consume one entry each; the claims are cleared before it returns. An
// upsert follows its key's unclaimed entry, or the tier an earlier upsert
// of the same new key went to; a new key takes a free TCAM slot before
// spilling to SRAM. s.mu and s.hot.mu must be held.
func (s *TieredStore) stageDeltaLocked(upserts, deletes []Row) (hotUp, hotDel, coldUp, coldDel []Row, err error) {
	hot, cold := s.hot, s.cold
	hotLen, coldLen := len(hot.ordered), cold.len()
	var held []*Entry
	defer func() {
		for _, e := range held {
			e.claimed = false
		}
	}()
	for _, r := range deletes {
		h := keyHash(r.Fields, r.Priority)
		if e := hot.keys.claim(r.Fields, r.Priority, h); e != nil {
			held = append(held, e)
			hotDel = append(hotDel, r)
		} else if e := cold.keys.claim(r.Fields, r.Priority, h); e != nil {
			held = append(held, e)
			coldDel = append(coldDel, r)
		} else {
			return nil, nil, nil, nil, fmt.Errorf("%w: delete of %q not installed in tiered store %q",
				ErrDeltaConflict, matchKey(r.Fields, r.Priority), s.name)
		}
	}
	newHot, newCold := hotLen-len(hotDel), coldLen-len(coldDel)

	inserted := 0
	var fresh freshKeys
	for _, r := range upserts {
		h := keyHash(r.Fields, r.Priority)
		if hot.keys.first(r.Fields, r.Priority, h) != nil {
			hotUp = append(hotUp, r)
			continue
		}
		if cold.keys.first(r.Fields, r.Priority, h) != nil {
			coldUp = append(coldUp, r)
			continue
		}
		toHot, seen := fresh.tier(r, h)
		if !seen {
			toHot = newHot < hot.capacity
			fresh.add(r, h, toHot, len(upserts))
			if toHot {
				newHot++
			} else {
				newCold++
			}
			inserted++
		}
		if toHot {
			hotUp = append(hotUp, r)
		} else {
			coldUp = append(coldUp, r)
		}
	}
	if s.capacity > 0 && newHot+newCold > s.capacity {
		return nil, nil, nil, nil, &CapacityError{Table: s.name, Capacity: s.capacity,
			Installed: hotLen + coldLen, Requested: inserted}
	}
	return hotUp, hotDel, coldUp, coldDel, nil
}

// freshKeys records the new keys a tiered delta stages and the tier each
// went to, hashed like keyIndex; distinct keys sharing a hash fall back to
// a scan.
type freshKeys struct {
	byHash map[uint64]int // hash → first staged row with it
	rows   []freshRow
}

type freshRow struct {
	r   Row
	hot bool
}

// tier reports the tier r's key was staged to, if it was.
func (f *freshKeys) tier(r Row, h uint64) (hot, ok bool) {
	i, hit := f.byHash[h]
	if !hit {
		return false, false
	}
	if fr := f.rows[i]; sameKey(fr.r.Fields, fr.r.Priority, r.Fields, r.Priority) {
		return fr.hot, true
	}
	for _, fr := range f.rows {
		if sameKey(fr.r.Fields, fr.r.Priority, r.Fields, r.Priority) {
			return fr.hot, true
		}
	}
	return false, false
}

func (f *freshKeys) add(r Row, h uint64, hot bool, sizeHint int) {
	if f.byHash == nil {
		f.byHash = make(map[uint64]int, sizeHint)
	}
	if _, ok := f.byHash[h]; !ok {
		f.byHash[h] = len(f.rows)
	}
	f.rows = append(f.rows, freshRow{r: r, hot: hot})
}

// Fingerprint digests the union of both tiers in Table's canonical format:
// a TieredStore and a pure Table holding the same logical population
// fingerprint byte-identically, which is what the tier-differential tests
// and the audit layer rely on.
func (s *TieredStore) Fingerprint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return joinSorted(appendLines(appendLines(nil, s.hot.Entries()), s.cold.rows))
}

// ReadRows reads back the physically installed rows of both tiers, sorted
// by match key — including rows silently tampered into either tier.
func (s *TieredStore) ReadRows() ([]RowDigest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, err := s.hot.ReadRows()
	if err != nil {
		return nil, err
	}
	out = appendDigests(out, s.cold.rows, len(s.widths))
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// TamperData silently corrupts the action data of the installed row in
// whichever tier holds it; Version stays put, the data plane serves the
// corruption immediately.
func (s *TieredStore) TamperData(fields []Field, priority int, data any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.hot.TamperData(fields, priority, data)
	if err == nil {
		s.seq.Add(1)
		return nil
	}
	if !errors.Is(err, ErrNotFound) {
		return err
	}
	if e := s.cold.first(fields, priority); e != nil {
		e.Data = data
		s.seq.Add(1)
		return nil
	}
	return fmt.Errorf("%w: tamper target %q in tiered store %q", ErrNotFound, matchKey(fields, priority), s.name)
}

// TamperInsert silently installs a ghost row, preferring a free TCAM slot
// and spilling to SRAM otherwise, respecting the combined capacity.
func (s *TieredStore) TamperInsert(fields []Field, priority int, data any) error {
	if err := s.hot.validateFields(fields); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cold.first(fields, priority) != nil {
		return fmt.Errorf("%w: ghost row %q already installed in tiered store %q",
			ErrDeltaConflict, matchKey(fields, priority), s.name)
	}
	if s.capacity > 0 && s.hot.Len()+s.cold.len() >= s.capacity {
		return &CapacityError{Table: s.name, Capacity: s.capacity,
			Installed: s.hot.Len() + s.cold.len(), Requested: 1}
	}
	if s.hot.Len() < s.hot.capacity {
		if err := s.hot.TamperInsert(fields, priority, data); err != nil {
			return err
		}
	} else {
		// Reject a hot-tier duplicate the same way Table does before
		// spilling the ghost to SRAM.
		if dup := func() bool {
			s.hot.mu.RLock()
			defer s.hot.mu.RUnlock()
			return s.hot.findTamperTargetLocked(fields, priority) != nil
		}(); dup {
			return fmt.Errorf("%w: ghost row %q already installed in tiered store %q",
				ErrDeltaConflict, matchKey(fields, priority), s.name)
		}
		s.cold.move(nil, []Row{{Fields: fields, Priority: priority, Data: data}})
	}
	s.seq.Add(1)
	return nil
}

// TamperDelete silently drops the installed row from whichever tier holds
// it.
func (s *TieredStore) TamperDelete(fields []Field, priority int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.hot.TamperDelete(fields, priority)
	if err == nil {
		s.seq.Add(1)
		return nil
	}
	if !errors.Is(err, ErrNotFound) {
		return err
	}
	if s.cold.first(fields, priority) != nil {
		s.cold.move([]Row{{Fields: fields, Priority: priority}}, nil)
		s.seq.Add(1)
		return nil
	}
	return fmt.Errorf("%w: tamper target %q in tiered store %q", ErrNotFound, matchKey(fields, priority), s.name)
}

// Rebalance re-ranks every installed row by heat and moves rows between
// tiers so the TCAM slice holds the hottest ones. Ties keep the incumbent
// tier (hysteresis: equal heat never causes a swap), then break by match
// key for determinism (see rankLocked). The TCAM half of the move set
// commits transactionally; on its failure the store is unchanged. The SRAM
// half is one splice. A converged placement returns zero moves and performs
// no writes.
//
// Placement advances the snapshot sequence, never Version: the logical
// population is untouched, so Version-guarded controller shadows remain
// valid across placement rounds.
func (s *TieredStore) Rebalance(heat RowHeat) (TierMoves, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	promote, demote := s.rankLocked(heat)
	if len(promote) == 0 && len(demote) == 0 {
		return TierMoves{}, nil
	}

	tcamWrites, err := s.hot.ApplyDelta(promote, demote)
	if err != nil {
		// The hot tier rolled itself back and the cold tier was never
		// touched; refresh the snapshot (the rollback bumped the hot index)
		// and surface the failure.
		s.seq.Add(1)
		return TierMoves{}, err
	}
	s.cold.move(promote, demote)
	s.sramWrites.Add(uint64(len(promote) + len(demote)))
	s.promotions.Add(uint64(len(promote)))
	s.demotions.Add(uint64(len(demote)))
	s.seq.Add(1)
	return TierMoves{Promotions: len(promote), Demotions: len(demote), TCAMWrites: tcamWrites}, nil
}

// ranked is a row Rebalance may move, with its heat and its match key,
// rendered only when a heat tie needs it.
type ranked struct {
	e   *Entry
	h   uint64
	key string
}

// rankLocked picks Rebalance's moves without sorting every row: the slice
// takes every row hotter than the want-th largest heat, then the rows tied
// at it that fit, incumbents first, then by match key. That is the prefix
// of a stable sort of every row (TCAM tier first) by (heat desc, incumbent
// first, key asc). The move lists come in (heat desc, key asc) order, the
// order their new entries take seqs in. s.mu must be held.
func (s *TieredStore) rankLocked(heat RowHeat) (promote, demote []Row) {
	hotEntries := s.hot.Entries()
	rows := append(hotEntries, s.cold.rows...)
	hs := make([]uint64, len(rows))
	for i, e := range rows {
		hs[i] = heat(e.Fields, e.Priority)
	}
	want := min(s.hot.capacity, len(rows))
	if want == 0 {
		return nil, nil
	}
	t := nthLargest(slices.Clone(hs), want)
	free := want // slots left for rows tied at t
	var up, down, hotTied, coldTied []ranked
	for i, h := range hs {
		r, hot := ranked{e: rows[i], h: h}, i < len(hotEntries)
		switch {
		case h > t:
			free--
			if !hot {
				up = append(up, r)
			}
		case h < t:
			if hot {
				down = append(down, r)
			}
		case hot:
			hotTied = append(hotTied, r)
		default:
			coldTied = append(coldTied, r)
		}
	}
	if len(hotTied) > free {
		down = append(down, byHeatKey(hotTied)[free:]...)
	} else if need := free - len(hotTied); need > 0 {
		up = append(up, byHeatKey(coldTied)[:need]...)
	}
	return movedRows(byHeatKey(up)), movedRows(byHeatKey(down))
}

// byHeatKey renders the keys of rs and sorts them by heat descending, then
// match key; rows equal in both keep their order, which callers build in
// the ranking's input order.
func byHeatKey(rs []ranked) []ranked {
	for i := range rs {
		if rs[i].key == "" {
			rs[i].key = rs[i].e.MatchKey()
		}
	}
	slices.SortStableFunc(rs, func(a, b ranked) int {
		return cmp.Or(cmp.Compare(b.h, a.h), strings.Compare(a.key, b.key))
	})
	return rs
}

func movedRows(rs []ranked) []Row {
	out := make([]Row, len(rs))
	for i, r := range rs {
		out[i] = Row{Fields: r.e.Fields, Priority: r.e.Priority, Data: r.e.Data}
	}
	return out
}

// nthLargest returns the nth largest of hs (1 ≤ n ≤ len(hs)), reordering
// hs: a quickselect with three-way partitions, so equal heats cost one pass.
func nthLargest(hs []uint64, n int) uint64 {
	for {
		pivot := hs[len(hs)/2]
		gt, i, lt := 0, 0, len(hs) // hs[:gt] > pivot, hs[lt:] < pivot
		for i < lt {
			switch {
			case hs[i] > pivot:
				hs[gt], hs[i] = hs[i], hs[gt]
				gt, i = gt+1, i+1
			case hs[i] < pivot:
				lt--
				hs[lt], hs[i] = hs[i], hs[lt]
			default:
				i++
			}
		}
		switch {
		case n <= gt:
			hs = hs[:gt]
		case n > lt:
			hs, n = hs[lt:], n-lt
		default:
			return pivot
		}
	}
}
