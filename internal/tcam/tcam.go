package tcam

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/ada-repro/ada/internal/bitstr"
)

var (
	// ErrCapacity reports an insert into a full table.
	ErrCapacity = errors.New("tcam: table capacity exhausted")
	// ErrFieldCount reports a key or entry with the wrong number of fields.
	ErrFieldCount = errors.New("tcam: field count mismatch")
	// ErrNotFound reports an operation on a non-existent entry ID.
	ErrNotFound = errors.New("tcam: entry not found")
	// ErrFieldWidth reports a field value or mask outside its declared width.
	ErrFieldWidth = errors.New("tcam: field exceeds declared width")
	// ErrDeltaConflict reports an ApplyDelta whose view of the installed
	// population diverged from the table (e.g. a delete of a row that is not
	// installed). The caller's shadow copy is stale; it must fall back to a
	// full reconciliation.
	ErrDeltaConflict = errors.New("tcam: delta conflicts with installed entries")
)

// WriteOp identifies one physical row operation presented to a write hook.
type WriteOp int

// Write operations, in the order a driver would issue them.
const (
	// WriteInsert is a new row install.
	WriteInsert WriteOp = iota
	// WriteDelete is a row invalidate.
	WriteDelete
	// WriteUpdate is an in-place action-data rewrite.
	WriteUpdate
)

// String implements fmt.Stringer.
func (op WriteOp) String() string {
	switch op {
	case WriteInsert:
		return "insert"
	case WriteDelete:
		return "delete"
	case WriteUpdate:
		return "update"
	default:
		return fmt.Sprintf("WriteOp(%d)", int(op))
	}
}

// WriteHook is consulted before every physical row write. Returning an error
// aborts that write; the bulk operations (ApplyRowsAtomic, ApplyDelta) then
// roll back every earlier write of the same call, while a single-row
// operation simply leaves the table unchanged. The hook runs with the table
// lock held and must not call back into the table.
type WriteHook func(WriteOp) error

// Field is one ternary key field of an entry: the key bits selected by Mask
// must equal Value.
type Field struct {
	Value uint64
	Mask  uint64
}

// FieldFromPrefix converts a bitstr.Prefix into a ternary Field.
func FieldFromPrefix(p bitstr.Prefix) Field {
	return Field{Value: p.Value(), Mask: p.Mask()}
}

// SigBits returns the number of significant (masked) bits in the field.
func (f Field) SigBits() int { return bits.OnesCount64(f.Mask) }

// Matches reports whether key satisfies the field pattern.
func (f Field) Matches(key uint64) bool { return key&f.Mask == f.Value }

// Entry is one installed TCAM row. Fields and Priority are immutable; the
// match key rendered from them (MatchKey) is not stored.
type Entry struct {
	// ID is the table-unique identifier assigned at insert.
	ID int
	// Fields are the ternary match fields, one per table key field.
	Fields []Field
	// Priority breaks ties between entries with equal significant bits;
	// larger wins.
	Priority int
	// Data is the opaque action data (e.g. an arithmetic result or a
	// register index).
	Data any

	sig int   // cached total significant bits
	seq int   // insertion sequence for deterministic final tie-break
	ord int32 // dense snapshot ordinal, assigned per compiled index build
	// claimed marks an entry a reconciliation in progress has consumed; set
	// and cleared within one locked call (see keyIndex.claim).
	claimed bool
	next    *Entry // next entry of the same keyIndex hash chain, in ascending seq
}

// SigBits returns the total number of significant bits across all fields.
func (e *Entry) SigBits() int { return e.sig }

// MatchKey renders the entry's canonical serialised match key (fields plus
// priority) afresh on each call, for fingerprints, read-backs
// (RowDigest.Key), error messages and Rebalance's tie-break; reconciliation
// finds rows through the table's hashed key index and builds no string.
func (e *Entry) MatchKey() string { return matchKey(e.Fields, e.Priority) }

// Stats counts row writes since creation (or the last ResetStats).
type Stats struct {
	Inserts uint64
	Deletes uint64
	Updates uint64
}

// counters is the live, atomically-updated form of Stats.
type counters struct {
	inserts atomic.Uint64
	deletes atomic.Uint64
	updates atomic.Uint64
}

// Table is a ternary match table with bounded capacity. It is safe for
// concurrent use; LookupIndexBatch is lock-free against a compiled index
// snapshot (see index.go) and scales across goroutines. Each installed row
// is recorded twice: in the resolution order and in the hashed key index.
type Table struct {
	mu sync.RWMutex

	name        string
	capacity    int
	fieldWidths []int
	ordered     []*Entry // resolution order: sig desc, priority desc, seq asc
	keys        keyIndex // match key → installed entries, oldest first
	nextID      int
	nextSeq     int
	generation  uint64
	hook        WriteHook
	stats       counters

	// version counts every content mutation performed through the table API
	// (unlike generation, which only counts bulk commits). It is the counter
	// a control-plane shadow copy watches; silent hardware tampering (the
	// Tamper* methods) deliberately does not advance it.
	version atomic.Uint64
	// idxSeq keys the compiled index. It advances on every content change —
	// API mutations and silent tampering alike — so the data plane always
	// serves the physical contents, even the corrupted ones the control
	// plane has not noticed yet.
	idxSeq atomic.Uint64
	idx    atomic.Pointer[index]
	idxMu  sync.Mutex // serialises index rebuilds
}

// New creates a ternary table. capacity <= 0 means unbounded (used to model
// the paper's "ideal, unlimited TCAM" baseline). fieldWidths declares the bit
// width of each key field; at least one field is required.
func New(name string, capacity int, fieldWidths ...int) (*Table, error) {
	if len(fieldWidths) == 0 {
		return nil, fmt.Errorf("%w: table %q needs at least one field", ErrFieldCount, name)
	}
	for i, w := range fieldWidths {
		if w < 1 || w > 64 {
			return nil, fmt.Errorf("%w: field %d width %d", ErrFieldWidth, i, w)
		}
	}
	widths := make([]int, len(fieldWidths))
	copy(widths, fieldWidths)
	return &Table{
		name:        name,
		capacity:    capacity,
		fieldWidths: widths,
	}, nil
}

// MustNew is New but panics on error; for tests and static configuration.
func MustNew(name string, capacity int, fieldWidths ...int) *Table {
	t, err := New(name, capacity, fieldWidths...)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Capacity returns the entry limit (0 = unbounded).
func (t *Table) Capacity() int { return t.capacity }

// Len returns the number of installed entries.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.ordered)
}

// Occupancy returns installed/capacity in [0,1]; 0 for unbounded tables.
func (t *Table) Occupancy() float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.capacity <= 0 {
		return 0
	}
	return float64(len(t.ordered)) / float64(t.capacity)
}

// FieldWidths returns a copy of the declared per-field widths.
func (t *Table) FieldWidths() []int {
	out := make([]int, len(t.fieldWidths))
	copy(out, t.fieldWidths)
	return out
}

// Stats returns a snapshot of the operation counters. The counters are
// atomics, so the snapshot needs no lock; individual counters are read
// independently.
func (t *Table) Stats() Stats {
	return Stats{
		Inserts: t.stats.inserts.Load(),
		Deletes: t.stats.deletes.Load(),
		Updates: t.stats.updates.Load(),
	}
}

// ResetStats zeroes the operation counters.
func (t *Table) ResetStats() {
	t.stats.inserts.Store(0)
	t.stats.deletes.Store(0)
	t.stats.updates.Store(0)
}

// dirtyLocked records a content mutation; t.mu must be held exclusively.
// The next lookup recompiles the index from the committed state.
func (t *Table) dirtyLocked() {
	t.version.Add(1)
	t.idxSeq.Add(1)
}

// tamperLocked records a silent hardware mutation: the compiled index is
// invalidated (the data plane must serve the corrupted contents) but the
// externally visible Version stays put, so a controller shadow guarded by
// Version cannot tell anything happened. t.mu must be held exclusively.
func (t *Table) tamperLocked() {
	t.idxSeq.Add(1)
}

// loadIndex returns the compiled index for the current table contents,
// rebuilding it if a mutation invalidated the cached one.
func (t *Table) loadIndex() *index {
	if ix := t.idx.Load(); ix != nil && ix.version == t.idxSeq.Load() {
		return ix
	}
	return t.rebuildIndex()
}

// rebuildIndex compiles a fresh snapshot under the read lock (so it always
// observes a fully committed state, never a torn mid-commit one) and
// publishes it. idxMu keeps a rebuild herd from compiling the same version
// many times; a writer committing mid-build simply leaves the published
// index stale, and the next lookup rebuilds again.
func (t *Table) rebuildIndex() *index {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if ix := t.idx.Load(); ix != nil && ix.version == t.idxSeq.Load() {
		return ix
	}
	t.mu.RLock()
	ix := buildIndex(t.idxSeq.Load(), t.fieldWidths, t.ordered, 0)
	t.mu.RUnlock()
	t.idx.Store(ix)
	return ix
}

// SetWriteHook installs h as the per-row write interceptor (nil clears it).
// Fault injectors use this to make individual TCAM row writes fail the way a
// real switch driver's do.
func (t *Table) SetWriteHook(h WriteHook) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hook = h
}

// Generation returns the bulk-commit generation: it advances by one each
// time ApplyRowsAtomic or ApplyDelta completes successfully, and never on a
// failed or rolled-back commit. Invariant checks use it to assert a table is
// either fully old-generation or fully new-generation; "did anything commit
// since I last looked?" is Generation() != since (see doc.go).
func (t *Table) Generation() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.generation
}

// Version returns the content mutation counter. Unlike Generation it advances
// on every mutation — single-row operations and rollbacks included — so a
// caller holding a shadow copy of the installed population can use an
// unchanged Version as proof that no one else touched the table. The counter
// is conservative: a rolled-back commit bumps it even though the content is
// unchanged, which at worst forces one unnecessary full reconciliation.
func (t *Table) Version() uint64 { return t.version.Load() }

// Fingerprint digests the installed rows (match key, priority, action data)
// independent of entry IDs and install order: two tables holding the same
// logical population fingerprint equal. Used with Generation by the chaos
// invariant checks.
func (t *Table) Fingerprint() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return joinSorted(appendLines(make([]string, 0, len(t.ordered)), t.ordered))
}

// writeLocked consults the write hook for one physical row operation.
func (t *Table) writeLocked(op WriteOp) error {
	if t.hook == nil {
		return nil
	}
	return t.hook(op)
}

func (t *Table) validateFields(fields []Field) error {
	if len(fields) != len(t.fieldWidths) {
		return fmt.Errorf("%w: got %d fields, table %q has %d",
			ErrFieldCount, len(fields), t.name, len(t.fieldWidths))
	}
	for i, f := range fields {
		var m uint64
		if t.fieldWidths[i] >= 64 {
			m = ^uint64(0)
		} else {
			m = (uint64(1) << uint(t.fieldWidths[i])) - 1
		}
		if f.Value&^m != 0 || f.Mask&^m != 0 {
			return fmt.Errorf("%w: field %d value %#x mask %#x width %d",
				ErrFieldWidth, i, f.Value, f.Mask, t.fieldWidths[i])
		}
		if f.Value&^f.Mask != 0 {
			return fmt.Errorf("%w: field %d has value bits outside mask", ErrFieldWidth, i)
		}
	}
	return nil
}

// Insert installs a new entry and returns its ID. It fails with ErrCapacity
// when the table is full.
func (t *Table) Insert(fields []Field, priority int, data any) (int, error) {
	if err := t.validateFields(fields); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.capacity > 0 && len(t.ordered) >= t.capacity {
		return 0, &CapacityError{Table: t.name, Capacity: t.capacity, Installed: len(t.ordered), Requested: 1}
	}
	if err := t.writeLocked(WriteInsert); err != nil {
		return 0, err
	}
	e := t.newEntryLocked(fields, priority, data)
	t.installLocked(e)
	t.stats.inserts.Add(1)
	t.dirtyLocked()
	return e.ID, nil
}

// newEntryLocked allocates an entry with a fresh ID/seq; t.mu must be held.
func (t *Table) newEntryLocked(fields []Field, priority int, data any) *Entry {
	t.nextID++
	t.nextSeq++
	return newEntry(t.nextID, t.nextSeq, fields, priority, data)
}

// newEntry builds an entry with its cached sig bits. The fields slice is
// copied.
func newEntry(id, seq int, fields []Field, priority int, data any) *Entry {
	fs := make([]Field, len(fields))
	copy(fs, fields)
	sig := 0
	for _, f := range fs {
		sig += f.SigBits()
	}
	return &Entry{ID: id, Fields: fs, Priority: priority, Data: data, sig: sig, seq: seq}
}

// installLocked adds e to the resolution order and the key index; t.mu must
// be held.
func (t *Table) installLocked(e *Entry) {
	t.ordered = spliceOrdered(t.ordered, nil, []*Entry{e})
	t.keys.add(e)
}

// uninstallLocked is installLocked's inverse; t.mu must be held.
func (t *Table) uninstallLocked(e *Entry) {
	t.ordered = spliceOrdered(t.ordered, []*Entry{e}, nil)
	t.keys.remove(e)
}

// InsertPrefix installs a single-field entry matching the given prefix.
func (t *Table) InsertPrefix(p bitstr.Prefix, priority int, data any) (int, error) {
	return t.Insert([]Field{FieldFromPrefix(p)}, priority, data)
}

// less reports resolution order: more significant bits first (LPM), then
// higher priority, then earlier insertion.
func less(a, b *Entry) bool {
	if a.sig != b.sig {
		return a.sig > b.sig
	}
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.seq < b.seq
}

// orderedPos is e's position in a resolution-ordered slice, found by binary
// search: less is a strict total order, since seq is unique per store.
func orderedPos(ordered []*Entry, e *Entry) int {
	return sort.Search(len(ordered), func(i int) bool { return !less(ordered[i], e) })
}

// spliceOrdered removes gone (all present) from a resolution-ordered slice
// and inserts added, in one forward and one backward pass of block moves:
// O(n + k log n) for k spliced entries, where moving each one separately
// would shift the slice k times. gone, in any order, is located by binary
// search. added must be fresh entries, seqs ascending in slice order, as
// every caller's are; a delta of one priority then takes resolution order
// from a bucket pass on sig, comparing no entries (see freshOrder).
func spliceOrdered(ordered, gone, added []*Entry) []*Entry {
	if len(gone) > 0 {
		pos := make([]int, len(gone), len(gone)+1)
		for i, g := range gone {
			pos[i] = orderedPos(ordered, g)
		}
		slices.Sort(pos)
		pos = append(pos, len(ordered)) // the end of the last kept block
		w := pos[0]                     // ordered[:w] is final
		for i, p := range pos[:len(gone)] {
			w += copy(ordered[w:], ordered[p+1:pos[i+1]])
		}
		clear(ordered[w:])
		ordered = ordered[:w]
	}
	if len(added) > 0 {
		added = freshOrder(added)
		n := len(ordered)
		ordered = slices.Grow(ordered, len(added))[:n+len(added)]
		// Place added from the largest down: the block of ordered[:end]
		// above added[j] shifts up past the j+1 entries that precede it.
		end := n
		for j := len(added) - 1; j >= 0; j-- {
			p := orderedPos(ordered[:end], added[j])
			copy(ordered[p+j+1:], ordered[p:end])
			ordered[p+j] = added[j]
			end = p
		}
	}
	return ordered
}

// freshOrder returns fresh entries in resolution order. With one priority
// that is a stable counting sort on sig, descending, which keeps their seqs
// ascending; several priorities fall back to a comparison sort.
func freshOrder(added []*Entry) []*Entry {
	hi := 0
	for _, e := range added {
		if e.Priority != added[0].Priority {
			slices.SortFunc(added, cmpOrder)
			return added
		}
		hi = max(hi, e.sig)
	}
	next := make([]int, hi+2) // next[hi-sig]: the bucket's next slot
	for _, e := range added {
		next[hi-e.sig+1]++
	}
	for b := 1; b < len(next); b++ {
		next[b] += next[b-1]
	}
	out := make([]*Entry, len(added))
	for _, e := range added {
		out[next[hi-e.sig]] = e
		next[hi-e.sig]++
	}
	return out
}

// cmpOrder is less as a three-way comparison.
func cmpOrder(a, b *Entry) int {
	return cmp.Or(cmp.Compare(b.sig, a.sig), cmp.Compare(b.Priority, a.Priority), cmp.Compare(a.seq, b.seq))
}

// Delete removes the entry with the given ID, found by a scan.
func (t *Table) Delete(id int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := slices.IndexFunc(t.ordered, func(e *Entry) bool { return e.ID == id })
	if i < 0 {
		return fmt.Errorf("%w: id %d in table %q", ErrNotFound, id, t.name)
	}
	e := t.ordered[i]
	if err := t.writeLocked(WriteDelete); err != nil {
		return err
	}
	t.uninstallLocked(e)
	t.stats.deletes.Add(1)
	t.dirtyLocked()
	return nil
}

// UpdateData replaces the action data of an existing entry, found by a
// scan, in place. This
// models the cheap control-plane write that rewrites an action without
// touching the match key.
func (t *Table) UpdateData(id int, data any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := slices.IndexFunc(t.ordered, func(e *Entry) bool { return e.ID == id })
	if i < 0 {
		return fmt.Errorf("%w: id %d in table %q", ErrNotFound, id, t.name)
	}
	e := t.ordered[i]
	if err := t.writeLocked(WriteUpdate); err != nil {
		return err
	}
	e.Data = data
	t.stats.updates.Add(1)
	t.dirtyLocked()
	return nil
}

// Clear removes all entries. Each removed entry counts as one delete, since
// the control plane pays per-entry to invalidate TCAM rows.
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.deletes.Add(uint64(len(t.ordered)))
	clear(t.ordered)
	t.ordered = t.ordered[:0]
	clear(t.keys.heads)
	t.dirtyLocked()
}

// Payloads is the typed action-data view of one compiled snapshot. Ordinals
// returned by a LookupIndexBatch call index only the Payloads returned by
// that same call — both come from the same immutable snapshot, so holding
// them across later table mutations is safe, but mixing ordinals and
// payloads from different calls is not.
type Payloads struct {
	entries []*Entry
	vals    []uint64 // dense payload per ordinal, valid when typed
	typed   bool
}

// Value resolves an ordinal to its action data as a uint64 without boxing:
// a direct array load when the snapshot compiled typed (every entry's Data a
// uint64 or non-negative int — all population schemes and the monitor
// qualify), an interface assertion otherwise. It reports false for negative
// (miss) or out-of-snapshot ordinals and for non-integral action data.
func (p Payloads) Value(ord int32) (uint64, bool) {
	if ord < 0 || int(ord) >= len(p.entries) {
		return 0, false
	}
	if p.typed {
		return p.vals[ord], true
	}
	return intData(p.entries[ord].Data)
}

// Entry returns the snapshot entry behind an ordinal (nil for a miss
// ordinal), for callers that need more than the typed payload.
func (p Payloads) Entry(ord int32) *Entry {
	if ord < 0 || int(ord) >= len(p.entries) {
		return nil
	}
	return p.entries[ord]
}

// Typed reports whether Value resolves through the dense payload array.
func (p Payloads) Typed() bool { return p.typed }

// LookupIndexBatch is the table's one data-plane lookup: flat packs
// len(flat)/arity key tuples contiguously ([x0, y0, x1, y1, ...] for a
// two-field table), and each tuple resolves LPM-style (sig bits desc,
// priority desc, insertion seq asc) to the winning entry's dense snapshot
// ordinal (−1 on a miss) against one compiled snapshot, so a bulk commit
// racing with the batch is observed either entirely or not at all. A single
// key is a batch of one. dst is reused when it has the capacity, so a
// caller recycling its scratch buffer performs no allocation; the returned
// Payloads resolves ordinals to action data without per-sample interface
// assertions, and to the immutable snapshot entry via Payloads.Entry.
// Trailing elements of flat that do not form a whole tuple are ignored.
func (t *Table) LookupIndexBatch(flat []uint64, dst []int32) ([]int32, Payloads) {
	dst = sizeOrds(dst, len(flat)/len(t.fieldWidths))
	ix := t.loadIndex()
	ix.resolveBatch(flat, dst)
	return dst, ix.payloads()
}

// sizeOrds returns dst resized to n ordinals, reusing its backing array
// when the capacity allows.
func sizeOrds(dst []int32, n int) []int32 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]int32, n)
}

// LookupSnapshot implements Snapshotter: the current compiled snapshot's
// payload view plus its generation token. The token is the compiled-index
// sequence, which advances on every content change — bulk commits,
// single-row writes, rollbacks, and silent tampering alike — so a
// LookupCache keyed on it can never serve an ordinal from a superseded
// snapshot.
func (t *Table) LookupSnapshot() (Payloads, uint64) {
	ix := t.loadIndex()
	return ix.payloads(), ix.version
}

// LookupAll returns every matching entry in resolution order. This is the
// reference linear scan the compiled index is differentially tested against;
// it deliberately bypasses the index and takes the table lock, so it is no
// data-plane path.
func (t *Table) LookupAll(keys ...uint64) []*Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(keys) != len(t.fieldWidths) {
		return nil
	}
	var out []*Entry
	for _, e := range t.ordered {
		if matchAll(e.Fields, keys) {
			out = append(out, e)
		}
	}
	return out
}

func matchAll(fields []Field, keys []uint64) bool {
	for i, f := range fields {
		if !f.Matches(keys[i]) {
			return false
		}
	}
	return true
}

// Entries returns a snapshot of all entries in resolution order.
func (t *Table) Entries() []*Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Entry, len(t.ordered))
	copy(out, t.ordered)
	return out
}

// ApplyRowsAtomic reconciles the table contents toward the given rows with
// the minimum number of TCAM writes: rows whose match key and action data
// are already installed cost nothing, rows whose key exists but whose data
// changed cost one action rewrite, and only genuinely new/stale rows cost an
// insert/delete. This models a real switch driver, which diffs against its
// shadow copy instead of re-flashing the table (and is what keeps the
// paper's Table II write counts low). The diff runs against the physical
// entries, so it is also the anti-entropy repair: silently corrupted
// payloads are rewritten, ghost rows deleted and dropped rows reinstalled.
//
// The reconciliation is transactional: it is staged against a shadow
// snapshot of the table, and on any row-write failure the table (entries,
// counters, generation) is restored to its pre-call state. This models
// rebuilding the calculation population into a shadow generation and
// committing it atomically, so a data-plane lookup never observes a
// partially populated table.
func (t *Table) ApplyRowsAtomic(rows []Row) (writes int, err error) {
	for _, r := range rows {
		if err := t.validateFields(r.Fields); err != nil {
			return 0, err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.applyRowsAtomicLocked(rows)
}

// applyRowsAtomicLocked is ApplyRowsAtomic on validated rows; t.mu must be
// held.
func (t *Table) applyRowsAtomicLocked(rows []Row) (writes int, err error) {
	snap := t.snapshotLocked()
	writes, err = t.applyRowsLocked(rows)
	if err != nil {
		t.restoreLocked(snap)
		return 0, err
	}
	t.generation++
	t.dirtyLocked()
	return writes, nil
}

// applyRowsLocked is ApplyRowsAtomic's reconciliation. On a row-write
// failure it returns immediately with earlier writes applied and claims
// left set; the caller restores the snapshot, which discards those entries.
// t.mu must be held.
func (t *Table) applyRowsLocked(rows []Row) (writes int, err error) {
	if t.capacity > 0 && len(rows) > t.capacity {
		return 0, &CapacityError{Table: t.name, Capacity: t.capacity, Installed: len(t.ordered), Requested: len(rows)}
	}
	// Each target row claims the oldest unclaimed entry under its key; rows
	// left without one are inserts, entries left unclaimed are stale.
	var toInsert []Row
	for _, r := range rows {
		e := t.keys.claim(r.Fields, r.Priority, keyHash(r.Fields, r.Priority))
		if e == nil {
			toInsert = append(toInsert, r)
			continue
		}
		if !dataEqual(e.Data, r.Data) {
			if err := t.writeLocked(WriteUpdate); err != nil {
				return writes, err
			}
			e.Data = r.Data
			t.stats.updates.Add(1)
			writes++
		}
	}
	// Remove stale entries and clear the claims in one compaction pass.
	kept := t.ordered[:0]
	for _, e := range t.ordered {
		if e.claimed {
			e.claimed = false
			kept = append(kept, e)
			continue
		}
		if err := t.writeLocked(WriteDelete); err != nil {
			return writes, err
		}
		t.keys.remove(e)
		t.stats.deletes.Add(1)
		writes++
	}
	clear(t.ordered[len(kept):])
	t.ordered = kept
	// Install new entries, spliced into the resolution order at the end.
	added := make([]*Entry, 0, len(toInsert))
	for _, r := range toInsert {
		if err := t.writeLocked(WriteInsert); err != nil {
			return writes, err
		}
		e := t.newEntryLocked(r.Fields, r.Priority, r.Data)
		t.keys.add(e)
		added = append(added, e)
		t.stats.inserts.Add(1)
		writes++
	}
	t.ordered = spliceOrdered(t.ordered, nil, added)
	return writes, nil
}

// ApplyDelta applies an incremental reconciliation: deletes removes installed
// rows by match key, upserts installs new rows or rewrites the action data of
// rows already installed under the same key. Unlike ApplyRowsAtomic it never
// visits unchanged entries: each row is found through the table's persistent
// key index and builds no string, and the delta's inserts and removals are
// spliced into the resolution order in one pass, so the cost follows the
// delta, not the table, apart from that one pass of pointer moves.
//
// The operation is transactional: on any failure — a write-hook error, a
// capacity overflow, or a delete whose key is not installed (ErrDeltaConflict,
// meaning the caller's shadow copy is stale and a full reconciliation is
// required) — every applied row is rolled back and the table is left exactly
// as before the call. Duplicate keys in deletes consume one installed entry
// each. On success the end state is identical to the equivalent full
// ApplyRowsAtomic, generation advances, and writes counts physical row
// operations (deletes + inserts + data rewrites; an upsert whose data is
// already installed costs nothing).
func (t *Table) ApplyDelta(upserts, deletes []Row) (writes int, err error) {
	for _, r := range upserts {
		if err := t.validateFields(r.Fields); err != nil {
			return 0, err
		}
	}
	for _, r := range deletes {
		if err := t.validateFields(r.Fields); err != nil {
			return 0, err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.applyDeltaLocked(upserts, deletes)
}

// applyDeltaLocked is ApplyDelta on validated rows; t.mu must be held.
func (t *Table) applyDeltaLocked(upserts, deletes []Row) (writes int, err error) {
	// Rows enter and leave the key index as they are written; the
	// resolution order is spliced once, on success. Undo log:
	// each applied physical op records how to reverse itself. Rollback
	// replays it in reverse; re-indexing the original *Entry restores its
	// key-index chain position because its seq is preserved.
	type undoOp struct {
		op      WriteOp
		e       *Entry
		oldData any
	}
	var undo []undoOp
	var gone, added []*Entry
	savedID, savedSeq := t.nextID, t.nextSeq
	savedIns := t.stats.inserts.Load()
	savedDel := t.stats.deletes.Load()
	savedUpd := t.stats.updates.Load()
	rollback := func() {
		for i := len(undo) - 1; i >= 0; i-- {
			u := undo[i]
			switch u.op {
			case WriteDelete:
				t.keys.add(u.e)
			case WriteUpdate:
				u.e.Data = u.oldData
			case WriteInsert:
				t.keys.remove(u.e)
			}
		}
		t.nextID, t.nextSeq = savedID, savedSeq
		t.stats.inserts.Store(savedIns)
		t.stats.deletes.Store(savedDel)
		t.stats.updates.Store(savedUpd)
		t.dirtyLocked()
	}

	// Deletes first, freeing capacity for the inserts. Duplicate keys
	// consume one installed entry each, oldest first.
	for _, r := range deletes {
		e := t.keys.first(r.Fields, r.Priority, keyHash(r.Fields, r.Priority))
		if e == nil {
			rollback()
			return 0, fmt.Errorf("%w: delete of %q not installed in table %q",
				ErrDeltaConflict, matchKey(r.Fields, r.Priority), t.name)
		}
		if err := t.writeLocked(WriteDelete); err != nil {
			rollback()
			return 0, err
		}
		t.keys.remove(e)
		gone = append(gone, e)
		t.stats.deletes.Add(1)
		writes++
		undo = append(undo, undoOp{op: WriteDelete, e: e})
	}
	for _, r := range upserts {
		if e := t.keys.first(r.Fields, r.Priority, keyHash(r.Fields, r.Priority)); e != nil {
			if dataEqual(e.Data, r.Data) {
				continue
			}
			if err := t.writeLocked(WriteUpdate); err != nil {
				rollback()
				return 0, err
			}
			undo = append(undo, undoOp{op: WriteUpdate, e: e, oldData: e.Data})
			e.Data = r.Data
			t.stats.updates.Add(1)
			writes++
			continue
		}
		if installed := len(t.ordered) - len(gone) + len(added); t.capacity > 0 && installed >= t.capacity {
			rollback()
			return 0, &CapacityError{Table: t.name, Capacity: t.capacity, Installed: installed, Requested: 1}
		}
		if err := t.writeLocked(WriteInsert); err != nil {
			rollback()
			return 0, err
		}
		e := t.newEntryLocked(r.Fields, r.Priority, r.Data)
		t.keys.add(e)
		added = append(added, e)
		t.stats.inserts.Add(1)
		writes++
		undo = append(undo, undoOp{op: WriteInsert, e: e})
	}
	t.ordered = spliceOrdered(t.ordered, gone, added)
	t.generation++
	t.dirtyLocked()
	return writes, nil
}

// tableSnapshot captures the mutable table state for rollback, write
// counters included.
type tableSnapshot struct {
	ordered []*Entry
	nextID  int
	nextSeq int
	inserts uint64
	deletes uint64
	updates uint64
}

// snapshotLocked deep-copies the entries (Field slices are immutable and
// shared; Data is copied by value at the Entry level, which is enough
// because updates replace Data rather than mutating through it).
func (t *Table) snapshotLocked() tableSnapshot {
	snap := tableSnapshot{
		ordered: make([]*Entry, len(t.ordered)),
		nextID:  t.nextID,
		nextSeq: t.nextSeq,
		inserts: t.stats.inserts.Load(),
		deletes: t.stats.deletes.Load(),
		updates: t.stats.updates.Load(),
	}
	copies := make([]Entry, len(t.ordered)) // one allocation for the whole snapshot
	for i, e := range t.ordered {
		c := &copies[i]
		*c = *e
		snap.ordered[i] = c
	}
	return snap
}

// restoreLocked reinstates a snapshot, re-indexing its entry copies.
func (t *Table) restoreLocked(snap tableSnapshot) {
	t.ordered = snap.ordered
	t.keys.reset(snap.ordered)
	t.nextID = snap.nextID
	t.nextSeq = snap.nextSeq
	t.stats.inserts.Store(snap.inserts)
	t.stats.deletes.Store(snap.deletes)
	t.stats.updates.Store(snap.updates)
	t.dirtyLocked()
}

// matchKey serialises a row's match fields and priority into the canonical
// key that fingerprints, read-backs and error messages carry.
func matchKey(fields []Field, priority int) string {
	var buf [80]byte
	return string(appendKey(buf[:0], fields, priority))
}

// appendKey appends matchKey's rendering to b: each field as hex
// value/mask closed by ';', then the decimal priority.
func appendKey(b []byte, fields []Field, priority int) []byte {
	for _, f := range fields {
		b = strconv.AppendUint(b, f.Value, 16)
		b = append(b, '/')
		b = strconv.AppendUint(b, f.Mask, 16)
		b = append(b, ';')
	}
	return strconv.AppendInt(b, int64(priority), 10)
}

// appendLines appends Fingerprint's "key=data" line for each entry,
// rendering through one reused buffer: one allocation per line.
func appendLines(lines []string, es []*Entry) []string {
	var buf []byte
	for _, e := range es {
		buf = fmt.Append(append(appendKey(buf[:0], e.Fields, e.Priority), '='), e.Data)
		lines = append(lines, string(buf))
	}
	return lines
}

// joinSorted renders lines in Fingerprint's format: sorted, newline-joined.
func joinSorted(lines []string) string {
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// dataEqual compares action data without panicking on non-comparable types.
func dataEqual(a, b any) bool {
	return reflect.DeepEqual(a, b)
}

// Row is the insert-time description of an entry, used by the bulk writes
// (ApplyRowsAtomic, ApplyDelta).
type Row struct {
	Fields   []Field
	Priority int
	Data     any
}

// RowFromPrefix builds a single-field Row from a prefix.
func RowFromPrefix(p bitstr.Prefix, data any) Row {
	return Row{Fields: []Field{FieldFromPrefix(p)}, Data: data}
}

// String renders a short human-readable summary.
func (t *Table) String() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "tcam %q: %d", t.name, len(t.ordered))
	if t.capacity > 0 {
		fmt.Fprintf(&b, "/%d", t.capacity)
	}
	b.WriteString(" entries")
	return b.String()
}
