// Compiled read path: a per-version match index swapped in via
// atomic.Pointer so LookupIndexBatch never takes the table lock.
//
// The hardware TCAM resolves every key in O(1); a software model that scans
// every entry per key pays O(entries). The index compiles an entry set once
// per content change (mutation-rate work, not lookup-rate) into the
// cheapest form that resolves it exactly, and any number of goroutines
// resolve concurrently against the same immutable snapshot. A Table
// compiles its whole contents into one index; a TieredStore compiles each
// tier into one, with the SRAM tier's ordinals offset past the TCAM
// tier's so the two share one ordinal space.
//
// Every snapshot assigns each entry a dense ordinal (its position in
// resolution order, plus the base offset) and, when all action data is
// integral, a typed payload array, so batch callers receive plain int32
// ordinals and resolve results without per-sample interface assertions
// (see Table.LookupIndexBatch and Payloads).
//
// The compiled forms, in the order lookupOrd tries them:
//
//   - Entry sets whose per-field prefixes are pairwise disjoint — monitoring
//     bins tile the domain, calculation populations are trie leaves, and
//     joint binary populations are cross products of two tilings — compile
//     each field to a rangeSet: a dense lookup table (one indexed load per
//     key, no branches to mispredict) when the field is at most lutMaxBits
//     wide, a sorted range array searched by predecessor otherwise. A
//     single-field lookup is then one resolve; a two-field lookup is two
//     resolves plus a load from a #Xprefixes×#Yprefixes grid of winning
//     ordinals. At most one entry can match a key per disjoint field set, so
//     results are trivially bit-identical to the reference resolution.
//   - Any overlap (nested prefixes, duplicates, non-product two-field rows,
//     three or more fields) compiles a nested binary trie instead — one trie
//     level per key field, walked MSB-first along the key bits — so a lookup
//     costs O(total key width) node visits. Every entry whose field prefixes
//     contain the key lies on the walked paths, and candidates are compared
//     in the same (sig desc, priority desc, seq asc) order the reference
//     scan uses.
//   - Entries with a non-prefix ternary mask (wildcard bits above
//     significant bits) cannot be range- or trie-indexed; such sets are
//     scanned linearly in resolution order — still lock-free. Every
//     population scheme in this repo emits prefix masks, so the fallback
//     exists only for API completeness.
//
// The differential tests in index_test.go and typed_test.go pin every form
// against LookupAll, the uncompiled reference scan.
package tcam

import (
	"cmp"
	"math/bits"
	"slices"
)

// idxNode is one trie node. For the last key field, entry holds the best
// (resolution-order first) entry terminating at this node; for earlier
// fields, next roots the trie over the following field for entries whose
// current-field prefix ends here.
type idxNode struct {
	child [2]*idxNode
	next  *idxNode
	entry *Entry
}

// index is an immutable compiled snapshot of an entry set at one version.
// A Table's snapshot is built entirely under the table's read lock, so it
// is always a committed generation — never a torn intermediate state.
type index struct {
	version uint64
	widths  []int

	// entries holds the snapshot's entry copies in resolution order; an
	// entry's ordinal (Entry.ord) is its position here plus the build's
	// base offset.
	entries []*Entry
	// payload is the dense typed action-data array, parallel to entries,
	// valid when typed is set (every entry's Data is integral, see intData).
	payload []uint64
	typed   bool

	// Compiled forms; lookupOrd uses the first one set. rset resolves a
	// single-field set straight to ordinals. For two-field sets, rsetX/rsetY
	// resolve each key to its field's prefix slot and grid[slotX*gridNY+slotY]
	// holds the winning ordinal (−1 where no entry pairs the two prefixes).
	// root is the nested trie, built only when neither range form compiles.
	// With none set, lookups scan entries linearly.
	rset         *rangeSet
	rsetX, rsetY *rangeSet
	grid         []int32
	gridNY       int
	root         *idxNode
}

// lutMaxBits bounds the dense-LUT form of a rangeSet: a field up to 16 bits
// compiles to at most a 256 KiB int32 table, built in one pass over the
// domain at snapshot-compile time (mutation-rate work, not lookup-rate).
const lutMaxBits = 16

// span is one match interval [lo, hi] of a field and the slot it resolves
// to: the raw material for buildRangeSet.
type span struct {
	lo, hi uint64
	slot   int32
}

// rangeSet is one field's compiled disjoint prefix set. resolve maps a key
// to the owning prefix's slot, or −1 for a miss. Narrow fields use the
// dense lut (a single indexed load — nothing for the branch predictor to
// miss); wide fields binary-search the sorted range bounds.
type rangeSet struct {
	mask   uint64
	lut    []int32
	lo, hi []uint64
	slot   []int32
}

// resolve maps a key to its slot or −1. Key bits above the field width are
// ignored, matching Field.Matches and the trie walk.
func (r *rangeSet) resolve(key uint64) int32 {
	key &= r.mask
	if r.lut != nil {
		return r.lut[key]
	}
	lo := r.lo
	base, n := 0, len(lo)
	for n > 1 {
		half := n >> 1
		if lo[base+half] <= key {
			base += half
		}
		n -= half
	}
	if lo[base] > key || key > r.hi[base] {
		return -1
	}
	return r.slot[base]
}

// buildRangeSet compiles spans after verifying they are pairwise disjoint;
// it returns nil when they overlap (overlapping prefixes need the trie's
// LPM resolution) or there are none. A narrow field fills its LUT straight
// from the spans, an overlap showing up as an already-claimed key; a wide
// one sorts the spans by range start in place, in O(n log n).
func buildRangeSet(width int, spans []span) *rangeSet {
	if len(spans) == 0 {
		return nil
	}
	r := &rangeSet{mask: lowMask(width)}
	if width <= lutMaxBits {
		lut := make([]int32, 1<<uint(width))
		for i := range lut {
			lut[i] = -1
		}
		for _, s := range spans {
			for k := s.lo; k <= s.hi; k++ {
				if lut[k] >= 0 {
					return nil
				}
				lut[k] = s.slot
			}
		}
		r.lut = lut
		return r
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo <= spans[i-1].hi {
			return nil
		}
	}
	r.lo = make([]uint64, len(spans))
	r.hi = make([]uint64, len(spans))
	r.slot = make([]int32, len(spans))
	for i, s := range spans {
		r.lo[i], r.hi[i], r.slot[i] = s.lo, s.hi, s.slot
	}
	return r
}

// lowMask returns a mask with the low n bits set, handling n >= 64.
func lowMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// maskIsPrefix reports whether mask selects a contiguous run of the top
// bits of a width-bit field (the LPM shape the range sets and trie index).
func maskIsPrefix(mask uint64, width int) bool {
	sig := bits.OnesCount64(mask)
	return mask == lowMask(width)&^lowMask(width-sig)
}

// fieldSpan converts a prefix-shaped field to its match interval.
func fieldSpan(f Field, width int, slot int32) span {
	return span{lo: f.Value, hi: f.Value | (lowMask(width) &^ f.Mask), slot: slot}
}

// intData reports integral action data — a uint64 or a non-negative int —
// as a uint64; every population scheme and the monitor store such data.
func intData(d any) (uint64, bool) {
	switch v := d.(type) {
	case uint64:
		return v, true
	case int:
		if v >= 0 {
			return uint64(v), true
		}
	}
	return 0, false
}

// buildIndex compiles a resolution-ordered entry list whose ordinals start
// at base. Entries are copied into the snapshot so later UpdateData or
// ApplyRowsAtomic mutations of the live entries can never race with a reader
// holding an old snapshot.
func buildIndex(version uint64, widths []int, ordered []*Entry, base int32) *index {
	ix := &index{version: version, widths: widths, typed: true}
	ix.entries = make([]*Entry, len(ordered))
	ix.payload = make([]uint64, len(ordered))
	copies := make([]Entry, len(ordered)) // one allocation for the whole snapshot
	prefixes := true
	for i, e := range ordered {
		c := &copies[i]
		*c = *e
		c.ord = base + int32(i)
		ix.entries[i] = c
		if ix.typed {
			ix.payload[i], ix.typed = intData(c.Data)
		}
		for f, fd := range c.Fields {
			prefixes = prefixes && maskIsPrefix(fd.Mask, widths[f])
		}
	}
	if !ix.typed {
		ix.payload = nil
	}
	if len(ix.entries) == 0 || !prefixes {
		return ix // nothing to compile, or non-prefix masks: linear scan
	}
	switch len(widths) {
	case 1:
		spans := make([]span, len(ix.entries))
		for i, e := range ix.entries {
			spans[i] = fieldSpan(e.Fields[0], widths[0], e.ord)
		}
		ix.rset = buildRangeSet(widths[0], spans)
	case 2:
		ix.buildGrid()
	}
	if ix.rset == nil && ix.grid == nil {
		ix.root = &idxNode{}
		for _, e := range ix.entries {
			ix.insert(e)
		}
	}
	return ix
}

// buildGrid compiles the two-field fast path for product-shaped entry sets
// (the joint binary populations): each field's distinct prefixes must be
// pairwise disjoint, so a key resolves to at most one prefix slot per
// field, and the winning entry for a (slotX, slotY) pair is the
// resolution-order first entry carrying exactly those prefixes.
func (ix *index) buildGrid() {
	xs := make(map[Field]int32)
	ys := make(map[Field]int32)
	ex := make([]int32, len(ix.entries)) // entry → X slot
	ey := make([]int32, len(ix.entries))
	slotOf := func(m map[Field]int32, f Field) int32 {
		s, ok := m[f]
		if !ok {
			s = int32(len(m))
			m[f] = s
		}
		return s
	}
	for i, e := range ix.entries {
		ex[i] = slotOf(xs, e.Fields[0])
		ey[i] = slotOf(ys, e.Fields[1])
	}
	compile := func(m map[Field]int32, width int) *rangeSet {
		spans := make([]span, 0, len(m))
		for f, s := range m {
			spans = append(spans, fieldSpan(f, width, s))
		}
		return buildRangeSet(width, spans)
	}
	rx := compile(xs, ix.widths[0])
	if rx == nil {
		return
	}
	ry := compile(ys, ix.widths[1])
	if ry == nil {
		return
	}
	ny := len(ys)
	grid := make([]int32, len(xs)*ny)
	for i := range grid {
		grid[i] = -1
	}
	// Forward fill, first writer wins: entries are in resolution order, so
	// the first entry with a given prefix pair is the one resolution picks.
	for i, e := range ix.entries {
		g := &grid[int(ex[i])*ny+int(ey[i])]
		if *g < 0 {
			*g = e.ord
		}
	}
	ix.rsetX, ix.rsetY, ix.grid, ix.gridNY = rx, ry, grid, ny
}

// insert threads one entry through the nested trie. ordered iteration means
// the first entry reaching a terminal node is the best one for that exact
// match key, so later arrivals (same fields, lower resolution rank) are
// dropped here and never visited at lookup time.
func (ix *index) insert(e *Entry) {
	n := ix.root
	last := len(e.Fields) - 1
	for f, fd := range e.Fields {
		w := ix.widths[f]
		sig := bits.OnesCount64(fd.Mask)
		for i := 0; i < sig; i++ {
			b := (fd.Value >> uint(w-1-i)) & 1
			if n.child[b] == nil {
				n.child[b] = &idxNode{}
			}
			n = n.child[b]
		}
		if f == last {
			break
		}
		if n.next == nil {
			n.next = &idxNode{}
		}
		n = n.next
	}
	if n.entry == nil {
		n.entry = e
	}
}

// lookupOrd resolves keys (already arity-checked by the caller) to the
// winning entry's ordinal, or −1 on a miss, through the compiled form the
// snapshot holds.
func (ix *index) lookupOrd(keys []uint64) int32 {
	switch {
	case ix.rset != nil:
		return ix.rset.resolve(keys[0])
	case ix.grid != nil:
		sx := ix.rsetX.resolve(keys[0])
		if sx < 0 {
			return -1
		}
		sy := ix.rsetY.resolve(keys[1])
		if sy < 0 {
			return -1
		}
		return ix.grid[int(sx)*ix.gridNY+int(sy)]
	case ix.root != nil:
		if e := ix.walk(ix.root, 0, keys); e != nil {
			return e.ord
		}
		return -1
	}
	for _, e := range ix.entries {
		if matchAll(e.Fields, keys) {
			return e.ord
		}
	}
	return -1
}

// resolveBatch writes the ordinal of each packed key tuple in flat into
// dst, one tuple per element of dst.
func (ix *index) resolveBatch(flat []uint64, dst []int32) {
	if rs := ix.rset; rs != nil {
		for i := range dst {
			dst[i] = rs.resolve(flat[i])
		}
		return
	}
	arity := len(ix.widths)
	for i := range dst {
		dst[i] = ix.lookupOrd(flat[i*arity : (i+1)*arity])
	}
}

// payloads is the snapshot's typed action-data view.
func (ix *index) payloads() Payloads {
	return Payloads{entries: ix.entries, vals: ix.payload, typed: ix.typed}
}

// walk descends field f's trie along the key's bit path. Every node on the
// path corresponds to one prefix of the key present in the entry set;
// terminal candidates are compared with the same order the reference scan
// uses.
func (ix *index) walk(n *idxNode, f int, keys []uint64) *Entry {
	key, w := keys[f], ix.widths[f]
	lastField := f == len(ix.widths)-1
	var best *Entry
	for depth := 0; ; depth++ {
		if lastField {
			if n.entry != nil && (best == nil || less(n.entry, best)) {
				best = n.entry
			}
		} else if n.next != nil {
			if e := ix.walk(n.next, f+1, keys); e != nil && (best == nil || less(e, best)) {
				best = e
			}
		}
		if depth == w {
			return best
		}
		b := (key >> uint(w-1-depth)) & 1
		if n.child[b] == nil {
			return best
		}
		n = n.child[b]
	}
}
