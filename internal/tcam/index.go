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
//     wide, and a direct index otherwise: the key's top bits pick a root
//     descriptor and its next bits a cell of that descriptor's child table,
//     two loads whatever the skew of the spans (a third only below a child
//     whose stride reached wideCap). A single-field lookup is then one
//     resolve; a two-field lookup is two resolves plus a load from a
//     #Xprefixes×#Yprefixes grid of winning ordinals. At most one entry can
//     match a key per disjoint field set, so results are trivially
//     bit-identical to the reference resolution.
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
// Memory: a LUT holds 2^width int32 slots (256 KiB at 16 bits). A direct
// index over n spans holds 2^k ≤ 4n 8-byte root descriptors, one int32 cell
// per span, and one child table of at most 2^wideCap cells per root bucket
// or capped cell a span boundary splits: at most 2n per level, so
// O(2^k + n·2^wideCap·⌈width/wideCap⌉) at any width (a 3840-span width-17
// tiling: 64 KiB of descriptors and 15 KiB of cells). A trie holds one node
// per distinct masked bit per entry.
//
// The differential tests in index_test.go, typed_test.go and wide_test.go
// pin every form against LookupAll, the uncompiled reference scan.
package tcam

import "math/bits"

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

// wideCap bounds the stride of a direct index's child tables. A bucket
// whose finest span boundary lies more than wideCap bits below its top gets
// a 2^wideCap-cell child whose cells a boundary still splits recurse one
// level further, so a /64 row inside a wide bucket costs a few small
// tables rather than a 2^(bucket bits)-cell one.
const wideCap = 8

// span is one match interval [lo, hi] of a field and the slot it resolves
// to: the raw material for buildRangeSet.
type span struct {
	lo, hi uint64
	slot   int32
}

// rangeSet is one field's compiled disjoint prefix set. resolve maps a key
// to the owning prefix's slot, or −1 for a miss. A narrow field uses the
// dense lut: a single indexed load, nothing for the branch predictor to
// miss. A wide field uses a direct index of two loads. root[key>>shift] is
// the descriptor of the key's bucket: a base, a cell shift and a cell mask
// (see directDesc), and the slot is cells[base + (key>>cellShift)&mask]. A
// bucket that one span or a gap covers whole has mask 0 and points at that
// span's own cell (cells[1+i], or the miss cell cells[0]); a bucket that
// span boundaries split points at a child table as fine as its finest
// boundary. A child whose stride reached wideCap holds −2−d in each cell a
// boundary still splits, d indexing a further descriptor appended to root
// past the buckets.
type rangeSet struct {
	mask  uint64
	lut   []int32
	shift uint
	root  []uint64
	cells []int32
}

// resolve maps a key to its slot or −1. Key bits above the field width are
// ignored, matching Field.Matches and the trie walk. It inlines into the
// per-key callers (the grid and the tiered store's cold tier); batches go
// through resolveBatch, which picks the form once.
func (r *rangeSet) resolve(key uint64) int32 {
	key &= r.mask
	if r.lut != nil {
		return r.lut[key]
	}
	return resolveDirect(r.root, r.cells, r.shift, key)
}

// resolveBatch resolves keys[i] into dst[i], one tight loop per form.
func (r *rangeSet) resolveBatch(keys []uint64, dst []int32) {
	dst = dst[:len(keys)]
	mask := r.mask
	if lut := r.lut; lut != nil {
		for i, k := range keys {
			dst[i] = lut[k&mask]
		}
		return
	}
	root, cells, shift := r.root, r.cells, r.shift
	for i, k := range keys {
		dst[i] = resolveDirect(root, cells, shift, k&mask)
	}
}

// resolveDirect walks a direct index for a key already masked to the field.
func resolveDirect(root []uint64, cells []int32, shift uint, key uint64) int32 {
	d := root[key>>(shift&63)]
	for {
		c := cells[uint32(d)+uint32(key>>(d>>32&63))&uint32(d>>40)]
		if c >= -1 {
			return c
		}
		d = root[-2-c]
	}
}

// directDesc packs a child table's descriptor: its first cell in the low 32
// bits, the key shift that aligns its cells at bit 32, and the mask of its
// cell bits from bit 40 (wideCap ≤ 24).
func directDesc(base int, cellShift, cellBits uint) uint64 {
	return uint64(base) | uint64(cellShift)<<32 | (uint64(1)<<cellBits-1)<<40
}

// buildRangeSet compiles spans after verifying they are pairwise disjoint;
// it returns nil when they overlap (overlapping prefixes need the trie's
// LPM resolution) or there are none. Both forms are written straight from
// the spans, in any order and without sorting them; an overlap shows up as
// an already-claimed LUT key, bucket or cell.
func buildRangeSet(width int, spans []span) *rangeSet {
	if len(spans) == 0 {
		return nil
	}
	r := &rangeSet{mask: lowMask(width)}
	if width <= lutMaxBits {
		lut := make([]int32, 1<<uint(width))
		lut[0] = -1
		for n := 1; n < len(lut); n *= 2 { // fill with −1 by doubling copies
			copy(lut[n:], lut[:n])
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
	if !r.buildDirect(width, spans) {
		return nil
	}
	return r
}

// pendingBucket marks, while a direct index builds, a root bucket that
// spans cover only in part; the low bits hold the head of its span list.
const pendingBucket = 1 << 63

// spanLink chains the spans that cover a bucket or a capped cell in part.
type spanLink struct{ span, next int32 }

// directBuilder holds one direct index build's spans and span lists.
type directBuilder struct {
	r     *rangeSet
	spans []span
	links []spanLink
}

// buildDirect compiles spans into the direct form. The root has 2^k
// buckets, 2n < 2^k ≤ 4n for n spans, or one per key when the field is
// narrower. A span claims every bucket it covers whole and joins the span
// list of the at most two it covers in part; each such bucket then compiles
// to a child table.
func (r *rangeSet) buildDirect(width int, spans []span) bool {
	k := min(width, bits.Len(uint(len(spans)))+1)
	r.shift = uint(width - k)
	buckets := 1 << uint(k)
	r.root = make([]uint64, buckets)
	r.cells = make([]int32, 1+len(spans))
	r.cells[0] = -1
	b := directBuilder{r: r, spans: spans}
	tail := lowMask(int(r.shift))
	for i, s := range spans {
		r.cells[1+i] = s.slot
		for bk := s.lo >> r.shift; bk <= s.hi>>r.shift; bk++ {
			d := &r.root[bk]
			if lo := bk << r.shift; s.lo <= lo && lo|tail <= s.hi {
				if *d != 0 {
					return false
				}
				*d = directDesc(1+i, 0, 0)
				continue
			}
			head := int32(-1)
			if *d != 0 {
				if *d&pendingBucket == 0 {
					return false
				}
				head = int32(*d &^ pendingBucket)
			}
			b.links = append(b.links, spanLink{int32(i), head})
			*d = pendingBucket | uint64(len(b.links)-1)
		}
	}
	for bk := 0; bk < buckets; bk++ {
		if d := r.root[bk]; d&pendingBucket != 0 {
			desc, ok := b.node(uint64(bk)<<r.shift, r.shift, int32(d&^pendingBucket))
			if !ok {
				return false
			}
			r.root[bk] = desc
		}
	}
	return true
}

// node compiles the aligned block [lo, lo+2^sh) that the spans listed from
// head cover in part into a child table and returns its descriptor. The
// cells are as fine as the finest span boundary inside the block (its
// fewest trailing zeros), capped at 2^wideCap cells; under the cap every
// cell lies whole inside a span or a gap, above it a cell a boundary still
// splits compiles to a further node. A cell claimed twice is an overlap.
func (b *directBuilder) node(lo uint64, sh uint, head int32) (uint64, bool) {
	hi := lo | lowMask(int(sh))
	fine := sh
	for l := head; l >= 0; l = b.links[l].next {
		s := b.spans[b.links[l].span]
		if s.lo > lo {
			fine = min(fine, uint(bits.TrailingZeros64(s.lo)))
		}
		if s.hi < hi {
			fine = min(fine, uint(bits.TrailingZeros64(s.hi+1)))
		}
	}
	cb := min(sh-fine, wideCap)
	csh := sh - cb
	r := b.r
	base := len(r.cells)
	r.cells = append(r.cells, make([]int32, 1<<cb)...)
	cells := r.cells[base:]
	for j := range cells {
		cells[j] = -1
	}
	var split []int32 // per cell: head of the spans that cover it in part
	if csh > fine {
		split = make([]int32, len(cells))
		for j := range split {
			split[j] = -1
		}
	}
	tail := lowMask(int(csh))
	for l := head; l >= 0; l = b.links[l].next {
		si := b.links[l].span
		s := b.spans[si]
		for j := (max(s.lo, lo) - lo) >> csh; j <= (min(s.hi, hi)-lo)>>csh; j++ {
			if clo := lo + j<<csh; s.lo <= clo && clo|tail <= s.hi {
				if cells[j] != -1 || split != nil && split[j] >= 0 {
					return 0, false
				}
				cells[j] = s.slot
				continue
			}
			if split == nil || cells[j] != -1 {
				return 0, false
			}
			b.links = append(b.links, spanLink{si, split[j]})
			split[j] = int32(len(b.links) - 1)
		}
	}
	for j, h := range split {
		if h < 0 {
			continue
		}
		desc, ok := b.node(lo+uint64(j)<<csh, csh, h)
		if !ok {
			return 0, false
		}
		r.cells[base+j] = int32(-2 - len(r.root))
		r.root = append(r.root, desc)
	}
	return directDesc(base, csh, cb), true
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
		rs.resolveBatch(flat[:len(dst)], dst)
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
