package tcam

// keyIndex maps a row's match key — its fields and priority — to the
// entries installed under it, oldest first. Table and the SRAM tier each keep
// one current through every path that adds or removes an entry, so a delta
// commit finds its rows in O(1) instead of rebuilding a map over the whole
// table per call.
//
// Lookups build no string: the key hashes to a 64-bit value, the map holds
// the oldest entry of each hash, and entries sharing a hash (duplicate keys
// and genuine collisions alike) chain through Entry.next in ascending seq. A
// match is confirmed by comparing fields and priority exactly. The chain is
// intrusive, so the index allocates nothing per row beyond its map slots.
type keyIndex struct {
	heads map[uint64]*Entry
}

// keyHash mixes a row's fields and priority with the splitmix64 finaliser.
func keyHash(fields []Field, priority int) uint64 {
	h := mix64(uint64(priority) + 0x9e3779b97f4a7c15)
	for _, f := range fields {
		h = mix64(h ^ f.Value)
		h = mix64(h ^ f.Mask)
	}
	return h
}

// mix64 is the splitmix64 finaliser.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// sameKey reports whether two rows share fields and priority.
func sameKey(af []Field, ap int, bf []Field, bp int) bool {
	if ap != bp || len(af) != len(bf) {
		return false
	}
	for i, f := range af {
		if bf[i] != f {
			return false
		}
	}
	return true
}

// reset drops every entry and indexes entries afresh (after a snapshot
// restore replaced them all).
func (x *keyIndex) reset(entries []*Entry) {
	clear(x.heads)
	for _, e := range entries {
		e.next = nil
		x.add(e)
	}
}

// add indexes e at its seq position in its hash chain. Fresh inserts carry
// the newest seq and land at the tail; a rollback re-inserting an older
// entry lands back where it was.
func (x *keyIndex) add(e *Entry) {
	if x.heads == nil {
		x.heads = make(map[uint64]*Entry)
	}
	h := keyHash(e.Fields, e.Priority)
	head := x.heads[h]
	if head == nil || head.seq > e.seq {
		e.next = head
		x.heads[h] = e
		return
	}
	p := head
	for p.next != nil && p.next.seq < e.seq {
		p = p.next
	}
	e.next = p.next
	p.next = e
}

// remove unindexes e, which must be indexed.
func (x *keyIndex) remove(e *Entry) {
	h := keyHash(e.Fields, e.Priority)
	head := x.heads[h]
	if head == e {
		if e.next == nil {
			delete(x.heads, h)
		} else {
			x.heads[h] = e.next
		}
		e.next = nil
		return
	}
	for p := head; p != nil; p = p.next {
		if p.next == e {
			p.next = e.next
			e.next = nil
			return
		}
	}
}

// first returns the oldest entry installed under fields and priority whose
// claim flag is not set, or nil. h must be keyHash(fields, priority).
func (x *keyIndex) first(fields []Field, priority int, h uint64) *Entry {
	for e := x.heads[h]; e != nil; e = e.next {
		if !e.claimed && sameKey(e.Fields, e.Priority, fields, priority) {
			return e
		}
	}
	return nil
}

// claim returns first's entry with its claim flag set, so the next first or
// claim of the same key moves on to the next-oldest entry. Reconciliations
// claim the entries a target row consumes and must clear every flag they set
// before returning.
func (x *keyIndex) claim(fields []Field, priority int, h uint64) *Entry {
	e := x.first(fields, priority, h)
	if e != nil {
		e.claimed = true
	}
	return e
}
