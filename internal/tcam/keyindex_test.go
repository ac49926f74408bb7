package tcam

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// checkKeyIndex asserts that rows are in resolution order, that x answers
// every key exactly as a linear scan of them does, oldest first, that it
// holds nothing else, and that no claim outlived its reconciliation.
func checkKeyIndex(rows []*Entry, x *keyIndex) error {
	indexed := 0
	for _, head := range x.heads {
		for e := head; e != nil; e = e.next {
			indexed++
		}
	}
	if indexed != len(rows) {
		return fmt.Errorf("index holds %d entries, resolution order %d", indexed, len(rows))
	}
	for i, e := range rows {
		if i > 0 && !less(rows[i-1], e) {
			return fmt.Errorf("rows %q and %q out of resolution order", rows[i-1].MatchKey(), e.MatchKey())
		}
		if e.claimed {
			return fmt.Errorf("entry %q left claimed", e.MatchKey())
		}
	}
	checked := make(map[string]bool)
	for _, e := range rows {
		key := e.MatchKey()
		if checked[key] {
			continue
		}
		checked[key] = true
		var scan, got []*Entry
		for _, o := range rows {
			if sameKey(o.Fields, o.Priority, e.Fields, e.Priority) {
				scan = append(scan, o)
			}
		}
		h := keyHash(e.Fields, e.Priority)
		for o := x.heads[h]; o != nil; o = o.next {
			if sameKey(o.Fields, o.Priority, e.Fields, e.Priority) {
				got = append(got, o)
			}
		}
		if len(got) != len(scan) {
			return fmt.Errorf("key %q: index has %d entries, scan %d", key, len(got), len(scan))
		}
		for i := range scan {
			if got[i] != scan[i] {
				return fmt.Errorf("key %q: index entry %d is seq %d, scan has seq %d", key, i, got[i].seq, scan[i].seq)
			}
		}
		if f := x.first(e.Fields, e.Priority, h); f != scan[0] {
			return fmt.Errorf("key %q: first is not the oldest entry", key)
		}
	}
	return nil
}

// checkTableIndex is checkKeyIndex on a table's resolution order, plus a
// check that every installed entry has its own ID.
func checkTableIndex(tb *Table) error {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	ids := make(map[int]bool, len(tb.ordered))
	for _, e := range tb.ordered {
		if ids[e.ID] {
			return fmt.Errorf("ID %d installed twice", e.ID)
		}
		ids[e.ID] = true
	}
	return checkKeyIndex(tb.ordered, &tb.keys)
}

func checkTieredIndex(s *TieredStore) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := checkTableIndex(s.hot); err != nil {
		return fmt.Errorf("TCAM tier: %w", err)
	}
	if err := checkKeyIndex(s.cold.rows, &s.cold.keys); err != nil {
		return fmt.Errorf("SRAM tier: %w", err)
	}
	return nil
}

// indexOps draws rows from a small key space, so duplicate keys, repeated
// deletes and deletes of absent keys are common.
type indexOps struct {
	rng    *rand.Rand
	widths []int
}

func (o indexOps) row() Row {
	fs := make([]Field, len(o.widths))
	for i, w := range o.widths {
		bits := 1 + o.rng.Intn(3)
		if bits > w {
			bits = w
		}
		mask := uint64(1<<bits-1) << uint(w-bits)
		fs[i] = Field{Value: uint64(o.rng.Intn(1<<w)) & mask, Mask: mask}
	}
	return Row{Fields: fs, Priority: o.rng.Intn(2), Data: uint64(o.rng.Intn(4))}
}

func (o indexOps) rows(n int) []Row {
	out := make([]Row, n)
	for i := range out {
		out[i] = o.row()
	}
	return out
}

// delta picks deletes among the installed rows (some twice, some absent)
// and upserts that repeat keys.
func (o indexOps) delta(installed []*Entry) (upserts, deletes []Row) {
	for _, e := range installed {
		if o.rng.Intn(4) == 0 {
			d := Row{Fields: e.Fields, Priority: e.Priority}
			deletes = append(deletes, d)
			if o.rng.Intn(6) == 0 {
				deletes = append(deletes, d)
			}
		}
	}
	if o.rng.Intn(10) == 0 {
		deletes = append(deletes, o.row())
	}
	upserts = o.rows(o.rng.Intn(6))
	if len(upserts) > 0 && o.rng.Intn(3) == 0 {
		dup := upserts[0]
		dup.Data = uint64(o.rng.Intn(4))
		upserts = append(upserts, dup)
	}
	return upserts, deletes
}

// failingHook fails the nth row write from now (n < 1: never).
func failingHook(n int) WriteHook {
	return func(WriteOp) error {
		n--
		if n == 0 {
			return errors.New("injected row-write fault")
		}
		return nil
	}
}

// TestKeyIndexTableDifferential runs seeded operation sequences over every
// Table mutation path and checks the key index against a linear scan of the
// resolution order after each one.
func TestKeyIndexTableDifferential(t *testing.T) {
	for _, widths := range [][]int{{6}, {3, 4}} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := indexOps{rng: rng, widths: widths}
			tb := MustNew("idx", 24, widths...)
			for step := 0; step < 400; step++ {
				var what string
				switch op := rng.Intn(12); op {
				case 0:
					what = "Insert"
					r := ops.row()
					_, _ = tb.Insert(r.Fields, r.Priority, r.Data)
				case 1:
					what = "Delete"
					if es := tb.Entries(); len(es) > 0 {
						_ = tb.Delete(es[rng.Intn(len(es))].ID)
					}
				case 2, 3:
					what = "ApplyDelta"
					_, _ = tb.ApplyDelta(ops.delta(tb.Entries()))
				case 4:
					what = "ApplyDelta with a failing write"
					tb.SetWriteHook(failingHook(1 + rng.Intn(4)))
					_, _ = tb.ApplyDelta(ops.delta(tb.Entries()))
					tb.SetWriteHook(nil)
				case 5:
					what = "ApplyDelta over capacity"
					_, _ = tb.ApplyDelta(ops.rows(24), nil)
				case 6:
					what = "ApplyRowsAtomic"
					rows := ops.rows(rng.Intn(20))
					if len(rows) > 0 {
						rows = append(rows, rows[rng.Intn(len(rows))])
					}
					_, _ = tb.ApplyRowsAtomic(rows)
				case 7:
					what = "ApplyRowsAtomic restored"
					if rng.Intn(2) == 0 {
						tb.SetWriteHook(failingHook(1 + rng.Intn(6)))
						_, _ = tb.ApplyRowsAtomic(ops.rows(rng.Intn(20)))
						tb.SetWriteHook(nil)
					} else {
						_, _ = tb.ApplyRowsAtomic(ops.rows(25))
					}
				case 8:
					what = "TamperInsert/TamperData"
					r := ops.row()
					_ = tb.TamperInsert(r.Fields, r.Priority, r.Data)
					_ = tb.TamperData(r.Fields, r.Priority, uint64(9))
				case 9:
					what = "TamperDelete"
					if es := tb.Entries(); len(es) > 0 {
						e := es[rng.Intn(len(es))]
						_ = tb.TamperDelete(e.Fields, e.Priority)
					}
				case 10:
					what = "ApplyRowsAtomic repair"
					_, _ = tb.ApplyRowsAtomic(ops.rows(rng.Intn(20)))
				case 11:
					what = "Clear"
					if rng.Intn(4) == 0 {
						tb.Clear()
					}
				}
				if err := checkTableIndex(tb); err != nil {
					t.Fatalf("widths %v seed %d step %d (%s): %v", widths, seed, step, what, err)
				}
			}
		}
	}
}

// TestKeyIndexTieredDifferential is the same over a TieredStore: both tiers'
// indexes are checked after every delta, reconcile, rebalance and tamper.
func TestKeyIndexTieredDifferential(t *testing.T) {
	for _, widths := range [][]int{{6}, {3, 4}} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := indexOps{rng: rng, widths: widths}
			s, err := NewTiered("idx", 6, 24, widths...)
			if err != nil {
				t.Fatal(err)
			}
			all := func() []*Entry {
				s.mu.Lock()
				defer s.mu.Unlock()
				return append(s.hot.Entries(), s.cold.rows...)
			}
			for step := 0; step < 400; step++ {
				var what string
				switch op := rng.Intn(10); op {
				case 0, 1:
					what = "ApplyDelta"
					_, _ = s.ApplyDelta(ops.delta(all()))
				case 2:
					what = "ApplyDelta with a failing TCAM write"
					s.hot.SetWriteHook(failingHook(1 + rng.Intn(3)))
					_, _ = s.ApplyDelta(ops.delta(all()))
					s.hot.SetWriteHook(nil)
				case 3:
					what = "ApplyDelta over capacity"
					_, _ = s.ApplyDelta(ops.rows(24), nil)
				case 4:
					what = "ApplyRowsAtomic"
					rows := ops.rows(rng.Intn(20))
					if len(rows) > 0 {
						rows = append(rows, rows[rng.Intn(len(rows))])
					}
					if rng.Intn(4) == 0 {
						s.hot.SetWriteHook(failingHook(1 + rng.Intn(4)))
					}
					_, _ = s.ApplyRowsAtomic(rows)
					s.hot.SetWriteHook(nil)
				case 5:
					what = "Rebalance"
					salt := rng.Uint64()
					if rng.Intn(4) == 0 {
						s.hot.SetWriteHook(failingHook(1 + rng.Intn(3)))
					}
					_, _ = s.Rebalance(func(fields []Field, priority int) uint64 {
						return keyHash(fields, priority) ^ salt
					})
					s.hot.SetWriteHook(nil)
				case 6:
					what = "TamperInsert/TamperData"
					r := ops.row()
					_ = s.TamperInsert(r.Fields, r.Priority, r.Data)
					_ = s.TamperData(r.Fields, r.Priority, uint64(9))
				case 7:
					what = "TamperDelete"
					if es := all(); len(es) > 0 {
						e := es[rng.Intn(len(es))]
						_ = s.TamperDelete(e.Fields, e.Priority)
					}
				case 8:
					what = "ApplyRowsAtomic repair"
					_, _ = s.ApplyRowsAtomic(ops.rows(rng.Intn(20)))
				case 9:
					what = "ApplyDelta of deletes only"
					_, deletes := ops.delta(all())
					_, _ = s.ApplyDelta(nil, deletes)
				}
				if err := checkTieredIndex(s); err != nil {
					t.Fatalf("widths %v seed %d step %d (%s): %v", widths, seed, step, what, err)
				}
			}
		}
	}
}
