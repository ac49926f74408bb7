package tcam

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// randomField draws a prefix-shaped field of a width-bit key: any prefix
// length from 0 to width.
func randomField(rng *rand.Rand, width int) Field {
	sig := rng.Intn(width + 1)
	if sig == 0 {
		return Field{}
	}
	mask := ^uint64(0) << uint(64-sig) >> uint(64-width)
	return Field{Value: rng.Uint64() & mask, Mask: mask}
}

// TestSpliceOrderedMatchesStableSort checks spliceOrdered against a stable
// sort of the union: mixed sig (two 64-bit fields reach 128), one or several
// priorities per delta, added rows repeating installed keys, and removals
// in any order, at both ends included.
func TestSpliceOrderedMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		widths := [][]int{{8}, {64, 64}, {3, 61}}[trial%3]
		seq := 0
		fresh := func(prios int) *Entry {
			fs := make([]Field, len(widths))
			for i, w := range widths {
				fs[i] = randomField(rng, w)
			}
			seq++
			return newEntry(seq, seq, fs, rng.Intn(prios), uint64(seq))
		}
		var ordered []*Entry
		for n := rng.Intn(40); n > 0; n-- {
			ordered = append(ordered, fresh(3))
		}
		sort.SliceStable(ordered, func(i, j int) bool { return less(ordered[i], ordered[j]) })

		var gone, kept []*Entry
		for i, e := range ordered {
			if rng.Intn(4) == 0 || (i == 0 || i == len(ordered)-1) && rng.Intn(2) == 0 {
				gone = append(gone, e)
			} else {
				kept = append(kept, e)
			}
		}
		rng.Shuffle(len(gone), func(i, j int) { gone[i], gone[j] = gone[j], gone[i] })

		prios := 1 // one priority per delta, the bucket pass
		if trial%4 == 0 {
			prios = 3 // several, the comparison-sort fallback
		}
		var added []*Entry
		for n := rng.Intn(30); n > 0; n-- {
			e := fresh(prios)
			if len(ordered) > 0 && rng.Intn(5) == 0 { // repeat an installed key
				o := ordered[rng.Intn(len(ordered))]
				e = newEntry(e.ID, e.seq, o.Fields, e.Priority, e.Data)
			}
			added = append(added, e)
		}

		want := append(append([]*Entry(nil), kept...), added...)
		sort.SliceStable(want, func(i, j int) bool { return less(want[i], want[j]) })
		got := spliceOrdered(ordered, gone, append([]*Entry(nil), added...))
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d entries after the splice, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d position %d: seq %d, want seq %d", trial, i, got[i].seq, want[i].seq)
			}
		}
	}
}

// fullSortMoves is Rebalance's ranking as a stable sort of every row by
// (heat desc, incumbent first, key asc): the reference its selection must
// reproduce, move order included. s.mu must be held.
func fullSortMoves(s *TieredStore, heat RowHeat) (promote, demote []Row) {
	type scored struct {
		row Row
		key string
		h   uint64
		hot bool
	}
	var all []scored
	for _, e := range s.hot.Entries() {
		all = append(all, scored{Row{e.Fields, e.Priority, e.Data}, e.MatchKey(), heat(e.Fields, e.Priority), true})
	}
	for _, e := range s.cold.rows {
		all = append(all, scored{Row{e.Fields, e.Priority, e.Data}, e.MatchKey(), heat(e.Fields, e.Priority), false})
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].h != all[j].h {
			return all[i].h > all[j].h
		}
		if all[i].hot != all[j].hot {
			return all[i].hot
		}
		return all[i].key < all[j].key
	})
	want := min(s.hot.capacity, len(all))
	for _, sc := range all[:want] {
		if !sc.hot {
			promote = append(promote, sc.row)
		}
	}
	for _, sc := range all[want:] {
		if sc.hot {
			demote = append(demote, sc.row)
		}
	}
	return promote, demote
}

// applyMovesRowByRow commits moves with one SRAM splice per row, removals
// first, after the TCAM delta: the reference for Rebalance's single splice.
func applyMovesRowByRow(s *TieredStore, promote, demote []Row) {
	if len(promote) == 0 && len(demote) == 0 {
		return
	}
	if _, err := s.hot.ApplyDelta(promote, demote); err != nil {
		panic(err)
	}
	for _, r := range promote {
		s.cold.move([]Row{r}, nil)
	}
	for _, r := range demote {
		s.cold.move(nil, []Row{r})
	}
}

// sameRows compares move lists, order included; nil and empty are equal.
func sameRows(a, b []Row) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// tierDump lists each tier's entries in resolution order with their IDs
// and seqs.
func tierDump(s *TieredStore) string {
	var b strings.Builder
	for _, e := range s.hot.Entries() {
		fmt.Fprintf(&b, "tcam %d/%d %s=%v\n", e.ID, e.seq, e.MatchKey(), e.Data)
	}
	for _, e := range s.cold.rows {
		fmt.Fprintf(&b, "sram %d/%d %s=%v\n", e.ID, e.seq, e.MatchKey(), e.Data)
	}
	return b.String()
}

// TestRebalanceMatchesFullSort drives twin tiered stores through seeded
// deltas and ghost rows, rebalancing one with Rebalance and the other with
// the full-sort reference, and requires the same move lists, in order, and
// the same tier contents. Heats include all-zero and few-valued ones, so
// most rows tie, and the row count moves below, at and above the TCAM
// slice.
func TestRebalanceMatchesFullSort(t *testing.T) {
	var below, at, above int
	for _, widths := range [][]int{{6}, {3, 4}} {
		for _, slice := range []int{4, 12, 30} {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				ops := indexOps{rng: rng, widths: widths}
				s, err := NewTiered("sel", slice, 0, widths...)
				if err != nil {
					t.Fatal(err)
				}
				ref, _ := NewTiered("sel", slice, 0, widths...)
				for step := 0; step < 60; step++ {
					switch rng.Intn(3) {
					case 0:
						up, del := ops.delta(append(s.hot.Entries(), s.cold.rows...))
						_, err1 := s.ApplyDelta(up, del)
						_, err2 := ref.ApplyDelta(up, del)
						if (err1 == nil) != (err2 == nil) {
							t.Fatalf("twin deltas disagree: %v vs %v", err1, err2)
						}
					case 1:
						r := ops.row() // a ghost, TCAM-resident while the slice has room
						_ = s.TamperInsert(r.Fields, r.Priority, r.Data)
						_ = ref.TamperInsert(r.Fields, r.Priority, r.Data)
					}
					switch n := s.hot.Len() + s.cold.len(); {
					case n < slice:
						below++
					case n == slice:
						at++
					default:
						above++
					}
					salt := rng.Uint64()
					heat := []RowHeat{
						func([]Field, int) uint64 { return 0 },
						func(f []Field, p int) uint64 { return keyHash(f, p) % 3 },
						func(f []Field, p int) uint64 { return keyHash(f, p) ^ salt },
					}[rng.Intn(3)]

					s.mu.Lock()
					promote, demote := s.rankLocked(heat)
					s.mu.Unlock()
					ref.mu.Lock()
					wantUp, wantDown := fullSortMoves(ref, heat)
					applyMovesRowByRow(ref, wantUp, wantDown)
					ref.mu.Unlock()
					if !sameRows(promote, wantUp) || !sameRows(demote, wantDown) {
						t.Fatalf("widths %v slice %d seed %d step %d: moves\n+%v -%v\nwant\n+%v -%v",
							widths, slice, seed, step, promote, demote, wantUp, wantDown)
					}
					if _, err := s.Rebalance(heat); err != nil {
						t.Fatal(err)
					}
					if got, want := tierDump(s), tierDump(ref); got != want {
						t.Fatalf("widths %v slice %d seed %d step %d: tiers\n%s\nwant\n%s", widths, slice, seed, step, got, want)
					}
				}
			}
		}
	}
	if below == 0 || at == 0 || above == 0 {
		t.Fatalf("row counts below/at/above the slice: %d/%d/%d, want each covered", below, at, above)
	}
}
