package population

import (
	"cmp"
	"slices"

	"github.com/ada-repro/ada/internal/bitstr"
)

// CheckUnary rebuilds the population a unary calculation table must hold
// from what it reads back, with no record of what was installed. Every
// population this package builds has three properties a read-back can be
// checked against: a row's result is f(rep.Pick(p)) of its own prefix p,
// the rows other than an all-wildcard catch-all are disjoint, and they tile
// one interval with no gap. So:
//
//   - every row's result is recomputed from its prefix;
//   - a row whose read-back result is wrong and that overlaps another row
//     is dropped: it is a ghost, or a row a ghost sits in (the catch-all,
//     which overlaps every row by design, is only recomputed);
//   - every interior gap in the cover is filled with the gap's prefix
//     cover, which never needs more rows than went missing.
//
// A row missing at either edge of the cover cannot be told apart from a
// working range that ends there, so it stays missing until the next build
// restores it. The result is strictly increasing under bitstr.Prefix.Compare.
func CheckUnary(read []UnaryEntry, f UnaryFunc, rep Representative) []UnaryEntry {
	rows := slices.Clone(read)
	// Containers first: a row follows every row that contains it.
	slices.SortFunc(rows, func(a, b UnaryEntry) int {
		return cmp.Or(cmp.Compare(a.P.Lo(), b.P.Lo()), cmp.Compare(a.P.Bits(), b.P.Bits()))
	})
	// Prefixes nest or are disjoint, so a row overlaps an earlier one exactly
	// when it starts inside the one reaching furthest.
	overlaps := make([]bool, len(rows))
	reach := -1
	for i, r := range rows {
		if reach >= 0 && r.P.Lo() <= rows[reach].P.Hi() {
			overlaps[i], overlaps[reach] = true, true
		}
		if reach < 0 || r.P.Hi() > rows[reach].P.Hi() {
			reach = i
		}
	}

	out := make([]UnaryEntry, 0, len(rows))
	var end uint64 // the highest value the kept rows other than the catch-all cover
	started := false
	for i, r := range rows {
		want := f(rep.Pick(r.P))
		catchAll := r.P.Bits() == 0
		if r.Result != want && overlaps[i] && !catchAll {
			continue
		}
		if !catchAll {
			if started && r.P.Lo() > end && r.P.Lo()-end > 1 {
				// end+1 <= Lo-1, both inside the width: CoverRange cannot fail.
				gap, _ := bitstr.CoverRange(end+1, r.P.Lo()-1, r.P.Width())
				for _, p := range gap {
					out = append(out, UnaryEntry{P: p, Result: f(rep.Pick(p))})
				}
			}
			if !started || r.P.Hi() > end {
				end = r.P.Hi()
			}
			started = true
		}
		out = append(out, UnaryEntry{P: r.P, Result: want})
	}
	slices.SortFunc(out, func(a, b UnaryEntry) int { return a.P.Compare(b.P) })
	return out
}
