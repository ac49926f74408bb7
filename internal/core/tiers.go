// Tier placement for systems whose calculation engine is mounted on a
// tcam.TieredStore (Config.TieredTCAMEntries).
//
// The placement signal is the one the paper's control loop already owns: the
// monitoring trie's per-bin hit registers, read every round for Algorithm 2.
// Each calculation row covers a prefix interval of the operand domain; its
// heat is the hit mass of that interval, assuming traffic is uniform within
// each monitoring bin — the same within-bin-uniformity assumption Algorithm 2
// makes when it splits a bin in half. Rows are then ranked hottest-first and
// the TCAM tier keeps the top TieredTCAMEntries of them; everything colder
// serves from SRAM at identical results.
//
// For a binary system the row covers a rectangle (x-interval × y-interval)
// and the monitors are per-operand, so the joint mass is approximated by the
// product of the marginal masses — exact when the operands are independent,
// and a useful ranking either way.
package core

import (
	"math/bits"
	"sort"

	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/tcam"
	"github.com/ada-repro/ada/internal/trie"
)

// fieldInterval returns the [lo, hi] operand interval a prefix-shaped ternary
// field matches. ADA populations only install prefix fields; width bounds the
// wildcard expansion.
func fieldInterval(f tcam.Field, width int) (lo, hi uint64) {
	var wmask uint64
	if width >= 64 {
		wmask = ^uint64(0)
	} else {
		wmask = (uint64(1) << uint(width)) - 1
	}
	return f.Value, f.Value | (wmask &^ f.Mask)
}

// scaledMass returns hits·ov/span without overflow, via the 128-bit
// intermediate. span == 0 encodes a full 2^64-value interval (the only case
// where the true span does not fit in a uint64); ov == 0 likewise.
func scaledMass(hits, ov, span uint64) uint64 {
	if hits == 0 {
		return 0
	}
	if span == 0 {
		if ov == 0 { // the row covers the whole full-domain bin
			return hits
		}
		hi, _ := bits.Mul64(hits, ov) // hits·ov / 2^64
		return hi
	}
	if ov >= span {
		return hits
	}
	hi, lo := bits.Mul64(hits, ov)
	// ov < span guarantees hi < span, so Div64 cannot panic.
	q, _ := bits.Div64(hi, lo, span)
	return q
}

func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return ^uint64(0)
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return ^uint64(0)
	}
	return lo
}

// intervalHeat sums the hit mass the bins attribute to [lo, hi]: each
// overlapping bin contributes its hits scaled by the overlap fraction. bins
// are the trie's leaves — disjoint prefix tiles in ascending value order —
// so a binary search finds the first bin ending at or after lo, and the walk
// stops at the first bin starting past hi.
func intervalHeat(bins []trie.Bin, lo, hi uint64) uint64 {
	var total uint64
	first := sort.Search(len(bins), func(i int) bool { return bins[i].Prefix.Hi() >= lo })
	for _, b := range bins[first:] {
		blo, bhi := b.Prefix.Lo(), b.Prefix.Hi()
		if blo > hi {
			break
		}
		ovlo, ovhi := max(blo, lo), min(bhi, hi)
		// A +1 that wraps to 0 encodes a full 2^64-value interval, the
		// convention scaledMass expects.
		ov := ovhi - ovlo + 1
		span := bhi - blo + 1
		total = satAdd(total, scaledMass(b.Hits, ov, span))
	}
	return total
}

// placeTiers re-ranks a tiered calculation store's row placement from the
// tries' hit registers, one trie per match field: a row's heat is the
// product of the hit mass each field's interval covers in its trie. placed
// is false when the store is not tiered. The SRAM write counter is drained
// in every path — including a failed rebalance — so work that landed
// (populate-time spills, partial moves) is charged to the round that caused
// it.
func placeTiers(store tcam.Store, tries ...*trie.Trie) (controlplane.TierMoves, bool, error) {
	ts, ok := store.(*tcam.TieredStore)
	if !ok {
		return controlplane.TierMoves{}, false, nil
	}
	bins := make([][]trie.Bin, len(tries))
	for i, tr := range tries {
		bins[i] = tr.Leaves()
	}
	widths := ts.FieldWidths()
	moves, err := ts.Rebalance(func(fields []tcam.Field, _ int) uint64 {
		heat := uint64(1)
		for i, f := range fields {
			lo, hi := fieldInterval(f, widths[i])
			heat = satMul(heat, intervalHeat(bins[i], lo, hi))
		}
		return heat
	})
	return controlplane.TierMoves{
		Promotions: moves.Promotions,
		Demotions:  moves.Demotions,
		TCAMWrites: moves.TCAMWrites,
		SRAMWrites: ts.TakeSRAMWrites(),
	}, true, err
}
