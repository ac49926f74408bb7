package population

import (
	"slices"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

// subdivideStep is one split of the quadratic reference Subdivide: rescan
// the whole output for the prefix with the most wildcard bits, the first on
// ties, and split it, left half in place and right half appended. It
// reports false once every prefix is fully specified.
func subdivideStep(out []bitstr.Prefix) ([]bitstr.Prefix, bool) {
	best, bestWild := -1, 0
	for i, q := range out {
		if q.WildBits() > bestWild {
			best, bestWild = i, q.WildBits()
		}
	}
	if best < 0 {
		return out, false
	}
	l, err := out[best].Left()
	if err != nil {
		return out, false
	}
	r, err := out[best].Right()
	if err != nil {
		return out, false
	}
	out[best] = l
	return append(out, r), true
}

// subdivideReference is the quadratic Subdivide the level-by-level split
// replaced.
func subdivideReference(p bitstr.Prefix, m int) []bitstr.Prefix {
	if m < 1 {
		m = 1
	}
	out := []bitstr.Prefix{p}
	for ok := true; ok && len(out) < m; {
		out, ok = subdivideStep(out)
	}
	bitstr.SortPrefixes(out)
	return out
}

// TestSubdivideMatchesReference pins the level-by-level Subdivide to the
// quadratic reference for widths 1–17, every budget m = 0…5000 (past 2^width
// for the narrow widths) and a non-root prefix. It compares the emission
// order at every m, walking the reference one split at a time, and the
// sorted public result at a spread of budgets. Under the race detector,
// which finds nothing in one goroutine but slows the sweep tenfold, it stops
// at m = 1100, still past 2^width for widths up to 10.
func TestSubdivideMatchesReference(t *testing.T) {
	maxM := 5000
	if raceEnabled {
		maxM = 1100
	}
	var bases []bitstr.Prefix
	for w := 1; w <= 17; w++ {
		root, err := bitstr.Root(w)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, root)
	}
	bases = append(bases, bitstr.MustNew(0b1011<<13, 4, 17))
	spot := map[int]bool{0: true, 1: true, 2: true, 3: true, 5: true, 100: true, 511: true, 512: true, 513: true, 4095: true, 4096: true, 4097: true, 5000: true}
	for _, p := range bases {
		ref := []bitstr.Prefix{p}
		for m := 0; m <= maxM; m++ {
			if m > len(ref) {
				ref, _ = subdivideStep(ref)
			}
			if got := subdivideOrder(p, m); !slices.Equal(got, ref) {
				t.Fatalf("%v, m=%d: emission order %v, reference %v", p, m, got, ref)
			}
			if spot[m] {
				if got, want := Subdivide(p, m), subdivideReference(p, m); !slices.Equal(got, want) {
					t.Fatalf("%v, m=%d: Subdivide %v, reference %v", p, m, got, want)
				}
			}
		}
	}
}
