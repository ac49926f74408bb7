package core

import (
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/trie"
)

// linearIntervalHeat is intervalHeat as a scan of every bin, the reference
// the binary-searched walk must match.
func linearIntervalHeat(bins []trie.Bin, lo, hi uint64) uint64 {
	var total uint64
	for _, b := range bins {
		blo, bhi := b.Prefix.Lo(), b.Prefix.Hi()
		if bhi < lo || blo > hi {
			continue
		}
		ovlo, ovhi := max(blo, lo), min(bhi, hi)
		total = satAdd(total, scaledMass(b.Hits, ovhi-ovlo+1, bhi-blo+1))
	}
	return total
}

// randomBins tiles a width-bit domain by splitting random leaves, the shape
// of a monitoring trie's leaves, with random hit counts (some zero, some
// near the top of uint64). Dropping bins leaves gaps, which the walk must
// also tolerate.
func randomBins(t *testing.T, rng *rand.Rand, width int) []trie.Bin {
	t.Helper()
	root, err := bitstr.Root(width)
	if err != nil {
		t.Fatal(err)
	}
	leaves := []bitstr.Prefix{root}
	for n := rng.Intn(40); n > 0; n-- {
		i := rng.Intn(len(leaves))
		if leaves[i].WildBits() == 0 {
			continue
		}
		l, _ := leaves[i].Left()
		r, _ := leaves[i].Right()
		leaves = append(leaves[:i], append([]bitstr.Prefix{l, r}, leaves[i+1:]...)...)
	}
	var bins []trie.Bin
	for _, p := range leaves {
		if rng.Intn(8) == 0 {
			continue
		}
		var hits uint64
		switch rng.Intn(4) {
		case 0:
		case 1:
			hits = rng.Uint64()
		default:
			hits = uint64(rng.Intn(1000))
		}
		bins = append(bins, trie.Bin{Prefix: p, Hits: hits})
	}
	return bins
}

// randomInterval draws [lo, hi] inside a width-bit domain: a prefix's span
// (what a calculation row covers), a point, or an arbitrary range.
func randomInterval(rng *rand.Rand, width int) (lo, hi uint64) {
	top := ^uint64(0)
	if width < 64 {
		top = uint64(1)<<uint(width) - 1
	}
	a, b := rng.Uint64()&top, rng.Uint64()&top
	switch rng.Intn(3) {
	case 0:
		p, _ := bitstr.New(a, rng.Intn(width+1), width)
		return p.Lo(), p.Hi()
	case 1:
		return a, a
	}
	return min(a, b), max(a, b)
}

// TestIntervalHeatMatchesLinearScan checks the binary-searched intervalHeat
// against a scan of every bin over random tilings and intervals, full 64-bit
// widths included.
func TestIntervalHeatMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		width := []int{1, 4, 8, 16, 33, 63, 64}[trial%7]
		bins := randomBins(t, rng, width)
		for q := 0; q < 50; q++ {
			lo, hi := randomInterval(rng, width)
			if got, want := intervalHeat(bins, lo, hi), linearIntervalHeat(bins, lo, hi); got != want {
				t.Fatalf("trial %d width %d [%#x, %#x]: intervalHeat %d, linear scan %d", trial, width, lo, hi, got, want)
			}
		}
	}
}
