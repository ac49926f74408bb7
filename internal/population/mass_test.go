package population

import (
	"math"
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/trie"
)

// massWithin is the reference mass: every leaf overlapping p, in value
// order, adds its float64 hits scaled by the share of it p covers. The
// massOracle must match it bit for bit.
func massWithin(leaves []trie.Bin, p bitstr.Prefix) float64 {
	mass := 0.0
	for _, l := range leaves {
		if l.Hits == 0 || !l.Prefix.Overlaps(p) {
			continue
		}
		switch {
		case p.ContainsPrefix(l.Prefix):
			mass += float64(l.Hits)
		case l.Prefix.ContainsPrefix(p):
			// Fraction of the leaf covered by p: 2^-(bits difference).
			frac := math.Exp2(float64(l.Prefix.Bits() - p.Bits()))
			mass += float64(l.Hits) * frac
		}
	}
	return mass
}

// checkMass compares the oracle with massWithin bit for bit on p.
func checkMass(t testing.TB, leaves []trie.Bin, o massOracle, p bitstr.Prefix) {
	t.Helper()
	want, got := massWithin(leaves, p), o.mass(p)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("mass(%v) = %v (%#x), massWithin = %v (%#x)\nleaves: %v",
			p, got, math.Float64bits(got), want, math.Float64bits(want), leaves)
	}
}

// randomPrefix draws a prefix of random length over width bits.
func randomPrefix(rng *rand.Rand, width int) bitstr.Prefix {
	v := rng.Uint64()
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	p, err := bitstr.New(v, rng.Intn(width+1), width)
	if err != nil {
		panic(err)
	}
	return p
}

// checkTrie compares the oracle with massWithin on every leaf, the root,
// every prefix inside a leaf down to a few bits finer, and random prefixes.
func checkTrie(t testing.TB, tr *trie.Trie, rng *rand.Rand) {
	t.Helper()
	leaves := tr.Leaves()
	o := newMassOracle(leaves)
	root, err := bitstr.Root(tr.Width())
	if err != nil {
		t.Fatal(err)
	}
	checkMass(t, leaves, o, root)
	for _, l := range leaves {
		checkMass(t, leaves, o, l.Prefix)
		for q := l.Prefix; q.WildBits() > 0 && q.Bits() < l.Prefix.Bits()+3; {
			if q, err = q.Right(); err != nil {
				t.Fatal(err)
			}
			checkMass(t, leaves, o, q)
		}
	}
	for i := 0; i < 200; i++ {
		checkMass(t, leaves, o, randomPrefix(rng, tr.Width()))
	}
}

func setHits(t testing.TB, tr *trie.Trie, hits func(i int) uint64) {
	t.Helper()
	hs := make([]uint64, tr.NumLeaves())
	for i := range hs {
		hs[i] = hits(i)
	}
	if err := tr.SetLeafHits(hs); err != nil {
		t.Fatal(err)
	}
}

func TestMassOracleMatchesMassWithin(t *testing.T) {
	cases := []struct {
		name  string
		width int
		bins  int
		hits  func(i int) uint64
	}{
		{"zero hits", 10, 16, func(int) uint64 { return 0 }},
		{"some zero-hit leaves", 10, 16, func(i int) uint64 { return uint64(i%3) * 7 }},
		{"skewed", 12, 32, func(i int) uint64 { return uint64(1000 / (1 + i*i)) }},
		{"width 64", 64, 16, func(i int) uint64 { return uint64(i*i + 1) }},
		{"width 64 one bin", 64, 1, func(int) uint64 { return 12345 }},
		{"total just below 2^53", 16, 8, func(i int) uint64 { return (1<<53 - 1) / 8 }},
		{"total at 2^53", 16, 8, func(int) uint64 { return 1 << 50 }},
		{"total above 2^53", 16, 8, func(i int) uint64 { return 1<<52 + uint64(i)*3 }},
		// Float partial sums past 2^53 round where the integer sum does not.
		{"total between 2^53 and 2^54", 16, 8, func(i int) uint64 {
			if i < 6 {
				return 1<<51 + 1
			}
			return 0
		}},
		{"64-bit registers", 64, 8, func(i int) uint64 { return math.MaxUint64 - uint64(i) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := trie.NewInitial(tc.bins, tc.width)
			if err != nil {
				t.Fatal(err)
			}
			setHits(t, tr, tc.hits)
			checkTrie(t, tr, rand.New(rand.NewSource(1)))
		})
	}
}

// TestMassOracleReshapedTries checks tries reshaped by Rebalance and Expand,
// whose leaves have mixed depths.
func TestMassOracleReshapedTries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, width := range []int{8, 16, 64} {
		tr, err := trie.NewInitial(16, width)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 60; step++ {
			mutate(tr, rng)
			checkTrie(t, tr, rng)
		}
	}
}

// FuzzMassOracle drives the oracle against massWithin over tries reshaped
// from a fuzzed seed, hit scale and width.
func FuzzMassOracle(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(16))
	f.Add(int64(2), uint8(52), uint8(64))
	f.Add(int64(3), uint8(63), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, scale, width uint8) {
		w := 1 + int(width)%64
		rng := rand.New(rand.NewSource(seed))
		tr, err := trie.NewInitial(1+rng.Intn(32), w)
		if err != nil {
			t.Fatal(err)
		}
		shift := uint(scale) % 64
		for step := 0; step < 8; step++ {
			switch rng.Intn(3) {
			case 0:
				tr.Rebalance(0.2)
			case 1:
				if tr.NumLeaves() < 64 {
					tr.Expand()
				}
			default:
				setHits(t, tr, func(i int) uint64 {
					if rng.Intn(4) == 0 {
						return 0
					}
					return rng.Uint64() >> (63 - shift)
				})
			}
			checkTrie(t, tr, rng)
		}
	})
}
