package population

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/trie"
)

// adaAllocateReference is Algorithm 3 as a heap of single regions: every
// split pops the region of most mass, then most wild bits, then lowest low
// bound, and pushes its two halves with masses from the oracle; the result
// is sorted and compacted at the end. adaAllocate's sibling groups must
// reproduce it exactly.
func adaAllocateReference(t *trie.Trie, budget int) ([]bitstr.Prefix, error) {
	width := t.Width()
	root, err := bitstr.Root(width)
	if err != nil {
		return nil, err
	}
	total := t.AggregateHits()
	leaves := t.Leaves()
	if total == 0 || budget == 1 {
		return Subdivide(root, budget), nil
	}

	eps := float64(total) * adaTailEpsilon
	loIdx, hiIdx := 0, len(leaves)-1
	cum := 0.0
	for i, l := range leaves {
		cum += float64(l.Hits)
		if cum > eps {
			loIdx = i
			break
		}
	}
	cum = 0.0
	for i := len(leaves) - 1; i >= 0; i-- {
		cum += float64(leaves[i].Hits)
		if cum > eps {
			hiIdx = i
			break
		}
	}
	if hiIdx < loIdx {
		hiIdx = loIdx
	}
	lo, hi := leaves[loIdx].Prefix.Lo(), leaves[hiIdx].Prefix.Hi()

	cover, err := bitstr.CoverRange(lo, hi, width)
	if err != nil {
		return nil, err
	}

	var backstop []bitstr.Prefix
	for _, l := range leaves[:loIdx] {
		backstop = append(backstop, l.Prefix)
	}
	for _, l := range leaves[hiIdx+1:] {
		backstop = append(backstop, l.Prefix)
	}
	if len(backstop)+len(cover) > budget {
		backstop = []bitstr.Prefix{root}
		if len(cover)+1 > budget {
			return Subdivide(root, budget), nil
		}
	}
	refineBudget := budget - len(backstop)

	var done []bitstr.Prefix
	h := regionHeap(make([]region, 0, refineBudget+1))
	oracle := newMassOracle(leaves)
	push := func(p bitstr.Prefix) {
		if p.WildBits() == 0 {
			done = append(done, p)
			return
		}
		h.push(region{p: p, mass: oracle.mass(p)})
	}
	for _, p := range cover {
		push(p)
	}
	for len(done)+len(h) < refineBudget && len(h) > 0 {
		best := h.pop()
		lp, err := best.p.Left()
		if err != nil {
			return nil, err
		}
		rp, err := best.p.Right()
		if err != nil {
			return nil, err
		}
		push(lp)
		push(rp)
	}

	out := make([]bitstr.Prefix, 0, len(backstop)+len(done)+len(h))
	out = append(out, backstop...)
	out = append(out, done...)
	for _, r := range h {
		out = append(out, r.p)
	}
	slices.SortFunc(out, bitstr.Prefix.Compare)
	return slices.Compact(out), nil
}

// region is one candidate prefix in the reference's refinement loop.
type region struct {
	p    bitstr.Prefix
	mass float64
}

// regionHeap is a binary max-heap over (mass, wild bits, low bound): hottest
// first, coarser first on mass ties, lower range first as the final
// tiebreak.
type regionHeap []region

// before reports whether a pops before b.
func (a region) before(b region) bool {
	switch {
	case a.mass != b.mass:
		return a.mass > b.mass
	case a.p.WildBits() != b.p.WildBits():
		return a.p.WildBits() > b.p.WildBits()
	default:
		return a.p.Lo() < b.p.Lo()
	}
}

func (h *regionHeap) push(r region) {
	*h = append(*h, r)
	rs := *h
	for i := len(rs) - 1; i > 0; {
		parent := (i - 1) / 2
		if !rs[i].before(rs[parent]) {
			break
		}
		rs[i], rs[parent] = rs[parent], rs[i]
		i = parent
	}
}

func (h *regionHeap) pop() region {
	rs := *h
	top := rs[0]
	last := len(rs) - 1
	rs[0] = rs[last]
	rs = rs[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(rs) {
			break
		}
		if c+1 < len(rs) && rs[c+1].before(rs[c]) {
			c++
		}
		if !rs[c].before(rs[i]) {
			break
		}
		rs[i], rs[c] = rs[c], rs[i]
		i = c
	}
	*h = rs
	return top
}

// checkAllocate compares ADAAllocate with the reference at one budget.
func checkAllocate(t testing.TB, tr *trie.Trie, budget int) {
	t.Helper()
	got, err := ADAAllocate(tr, budget)
	if err != nil {
		t.Fatal(err)
	}
	want, err := adaAllocateReference(tr, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("width %d, budget %d: ADAAllocate (%d prefixes) differs from the reference (%d)\ngot  %v\nwant %v\nleaves %v",
			tr.Width(), budget, len(got), len(want), got, want, tr.Leaves())
	}
}

// drawHits sets fresh leaf hits in one of four shapes the refinement must
// order exactly: Zipf-ish counts, random hits of up to scale+1 bits (whose
// totals pass 2^53 from scale 50 up), powers of two (many equal masses
// across leaves and levels) and sparse hits (mostly zero-hit leaves). A
// zero-hit leaf can occur in every shape.
func drawHits(t testing.TB, tr *trie.Trie, rng *rand.Rand, shape int, scale uint) {
	setHits(t, tr, func(i int) uint64 {
		switch shape {
		case 0:
			return uint64(rng.Intn(1 + 1000/(1+i*i)))
		case 1:
			if rng.Intn(5) == 0 {
				return 0
			}
			return rng.Uint64() >> (63 - scale%64)
		case 2:
			if rng.Intn(6) == 0 {
				return 0
			}
			return 1 << rng.Intn(12)
		default:
			if rng.Intn(4) != 0 {
				return 0
			}
			return 1 + uint64(rng.Intn(50))
		}
	})
}

// TestADAAllocateMatchesReference is the seeded differential: for every
// width 1–64, tries reshaped by mutate and refilled with each drawHits
// shape, ADAAllocate must equal the single-region reference at budgets 1, 2,
// 3 and 4096 and at random small and medium budgets — 100k comparisons.
// Under the race detector, which finds nothing in one goroutine but slows
// the sweep tenfold, it runs a tenth of the steps.
func TestADAAllocateMatchesReference(t *testing.T) {
	steps := 260
	if raceEnabled {
		steps = 26
	}
	rng := rand.New(rand.NewSource(11))
	compared := 0
	for width := 1; width <= 64; width++ {
		tr, err := trie.NewInitial(1+rng.Intn(48), width)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < steps; step++ {
			mutate(tr, rng)
			if rng.Intn(3) != 0 {
				drawHits(t, tr, rng, rng.Intn(4), 50+uint(rng.Intn(14)))
			}
			budgets := []int{1, 2, 3, 1 + rng.Intn(16), 1 + rng.Intn(64), 1 + rng.Intn(600)}
			if step%16 == 0 {
				budgets = append(budgets, 4096)
			}
			for _, b := range budgets {
				checkAllocate(t, tr, b)
			}
			compared += len(budgets)
		}
	}
	if !raceEnabled && compared < 100_000 {
		t.Fatalf("compared %d allocations, want at least 100k", compared)
	}
}

// FuzzADAAllocateMatchesReference drives the differential over a fuzzed
// seed, width, hit scale and budget, on a trie reshaped by mutate and
// refilled in the shape the seed picks.
func FuzzADAAllocateMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(17), uint8(10), uint16(4096))
	f.Add(int64(2), uint8(64), uint8(62), uint16(3))
	f.Add(int64(3), uint8(1), uint8(0), uint16(2))
	f.Add(int64(4), uint8(16), uint8(55), uint16(1024))
	f.Fuzz(func(t *testing.T, seed int64, width, scale uint8, budget uint16) {
		rng := rand.New(rand.NewSource(seed))
		tr, err := trie.NewInitial(1+rng.Intn(48), 1+int(width)%64)
		if err != nil {
			t.Fatal(err)
		}
		for step := rng.Intn(12); step >= 0; step-- {
			mutate(tr, rng)
		}
		drawHits(t, tr, rng, rng.Intn(4), uint(scale))
		checkAllocate(t, tr, 1+int(budget))
	})
}

// reshapedTrie builds a monitoring trie the way a deployment reshapes it:
// rounds of fresh hits from the sampler, each followed by Algorithm 2's
// rebalance and, while the trie is under maxLeaves, its expansion.
func reshapedTrie(b *testing.B, width, maxLeaves int, sampler func(rng *rand.Rand) func() uint64) *trie.Trie {
	b.Helper()
	tr, err := trie.NewInitial(12, width)
	if err != nil {
		b.Fatal(err)
	}
	next := sampler(rand.New(rand.NewSource(7)))
	for round := 0; ; round++ {
		tr.ResetHits()
		for i := 0; i < 20000; i++ {
			tr.Record(next())
		}
		if round == 11 {
			return tr
		}
		tr.Rebalance(0.2)
		if tr.NumLeaves() < maxLeaves {
			tr.Expand()
		}
	}
}

// BenchmarkADAAllocate times Algorithm 3 alone in two deployments' shapes:
// dataplane is a width-17, 4096-entry population over a 12–48-leaf trie
// reshaped under Zipf (s = 1.1) hits in the upper half of the domain;
// control is a width-16, 1024-entry population over a trie reshaped under a
// triangular peak.
func BenchmarkADAAllocate(b *testing.B) {
	cells := []struct {
		name          string
		width, budget int
		sampler       func(rng *rand.Rand) func() uint64
	}{
		{"dataplane", 17, 4096, func(rng *rand.Rand) func() uint64 {
			z := rand.NewZipf(rng, 1.1, 1, 1<<16-1)
			return func() uint64 { return 1<<16 | z.Uint64() }
		}},
		{"control", 16, 1024, func(rng *rand.Rand) func() uint64 {
			const peak, half = 40000, 3000
			return func() uint64 { return uint64(peak - half + rng.Intn(half) + rng.Intn(half)) }
		}},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			tr := reshapedTrie(b, c.width, 48, c.sampler)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ADAAllocate(tr, c.budget); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.NumLeaves()), "leaves")
		})
	}
}
