package population

import (
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/trie"
)

// mutate applies one random leaf-hits / reshape step to tr.
func mutate(tr *trie.Trie, rng *rand.Rand) {
	switch rng.Intn(10) {
	case 0:
		tr.Rebalance(0.2)
	case 1:
		if tr.NumLeaves() < 128 {
			tr.Expand()
		}
	case 2:
		tr.DecayHits()
	case 3:
		tr.ResetHits()
	default:
		hits := make([]uint64, tr.NumLeaves())
		for i := range hits {
			// Zipf-ish skew so rebalances actually fire.
			hits[i] = uint64(rng.Intn(1 + 1000/(1+i*i)))
		}
		if rng.Intn(2) == 0 {
			_ = tr.SetLeafHits(hits)
		} else {
			_ = tr.AddLeafHits(hits)
		}
	}
}

// TestMemoBuildOrder pins the order a delta-committing target's merge diff
// relies on: across reshaping sequences, every ADAUnary build lists strictly
// increasing prefixes under bitstr.Prefix.Compare, and every ADABinary build
// lists strictly increasing (x, y) pairs, x-major.
func TestMemoBuildOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tx, err := trie.NewInitial(16, 10)
	if err != nil {
		t.Fatal(err)
	}
	ty, err := trie.NewInitial(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	fu := func(x uint64) uint64 { return x * x }
	fb := func(x, y uint64) uint64 { return x * y }
	for step := 0; step < 120; step++ {
		mutate(tx, rng)
		if rng.Intn(2) == 0 {
			mutate(ty, rng)
		}
		ue, err := ADAUnary(tx, fu, 64, Midpoint)
		if err != nil {
			t.Fatal(err)
		}
		be, err := ADABinary(tx, ty, fb, 100, Midpoint)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(ue); i++ {
			if ue[i-1].P.Compare(ue[i].P) >= 0 {
				t.Fatalf("step %d: unary entries %v, %v out of order", step, ue[i-1].P, ue[i].P)
			}
		}
		for i := 1; i < len(be); i++ {
			a, b := be[i-1], be[i]
			if c := a.X.Compare(b.X); c > 0 || c == 0 && a.Y.Compare(b.Y) >= 0 {
				t.Fatalf("step %d: binary entries (%v,%v), (%v,%v) out of order", step, a.X, a.Y, b.X, b.Y)
			}
		}
	}
}
