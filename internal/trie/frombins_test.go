package trie

import (
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

// TestFromBinsRoundTrip rebalances a trie through many random rounds, then
// rebuilds it from its own leaves and checks the reconstruction is
// structurally identical — the property a restart that rebuilds the trie
// from the installed monitoring bins rests on.
func TestFromBinsRoundTrip(t *testing.T) {
	tr, err := NewInitial(12, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 40; round++ {
		for i := 0; i < 200; i++ {
			tr.Record(uint64(rng.Intn(40))) // skewed: lower values hot
		}
		tr.Rebalance(0.2)
		if round%5 == 4 {
			tr.Expand()
		}

		got, err := FromBins(tr.Width(), tr.Leaves())
		if err != nil {
			t.Fatalf("round %d: FromBins: %v", round, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("round %d: rebuilt trie invalid: %v", round, err)
		}
		a, b := tr.Leaves(), got.Leaves()
		if len(a) != len(b) {
			t.Fatalf("round %d: %d leaves rebuilt, want %d", round, len(b), len(a))
		}
		for i := range a {
			if a[i].Prefix.Compare(b[i].Prefix) != 0 || a[i].Hits != b[i].Hits {
				t.Fatalf("round %d leaf %d: got %v/%d, want %v/%d",
					round, i, b[i].Prefix, b[i].Hits, a[i].Prefix, a[i].Hits)
			}
		}
		if got.Depth() != tr.Depth() {
			t.Fatalf("round %d: depth %d, want %d", round, got.Depth(), tr.Depth())
		}
	}
}

func TestFromBinsValidation(t *testing.T) {
	p := func(s string) bitstr.Prefix {
		pr, err := bitstr.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	cases := []struct {
		name  string
		width int
		bins  []Bin
	}{
		{"empty", 3, nil},
		{"bad width", 4, []Bin{{Prefix: p("0xx")}, {Prefix: p("1xx")}}},
		{"gap", 3, []Bin{{Prefix: p("00x")}, {Prefix: p("1xx")}}},
		{"overlap", 3, []Bin{{Prefix: p("0xx")}, {Prefix: p("01x")}, {Prefix: p("1xx")}}},
	}
	for _, tc := range cases {
		if _, err := FromBins(tc.width, tc.bins); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	// The degenerate single-root partition is valid.
	root, _ := bitstr.Root(3)
	tr, err := FromBins(3, []Bin{{Prefix: root, Hits: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 1 || tr.TotalHits() != 5 {
		t.Errorf("root-only trie: %d leaves, %d hits", tr.NumLeaves(), tr.TotalHits())
	}
}
