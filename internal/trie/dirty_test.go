package trie

import (
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

func mustTrie(t *testing.T, m, width int) *Trie {
	t.Helper()
	tr, err := NewInitial(m, width)
	if err != nil {
		t.Fatalf("NewInitial(%d, %d): %v", m, width, err)
	}
	return tr
}

func TestNewInitialStartsClean(t *testing.T) {
	tr := mustTrie(t, 8, 8)
	if n := tr.NumDirty(); n != 0 {
		t.Fatalf("fresh trie has %d dirty prefixes, want 0", n)
	}
	if tr.ChangeSeq() != tr.CommittedSeq() {
		t.Fatalf("fresh trie ChangeSeq %d != CommittedSeq %d", tr.ChangeSeq(), tr.CommittedSeq())
	}
	if got := tr.Dirty(); got != nil {
		t.Fatalf("fresh trie Dirty() = %v, want nil", got)
	}
}

func TestSetLeafHitsMarksOnlyChanges(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	base := []uint64{10, 20, 30, 40}
	if err := tr.SetLeafHits(base); err != nil {
		t.Fatal(err)
	}
	if tr.NumDirty() != 4 {
		t.Fatalf("after first SetLeafHits: %d dirty, want 4", tr.NumDirty())
	}
	tr.CommitGeneration()
	seq := tr.ChangeSeq()

	// Identical snapshot: nothing changes.
	if err := tr.SetLeafHits(base); err != nil {
		t.Fatal(err)
	}
	if tr.NumDirty() != 0 {
		t.Fatalf("identical SetLeafHits marked %d dirty, want 0", tr.NumDirty())
	}
	if tr.ChangeSeq() != seq {
		t.Fatalf("identical SetLeafHits advanced ChangeSeq %d -> %d", seq, tr.ChangeSeq())
	}

	// One leaf changes: exactly one dirty prefix.
	if err := tr.SetLeafHits([]uint64{10, 21, 30, 40}); err != nil {
		t.Fatal(err)
	}
	if tr.NumDirty() != 1 {
		t.Fatalf("single-leaf change marked %d dirty, want 1", tr.NumDirty())
	}
	if tr.ChangeSeq() != seq+1 {
		t.Fatalf("single-leaf change ChangeSeq = %d, want %d", tr.ChangeSeq(), seq+1)
	}
	leaves := tr.Leaves()
	if got := tr.Dirty()[0]; got != leaves[1].Prefix {
		t.Fatalf("dirty prefix %v, want second leaf %v", got, leaves[1].Prefix)
	}
}

func TestAddResetDecayMarkOnlyChanges(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	if err := tr.AddLeafHits([]uint64{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if tr.NumDirty() != 0 {
		t.Fatalf("zero AddLeafHits marked %d dirty", tr.NumDirty())
	}
	if err := tr.AddLeafHits([]uint64{0, 5, 0, 7}); err != nil {
		t.Fatal(err)
	}
	if tr.NumDirty() != 2 {
		t.Fatalf("AddLeafHits marked %d dirty, want 2", tr.NumDirty())
	}
	tr.CommitGeneration()

	tr.DecayHits() // 0, 2, 0, 3 — only nonzero leaves change
	if tr.NumDirty() != 2 {
		t.Fatalf("DecayHits marked %d dirty, want 2", tr.NumDirty())
	}
	tr.CommitGeneration()

	tr.ResetHits()
	if tr.NumDirty() != 2 {
		t.Fatalf("ResetHits marked %d dirty, want 2", tr.NumDirty())
	}
	tr.CommitGeneration()
	tr.ResetHits() // already zero
	if tr.NumDirty() != 0 {
		t.Fatalf("ResetHits of zeroed trie marked %d dirty", tr.NumDirty())
	}
}

func TestRecordMarksContainingLeaf(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	tr.Record(0) // first leaf
	if tr.NumDirty() != 1 {
		t.Fatalf("Record marked %d dirty, want 1", tr.NumDirty())
	}
	if got, want := tr.Dirty()[0], tr.Leaves()[0].Prefix; got != want {
		t.Fatalf("Record dirty prefix %v, want %v", got, want)
	}
}

func TestRebalanceMarksParents(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	if err := tr.SetLeafHits([]uint64{100, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	tr.CommitGeneration()
	if !tr.Rebalance(0.2) {
		t.Fatal("Rebalance did not fire")
	}
	// The merge marks the cold pair's parent; the split marks the hot leaf
	// (which becomes the new parent). Both must overlap the dirty set.
	dirty := tr.Dirty()
	if len(dirty) < 2 {
		t.Fatalf("Rebalance marked %d dirty prefixes, want >= 2: %v", len(dirty), dirty)
	}
	overlapsDirty := func(p bitstr.Prefix) bool {
		for _, d := range dirty {
			if d.Overlaps(p) {
				return true
			}
		}
		return false
	}
	for _, b := range tr.Leaves() {
		if b.Prefix.Bits() != 2 && !overlapsDirty(b.Prefix) {
			t.Fatalf("reshaped leaf %v not covered by dirty set %v", b.Prefix, dirty)
		}
	}
}

func TestExpandMarksSplitLeaf(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	if err := tr.SetLeafHits([]uint64{1, 2, 3, 90}); err != nil {
		t.Fatal(err)
	}
	tr.CommitGeneration()
	hot := tr.MaxLeaf().Prefix
	if !tr.Expand() {
		t.Fatal("Expand did not fire")
	}
	found := false
	for _, d := range tr.Dirty() {
		if d == hot {
			found = true
		}
	}
	if !found {
		t.Fatalf("Expand dirty set %v does not include split leaf %v", tr.Dirty(), hot)
	}
}

func TestCloneCarriesDirtyState(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	if err := tr.SetLeafHits([]uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	c := tr.Clone()
	if c.NumDirty() != tr.NumDirty() {
		t.Fatalf("clone has %d dirty, original %d", c.NumDirty(), tr.NumDirty())
	}
	if c.ChangeSeq() != tr.ChangeSeq() || c.Generation() != tr.Generation() || c.CommittedSeq() != tr.CommittedSeq() {
		t.Fatal("clone did not carry seq/gen/commitSeq")
	}
	// Mutating the clone must not touch the original's dirty set.
	c.Record(0)
	if c.ChangeSeq() == tr.ChangeSeq() {
		t.Fatal("clone mutation advanced the original's ChangeSeq")
	}
	c.CommitGeneration()
	if tr.NumDirty() == 0 {
		t.Fatal("clone CommitGeneration cleared the original's dirty set")
	}
}

func TestCommitGenerationClears(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	if err := tr.SetLeafHits([]uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	g := tr.Generation()
	if got := tr.CommitGeneration(); got != g+1 {
		t.Fatalf("CommitGeneration = %d, want %d", got, g+1)
	}
	if tr.NumDirty() != 0 {
		t.Fatalf("dirty set not cleared: %d", tr.NumDirty())
	}
	if tr.ChangeSeq() != tr.CommittedSeq() {
		t.Fatal("CommittedSeq did not catch up to ChangeSeq")
	}
}

func TestAggregateHitsDoesNotDirty(t *testing.T) {
	tr := mustTrie(t, 8, 8)
	if err := tr.SetLeafHits([]uint64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	tr.CommitGeneration()
	seq := tr.ChangeSeq()
	tr.AggregateHits()
	if tr.NumDirty() != 0 || tr.ChangeSeq() != seq {
		t.Fatal("AggregateHits marked dirty state; it only touches internal nodes")
	}
}

// TestClonesNeverShareChangeSeq: two clones of one trie that mutate the same
// number of leaves to different content must not share a ChangeSeq, or a
// memo keyed on it would serve one clone's population for the other (two
// control rounds' shadow clones of one committed trie are exactly this).
func TestClonesNeverShareChangeSeq(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	a, b := tr.Clone(), tr.Clone()
	if err := a.SetLeafHits([]uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetLeafHits([]uint64{4, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if a.ChangeSeq() == b.ChangeSeq() {
		t.Fatalf("clones with different content share ChangeSeq %d", a.ChangeSeq())
	}
}
