package trie

import "testing"

func mustTrie(t *testing.T, m, width int) *Trie {
	t.Helper()
	tr, err := NewInitial(m, width)
	if err != nil {
		t.Fatalf("NewInitial(%d, %d): %v", m, width, err)
	}
	return tr
}

// seqMoves reports whether op advanced tr's ChangeSeq.
func seqMoves(tr *Trie, op func()) bool {
	seq := tr.ChangeSeq()
	op()
	return tr.ChangeSeq() != seq
}

func TestSetLeafHitsMarksOnlyChanges(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	base := []uint64{10, 20, 30, 40}
	if !seqMoves(tr, func() { _ = tr.SetLeafHits(base) }) {
		t.Fatal("first SetLeafHits left ChangeSeq unchanged")
	}
	seq := tr.ChangeSeq()

	// Identical snapshot: nothing changes.
	if err := tr.SetLeafHits(base); err != nil {
		t.Fatal(err)
	}
	if tr.ChangeSeq() != seq {
		t.Fatalf("identical SetLeafHits advanced ChangeSeq %d -> %d", seq, tr.ChangeSeq())
	}

	// One leaf changes: one fresh value from the shared counter.
	if err := tr.SetLeafHits([]uint64{10, 21, 30, 40}); err != nil {
		t.Fatal(err)
	}
	if tr.ChangeSeq() != seq+1 {
		t.Fatalf("single-leaf change ChangeSeq = %d, want %d", tr.ChangeSeq(), seq+1)
	}
}

func TestAddResetDecayMarkOnlyChanges(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	if seqMoves(tr, func() { _ = tr.AddLeafHits([]uint64{0, 0, 0, 0}) }) {
		t.Fatal("zero AddLeafHits advanced ChangeSeq")
	}
	if !seqMoves(tr, func() { _ = tr.AddLeafHits([]uint64{0, 5, 0, 7}) }) {
		t.Fatal("AddLeafHits left ChangeSeq unchanged")
	}
	if !seqMoves(tr, tr.DecayHits) { // 0, 2, 0, 3
		t.Fatal("DecayHits left ChangeSeq unchanged")
	}
	if !seqMoves(tr, tr.ResetHits) {
		t.Fatal("ResetHits left ChangeSeq unchanged")
	}
	if seqMoves(tr, tr.ResetHits) {
		t.Fatal("ResetHits of zeroed trie advanced ChangeSeq")
	}
	if seqMoves(tr, tr.DecayHits) {
		t.Fatal("DecayHits of zeroed trie advanced ChangeSeq")
	}
}

func TestRecordMarksContainingLeaf(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	if !seqMoves(tr, func() { tr.Record(0) }) {
		t.Fatal("Record left ChangeSeq unchanged")
	}
	if got := tr.Leaves()[0].Hits; got != 1 {
		t.Fatalf("first leaf holds %d hits after Record(0), want 1", got)
	}
}

func TestRebalanceMarksParents(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	if err := tr.SetLeafHits([]uint64{25, 25, 25, 25}); err != nil {
		t.Fatal(err)
	}
	if seqMoves(tr, func() { tr.Rebalance(0.2) }) {
		t.Fatal("a balanced trie's Rebalance advanced ChangeSeq")
	}
	if err := tr.SetLeafHits([]uint64{100, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	fired := false
	if !seqMoves(tr, func() { fired = tr.Rebalance(0.2) }) || !fired {
		t.Fatalf("Rebalance fired=%v but ChangeSeq did not move", fired)
	}
}

func TestExpandMarksSplitLeaf(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	if err := tr.SetLeafHits([]uint64{1, 2, 3, 90}); err != nil {
		t.Fatal(err)
	}
	if !seqMoves(tr, func() {
		if !tr.Expand() {
			t.Fatal("Expand did not fire")
		}
	}) {
		t.Fatal("Expand left ChangeSeq unchanged")
	}
}

func TestCloneCarriesDirtyState(t *testing.T) {
	tr := mustTrie(t, 4, 8)
	if err := tr.SetLeafHits([]uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	c := tr.Clone()
	if c.ChangeSeq() != tr.ChangeSeq() {
		t.Fatalf("clone ChangeSeq %d, original %d", c.ChangeSeq(), tr.ChangeSeq())
	}
	// Mutating the clone must not touch the original's ChangeSeq, and a
	// later mutation of the original must not land on the clone's value.
	seq := tr.ChangeSeq()
	c.Record(0)
	if tr.ChangeSeq() != seq {
		t.Fatal("clone mutation advanced the original's ChangeSeq")
	}
	if c.ChangeSeq() == seq {
		t.Fatal("clone mutation left the clone's ChangeSeq unchanged")
	}
	tr.Record(0)
	if tr.ChangeSeq() == c.ChangeSeq() {
		t.Fatalf("original and clone share ChangeSeq %d after one mutation each", tr.ChangeSeq())
	}
}

func TestAggregateHitsDoesNotDirty(t *testing.T) {
	tr := mustTrie(t, 8, 8)
	if err := tr.SetLeafHits([]uint64{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if seqMoves(tr, func() { tr.AggregateHits() }) {
		t.Fatal("AggregateHits advanced ChangeSeq; it only touches internal nodes")
	}
}

// TestClonesNeverShareChangeSeq: two clones of one trie that mutate the same
// number of leaves to different content must not share a ChangeSeq, or a
// calculation target keyed on it would serve one clone's population for the
// other (two control rounds' shadow clones of one committed trie are
// exactly this).
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
