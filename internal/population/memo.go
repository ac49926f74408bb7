package population

import (
	"fmt"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/trie"
)

// This file implements the memoized form of Algorithm 3 used by the
// incremental control round. The contract with the plain builders is strict:
// given the same trie content, budget, and representative, the memoized path
// returns byte-identical output to ADAUnary/ADABinary — it only skips work
// it can prove unchanged, it never approximates. Two observations make that
// possible:
//
//  1. The trie exposes a ChangeSeq that takes a fresh value on every leaf
//     shape/mass mutation (unique across the trie and its clones), so equal
//     sequence numbers mean identical allocation inputs and the whole
//     previous result can be returned as-is.
//  2. An entry's result f(rep.Pick(p)) is a pure function of its prefix, so
//     the per-prefix evaluation cache never goes stale; only allocations
//     change, never the value attached to a kept prefix.
//
// Any other round reruns the allocation in full. That is cheap: the mass of
// a prefix is an O(log L) prefix-sum lookup over the L monitoring leaves
// (massOracle), so a per-prefix mass cache would cost more in map traffic
// than it saves.
//
// A memo instance is tied to one (operation, representative) pair: the
// function itself cannot be fingerprinted, so reusing a memo across
// different operations is a caller bug. It is likewise tied to one trie and
// its clones, whose change sequences it compares.

// AllocCache memoizes ADAAllocate across control rounds: the last
// allocation is reused wholesale while the trie's ChangeSeq, the budget and
// the width are unchanged. The zero value is ready to use.
type AllocCache struct {
	valid  bool
	width  int
	budget int
	seq    uint64 // trie ChangeSeq at fill time

	prefixes []bitstr.Prefix
}

// Invalidate drops all cached state; the next call recomputes from scratch.
func (c *AllocCache) Invalidate() { *c = AllocCache{} }

// ADAAllocateCached is ADAAllocate with wholesale reuse: identical output,
// and when nothing mutated since the cache was filled the cached slice is
// returned (reused reports it; the slice must not be mutated). A nil cache
// degrades to the plain ADAAllocate.
func ADAAllocateCached(t *trie.Trie, budget int, c *AllocCache) (prefixes []bitstr.Prefix, reused bool, err error) {
	if budget < 1 {
		return nil, false, fmt.Errorf("%w: got %d", ErrBudget, budget)
	}
	if c == nil {
		ps, err := ADAAllocate(t, budget)
		return ps, false, err
	}
	if c.valid && c.width == t.Width() && c.budget == budget && c.seq == t.ChangeSeq() {
		return c.prefixes, true, nil
	}
	ps, err := ADAAllocate(t, budget)
	if err != nil {
		c.Invalidate()
		return nil, false, err
	}
	*c = AllocCache{valid: true, width: t.Width(), budget: budget, seq: t.ChangeSeq(), prefixes: ps}
	return ps, false, nil
}

// UnaryMemo carries the memoized state for one unary (operation,
// representative) pair across control rounds. The zero value is ready.
type UnaryMemo struct {
	alloc AllocCache
	// evals accumulates f(rep.Pick(p)) per prefix; pure, so never stale.
	evals map[bitstr.Prefix]uint64

	valid   bool
	width   int
	budget  int
	rep     Representative
	seq     uint64
	entries []UnaryEntry
}

// UnaryMemoResult is one memoized population build.
type UnaryMemoResult struct {
	// Entries is the population, identical to what ADAUnary would return.
	// Prefixes are strictly increasing under bitstr.Prefix.Compare; a
	// delta-committing target merges consecutive builds in that order. On
	// the wholesale-reuse path it aliases the memo's cache, and every
	// recompute builds a fresh slice, so callers may retain it across calls
	// but must not mutate it.
	Entries []UnaryEntry
	// Seq is the trie ChangeSeq this population corresponds to.
	Seq uint64
	// Computed and Reused split the entry count into fresh function
	// evaluations and cache hits (the paper's Table II compute accounting).
	Computed int
	Reused   int
	// AllocReused reports that the whole allocation was reused because the
	// trie had not mutated since the previous build.
	AllocReused bool
}

// Invalidate drops all cached state.
func (m *UnaryMemo) Invalidate() { *m = UnaryMemo{} }

// ADAUnaryMemo is ADAUnary with cross-round memoization. Output is
// byte-identical to ADAUnary for the same inputs; m must be dedicated to
// this (f, rep) pair.
func ADAUnaryMemo(t *trie.Trie, f UnaryFunc, budget int, rep Representative, m *UnaryMemo) (UnaryMemoResult, error) {
	if m == nil {
		entries, err := ADAUnary(t, f, budget, rep)
		if err != nil {
			return UnaryMemoResult{}, err
		}
		return UnaryMemoResult{Entries: entries, Seq: t.ChangeSeq(), Computed: len(entries)}, nil
	}
	if m.valid && m.width == t.Width() && m.budget == budget && m.rep == rep && m.seq == t.ChangeSeq() {
		return UnaryMemoResult{
			Entries: m.entries, Seq: m.seq,
			Reused: len(m.entries), AllocReused: true,
		}, nil
	}
	if m.rep != rep || m.width != t.Width() {
		// A different representative (or domain) invalidates every cached
		// evaluation, not just the allocation.
		m.Invalidate()
	}
	prefixes, allocReused, err := ADAAllocateCached(t, budget, &m.alloc)
	if err != nil {
		m.Invalidate()
		return UnaryMemoResult{}, err
	}
	if m.evals == nil {
		m.evals = make(map[bitstr.Prefix]uint64, len(prefixes))
	}
	res := UnaryMemoResult{
		Entries:     make([]UnaryEntry, len(prefixes)),
		Seq:         t.ChangeSeq(),
		AllocReused: allocReused,
	}
	for i, p := range prefixes {
		r, ok := m.evals[p]
		if ok {
			res.Reused++
		} else {
			r = f(rep.Pick(p))
			m.evals[p] = r
			res.Computed++
		}
		res.Entries[i] = UnaryEntry{P: p, Result: r}
	}
	m.valid = true
	m.width, m.budget, m.rep = t.Width(), budget, rep
	m.seq = res.Seq
	m.entries = res.Entries
	return res, nil
}

// BinaryPair is the match key of one two-operand entry.
type BinaryPair struct {
	X, Y bitstr.Prefix
}

// BinaryMemo carries the memoized state for one binary (operation,
// representative) pair across control rounds. The zero value is ready.
type BinaryMemo struct {
	ax, ay AllocCache
	evals  map[BinaryPair]uint64

	valid      bool
	budget     int
	rep        Representative
	wx, wy     int
	seqX, seqY uint64
	entries    []BinaryEntry
}

// BinaryMemoResult is one memoized two-operand population build.
type BinaryMemoResult struct {
	// Entries is the population, identical to ADABinary's output: the x
	// prefixes' cross product with the y prefixes, x-major, so pairs are
	// strictly increasing under (X.Compare, then Y.Compare) — the order a
	// delta-committing target merges consecutive builds in. On the
	// wholesale-reuse path it aliases the memo's cache; as with
	// UnaryMemoResult.Entries, callers may retain it but must not mutate it.
	Entries []BinaryEntry
	// SeqX, SeqY are the operand tries' ChangeSeqs this build corresponds to.
	SeqX, SeqY uint64
	Computed   int
	Reused     int
	// AllocReused reports that both marginal allocations were reused.
	AllocReused bool
}

// Invalidate drops all cached state.
func (m *BinaryMemo) Invalidate() { *m = BinaryMemo{} }

// ADABinaryMemo is ADABinary with cross-round memoization. Output is
// byte-identical to ADABinary for the same inputs; m must be dedicated to
// this (f, rep) pair. The spread-proportional budget factoring is recomputed
// every call (it is cheap and depends on the full hit distribution); the
// per-marginal Algorithm 3 runs and the pair evaluations are memoized.
func ADABinaryMemo(tx, ty *trie.Trie, f BinaryFunc, budget int, rep Representative, m *BinaryMemo) (BinaryMemoResult, error) {
	if budget < 1 {
		return BinaryMemoResult{}, fmt.Errorf("%w: got %d", ErrBudget, budget)
	}
	if m == nil {
		entries, err := ADABinary(tx, ty, f, budget, rep)
		if err != nil {
			return BinaryMemoResult{}, err
		}
		return BinaryMemoResult{
			Entries: entries,
			SeqX:    tx.ChangeSeq(), SeqY: ty.ChangeSeq(), Computed: len(entries),
		}, nil
	}
	if m.valid && m.budget == budget && m.rep == rep &&
		m.wx == tx.Width() && m.wy == ty.Width() &&
		m.seqX == tx.ChangeSeq() && m.seqY == ty.ChangeSeq() {
		return BinaryMemoResult{
			Entries: m.entries,
			SeqX:    m.seqX, SeqY: m.seqY,
			Reused: len(m.entries), AllocReused: true,
		}, nil
	}
	if m.rep != rep || m.wx != tx.Width() || m.wy != ty.Width() {
		m.Invalidate()
	}
	mx, my := BinarySideBudgets(tx, ty, budget)
	xs, rx, err := ADAAllocateCached(tx, mx, &m.ax)
	if err != nil {
		m.Invalidate()
		return BinaryMemoResult{}, err
	}
	ys, ry, err := ADAAllocateCached(ty, my, &m.ay)
	if err != nil {
		m.Invalidate()
		return BinaryMemoResult{}, err
	}
	if m.evals == nil {
		m.evals = make(map[BinaryPair]uint64, len(xs)*len(ys))
	}
	res := BinaryMemoResult{
		Entries:     make([]BinaryEntry, 0, len(xs)*len(ys)),
		SeqX:        tx.ChangeSeq(),
		SeqY:        ty.ChangeSeq(),
		AllocReused: rx && ry,
	}
	for _, x := range xs {
		var repX uint64
		haveRepX := false
		for _, y := range ys {
			k := BinaryPair{X: x, Y: y}
			r, ok := m.evals[k]
			if ok {
				res.Reused++
			} else {
				if !haveRepX {
					repX = rep.Pick(x)
					haveRepX = true
				}
				r = f(repX, rep.Pick(y))
				m.evals[k] = r
				res.Computed++
			}
			res.Entries = append(res.Entries, BinaryEntry{X: x, Y: y, Result: r})
		}
	}
	m.valid = true
	m.budget, m.rep = budget, rep
	m.wx, m.wy = tx.Width(), ty.Width()
	m.seqX, m.seqY = res.SeqX, res.SeqY
	m.entries = res.Entries
	return res, nil
}
