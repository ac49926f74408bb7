package population

import (
	"fmt"
	"sort"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/trie"
)

// This file implements the memoized form of Algorithm 3 used by the
// incremental control round. The contract with the plain builders is strict:
// given the same trie content, budget, and representative, the memoized path
// returns byte-identical output to ADAUnary/ADABinary — it only skips work
// it can prove unchanged, it never approximates. Three observations make
// that possible:
//
//  1. The trie exposes a monotonic ChangeSeq covering every leaf shape/mass
//     mutation, so equal sequence numbers mean identical allocation inputs
//     and the whole previous result can be returned as-is.
//  2. massWithin(leaves, p) depends only on the leaves overlapping p, and
//     every mutation to such a leaf since the trie's last commit marks a
//     dirty prefix overlapping p; a mass cached at the committed state whose
//     prefix overlaps no dirty prefix is therefore still exact (same
//     overlapping leaf set, same summation order, same float).
//  3. An entry's result f(rep.Pick(p)) is a pure function of its prefix, so
//     the per-prefix evaluation cache never goes stale; only allocations
//     change, never the value attached to a kept prefix.
//
// A memo instance is tied to one (operation, representative) pair: the
// function itself cannot be fingerprinted, so reusing a memo across
// different operations is a caller bug. It is likewise tied to one trie and
// its clones, whose change sequences it compares.

// AllocCache memoizes ADAAllocate across control rounds. The zero value is
// ready to use. It caches both the full allocation (reused wholesale when
// the trie has not mutated at all) and the per-prefix mass evaluations that
// dominate Algorithm 3's cost (reused for every subtree the trie's dirty set
// does not touch).
type AllocCache struct {
	valid  bool
	width  int
	budget int
	seq    uint64 // trie ChangeSeq at fill time

	prefixes []bitstr.Prefix
	masses   map[bitstr.Prefix]float64
}

// Invalidate drops all cached state; the next call recomputes from scratch.
func (c *AllocCache) Invalidate() { *c = AllocCache{} }

// massesUsable reports whether the cached mass evaluations may seed the next
// computation: the trie's dirty set is measured from its last commit, so it
// covers every change since the cache was filled only when the cache was
// filled at exactly that committed state. Sequence values are unique across
// a trie and its clones, so a cache filled on a shadow clone that was then
// discarded (a rolled-back control round) never matches the next clone of
// the same committed trie, whose dirty set knows nothing of the discarded
// clone's changes.
func (c *AllocCache) massesUsable(t *trie.Trie) bool {
	return c.valid && c.width == t.Width() && t.CommittedSeq() == c.seq
}

// ADAAllocateCached is ADAAllocate's incremental mode: identical output,
// with cached work reused where the trie's dirty-subtree tracking proves it
// unchanged. reused reports the wholesale case (nothing mutated since the
// cache was filled; the returned slice is the cached one and must not be
// mutated). A nil cache degrades to the plain ADAAllocate.
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
	var old map[bitstr.Prefix]float64
	if c.massesUsable(t) {
		old = c.masses
	}
	dirty := newDirtyIndex(t.Dirty())
	cur := make(map[bitstr.Prefix]float64)
	mass := func(leaves []trie.Bin, p bitstr.Prefix) float64 {
		if m, ok := cur[p]; ok {
			return m
		}
		if old != nil {
			if m, ok := old[p]; ok && !dirty.overlaps(p) {
				cur[p] = m
				return m
			}
		}
		m := massWithin(leaves, p)
		cur[p] = m
		return m
	}
	ps, err := adaAllocate(t, budget, mass)
	if err != nil {
		c.Invalidate()
		return nil, false, err
	}
	c.valid = true
	c.width, c.budget = t.Width(), budget
	c.seq = t.ChangeSeq()
	c.prefixes, c.masses = ps, cur
	return ps, false, nil
}

// dirtyIndex is the dirty prefixes' value ranges merged into a sorted,
// disjoint interval union, so the hot mass-reuse path tests overlap in
// O(log n) instead of scanning the whole dirty set per cached prefix.
type dirtyIndex struct {
	lo, hi []uint64 // parallel; sorted ascending, disjoint
}

func newDirtyIndex(dirty []bitstr.Prefix) dirtyIndex {
	if len(dirty) == 0 {
		return dirtyIndex{}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].Lo() < dirty[j].Lo() })
	var d dirtyIndex
	curLo, curHi := dirty[0].Lo(), dirty[0].Hi()
	for _, p := range dirty[1:] {
		if p.Lo() <= curHi+1 && curHi+1 != 0 { // adjacent or overlapping
			if p.Hi() > curHi {
				curHi = p.Hi()
			}
			continue
		}
		d.lo = append(d.lo, curLo)
		d.hi = append(d.hi, curHi)
		curLo, curHi = p.Lo(), p.Hi()
	}
	d.lo = append(d.lo, curLo)
	d.hi = append(d.hi, curHi)
	return d
}

// overlaps reports whether p's value range intersects the dirty union:
// prefix overlap is exactly interval overlap, because prefixes are aligned
// value ranges.
func (d dirtyIndex) overlaps(p bitstr.Prefix) bool {
	// First merged interval whose high end reaches p; d.hi is ascending
	// because the intervals are sorted and disjoint.
	lo := p.Lo()
	i := sort.Search(len(d.hi), func(i int) bool { return d.hi[i] >= lo })
	return i < len(d.lo) && d.lo[i] <= p.Hi()
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
	results map[bitstr.Prefix]uint64
}

// UnaryMemoResult is one memoized population build.
type UnaryMemoResult struct {
	// Entries is the population, identical to what ADAUnary would return.
	// On the wholesale-reuse path it aliases the memo's cache; callers must
	// not mutate it.
	Entries []UnaryEntry
	// Results maps each installed prefix to its result — the shadow copy a
	// delta-committing target diffs against. The map is rebuilt on every
	// recompute, so callers may retain it across calls.
	Results map[bitstr.Prefix]uint64
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
		results := make(map[bitstr.Prefix]uint64, len(entries))
		for _, e := range entries {
			results[e.P] = e.Result
		}
		return UnaryMemoResult{Entries: entries, Results: results, Seq: t.ChangeSeq(), Computed: len(entries)}, nil
	}
	if m.valid && m.width == t.Width() && m.budget == budget && m.rep == rep && m.seq == t.ChangeSeq() {
		return UnaryMemoResult{
			Entries: m.entries, Results: m.results, Seq: m.seq,
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
		Results:     make(map[bitstr.Prefix]uint64, len(prefixes)),
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
		res.Results[p] = r
	}
	m.valid = true
	m.width, m.budget, m.rep = t.Width(), budget, rep
	m.seq = res.Seq
	m.entries, m.results = res.Entries, res.Results
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
	results    map[BinaryPair]uint64
}

// BinaryMemoResult is one memoized two-operand population build.
type BinaryMemoResult struct {
	// Entries is the population, identical to ADABinary's output; on the
	// wholesale-reuse path it aliases the memo's cache.
	Entries []BinaryEntry
	// Results maps each installed pair to its result, rebuilt on every
	// recompute; callers may retain it.
	Results map[BinaryPair]uint64
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
		results := make(map[BinaryPair]uint64, len(entries))
		for _, e := range entries {
			results[BinaryPair{X: e.X, Y: e.Y}] = e.Result
		}
		return BinaryMemoResult{
			Entries: entries, Results: results,
			SeqX: tx.ChangeSeq(), SeqY: ty.ChangeSeq(), Computed: len(entries),
		}, nil
	}
	if m.valid && m.budget == budget && m.rep == rep &&
		m.wx == tx.Width() && m.wy == ty.Width() &&
		m.seqX == tx.ChangeSeq() && m.seqY == ty.ChangeSeq() {
		return BinaryMemoResult{
			Entries: m.entries, Results: m.results,
			SeqX: m.seqX, SeqY: m.seqY,
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
		Results:     make(map[BinaryPair]uint64, len(xs)*len(ys)),
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
			res.Results[k] = r
		}
	}
	m.valid = true
	m.budget, m.rep = budget, rep
	m.wx, m.wy = tx.Width(), ty.Width()
	m.seqX, m.seqY = res.SeqX, res.SeqY
	m.entries, m.results = res.Entries, res.Results
	return res, nil
}
