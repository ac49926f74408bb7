// Package population builds calculation-TCAM contents for arithmetic
// operations that PISA switches cannot execute natively.
//
// Three schemes are provided:
//
//   - Naive: the distribution-agnostic, equal-sized-range population used by
//     Sharma et al. [12] and Nimble [10]; the paper's baseline.
//   - Logarithmic: log/antilog tables that turn multiplication and division
//     into additions/subtractions between two lookups [12].
//   - ADA (Algorithm 3): distribution-aware population that walks the binning
//     trie top-down and assigns entries to each subtree in proportion to its
//     aggregated hit count, so hot intervals receive finer entries.
//
// All schemes emit entries whose match prefixes exactly tile their target
// domain, so a calculation lookup never misses inside the covered range.
package population

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/trie"
)

var (
	// ErrBudget reports an entry budget below one.
	ErrBudget = errors.New("population: entry budget must be at least 1")
	// ErrWidth reports an operand width outside [1, 64].
	ErrWidth = errors.New("population: width must be in [1, 64]")
	// ErrRange reports an invalid working range.
	ErrRange = errors.New("population: invalid working range")
)

// Representative selects which value inside an entry's interval stands in
// for the whole interval when precomputing the result.
type Representative int

const (
	// Midpoint uses the interval midpoint (the paper's median-of-range
	// choice, as in Nimble).
	Midpoint Representative = iota + 1
	// GeoMean uses the integer geometric mean; an ablation that minimises
	// multiplicative relative error.
	GeoMean
)

// Pick returns the representative value of prefix p under r.
func (r Representative) Pick(p bitstr.Prefix) uint64 {
	if r == GeoMean {
		return p.GeoMean()
	}
	return p.Midpoint()
}

// String implements fmt.Stringer.
func (r Representative) String() string {
	switch r {
	case Midpoint:
		return "midpoint"
	case GeoMean:
		return "geomean"
	default:
		return fmt.Sprintf("Representative(%d)", int(r))
	}
}

// UnaryFunc is the exact single-operand operation being emulated.
type UnaryFunc func(x uint64) uint64

// BinaryFunc is the exact two-operand operation being emulated.
type BinaryFunc func(x, y uint64) uint64

// UnaryEntry maps one operand interval to a precomputed result.
type UnaryEntry struct {
	P      bitstr.Prefix
	Result uint64
}

// BinaryEntry maps one pair of operand intervals to a precomputed result.
type BinaryEntry struct {
	X, Y   bitstr.Prefix
	Result uint64
}

// Subdivide tiles prefix p with up to m sub-prefixes: it starts from p and
// greedily splits the widest emitted prefix, the first-emitted one on ties,
// until the budget or full specification is reached. The result always
// exactly tiles p and has min-width spread of at most one bit. It runs in
// O(m log m): see subdivideOrder.
func Subdivide(p bitstr.Prefix, m int) []bitstr.Prefix {
	out := subdivideOrder(p, m)
	bitstr.SortPrefixes(out)
	return out
}

// subdivideOrder is Subdivide before its sort, in emission order. It splits
// level by level: at the start of a level every prefix in out has the same
// width, so the greedy pick is out[0], out[1], … in turn, each split leaving
// its left half in place and appending its right half, until the level's
// prefixes are all split and the next level begins.
func subdivideOrder(p bitstr.Prefix, m int) []bitstr.Prefix {
	out := []bitstr.Prefix{p}
	for len(out) < m && out[0].WildBits() > 0 {
		for i, level := 0, len(out); i < level && len(out) < m; i++ {
			// out[i] has wildcard bits, so neither half can fail.
			l, _ := out[i].Left()
			r, _ := out[i].Right()
			out[i] = l
			out = append(out, r)
		}
	}
	return out
}

// NaiveUnary populates a unary operation over the full width-bit domain with
// equal-sized intervals (distribution-agnostic baseline).
func NaiveUnary(f UnaryFunc, width, budget int, rep Representative) ([]UnaryEntry, error) {
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("%w: got %d", ErrWidth, width)
	}
	root, err := bitstr.Root(width)
	if err != nil {
		return nil, err
	}
	return fillUnary(f, []bitstr.Prefix{root}, budget, rep)
}

// NaiveUnaryRange populates only the working range [lo, hi]; the rest of the
// domain is uncovered. This models the range-bounding optimisation of §II-B
// without distribution awareness.
func NaiveUnaryRange(f UnaryFunc, width, budget int, lo, hi uint64, rep Representative) ([]UnaryEntry, error) {
	if budget < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBudget, budget)
	}
	cover, err := bitstr.CoverRange(lo, hi, width)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRange, err)
	}
	return fillUnary(f, cover, budget, rep)
}

// fillUnary distributes budget over base prefixes proportionally to their
// size and subdivides each.
func fillUnary(f UnaryFunc, base []bitstr.Prefix, budget int, rep Representative) ([]UnaryEntry, error) {
	if budget < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBudget, budget)
	}
	if len(base) > budget {
		return nil, fmt.Errorf("%w: %d base intervals exceed budget %d", ErrBudget, len(base), budget)
	}
	// Largest-remainder apportionment by interval size, minimum one each.
	sizes := make([]float64, len(base))
	total := 0.0
	for i, p := range base {
		sizes[i] = float64(p.Size())
		total += sizes[i]
	}
	alloc := apportion(sizes, total, budget)
	var out []UnaryEntry
	for i, p := range base {
		for _, q := range Subdivide(p, alloc[i]) {
			out = append(out, UnaryEntry{P: q, Result: f(rep.Pick(q))})
		}
	}
	return out, nil
}

// apportion splits budget across weights (each ≥ 1 share) using the
// largest-remainder method. weights must be non-negative; a zero (or
// negative) total falls back to equal shares. The weights slice is never
// mutated — callers hand in live slices they keep using.
func apportion(weights []float64, total float64, budget int) []int {
	n := len(weights)
	out := make([]int, n)
	if n == 0 {
		return out
	}
	weightOf := func(i int) float64 { return weights[i] }
	if total <= 0 {
		total = float64(n)
		weightOf = func(int) float64 { return 1 }
	}
	// Reserve one entry per bucket so coverage never has holes.
	remaining := budget - n
	if remaining < 0 {
		remaining = 0
	}
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, n)
	used := 0
	for i := range weights {
		share := float64(remaining) * weightOf(i) / total
		fl := int(math.Floor(share))
		out[i] = 1 + fl
		used += fl
		fracs[i] = frac{i: i, f: share - float64(fl)}
	}
	// Hand out the leftovers to the largest remainders: one sort instead of
	// a max-scan per leftover. Ties break on the lower index, matching the
	// repeated-max-scan order, so allocations stay byte-identical.
	left := remaining - used
	if left > 0 {
		sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
		for j := 0; j < left && j < n; j++ {
			out[fracs[j].i]++
		}
	}
	return out
}

// NaiveBinary populates a two-operand operation over the full domain with
// equal significant bits per operand, the combinatorial baseline of §II-A.
// The budget is split evenly between the two key dimensions.
func NaiveBinary(f BinaryFunc, width, budget int, rep Representative) ([]BinaryEntry, error) {
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("%w: got %d", ErrWidth, width)
	}
	if budget < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBudget, budget)
	}
	root, err := bitstr.Root(width)
	if err != nil {
		return nil, err
	}
	side := int(math.Floor(math.Sqrt(float64(budget))))
	if side < 1 {
		side = 1
	}
	xs := Subdivide(root, side)
	ys := Subdivide(root, side)
	return crossProduct(f, xs, ys, rep), nil
}

// CrossEntries builds the two-operand entries for every (x, y) prefix pair
// with results precomputed at the representatives. Used by deployments that
// mix marginal strategies (e.g. an adaptive rate marginal with a sig-bits
// ΔT marginal, the paper's ADA(R) Nimble configuration).
func CrossEntries(f BinaryFunc, xs, ys []bitstr.Prefix, rep Representative) []BinaryEntry {
	return crossProduct(f, xs, ys, rep)
}

func crossProduct(f BinaryFunc, xs, ys []bitstr.Prefix, rep Representative) []BinaryEntry {
	out := make([]BinaryEntry, 0, len(xs)*len(ys))
	for _, x := range xs {
		rx := rep.Pick(x)
		for _, y := range ys {
			out = append(out, BinaryEntry{X: x, Y: y, Result: f(rx, rep.Pick(y))})
		}
	}
	return out
}

// ADAUnary runs Algorithm 3: it aggregates the trie's hit counts bottom-up,
// then walks top-down assigning the entry budget to each subtree in
// proportion to its aggregated hits (w = 0.5 per side when a subtree has no
// data), and finally tiles each allocation inside its interval. Hot bins end
// up with exponentially finer entries than cold bins. Entries are strictly
// increasing under bitstr.Prefix.Compare, the order a delta-committing
// target merges consecutive builds in.
func ADAUnary(t *trie.Trie, f UnaryFunc, budget int, rep Representative) ([]UnaryEntry, error) {
	prefixes, err := ADAAllocate(t, budget)
	if err != nil {
		return nil, err
	}
	out := make([]UnaryEntry, len(prefixes))
	for i, p := range prefixes {
		out[i] = UnaryEntry{P: p, Result: f(rep.Pick(p))}
	}
	return out, nil
}

// adaTailEpsilon is the per-side probability mass trimmed when estimating
// the working range (§II-B: parameters are range bound; values outside the
// estimated range fall through to the catch-all entry).
const adaTailEpsilon = 0.005

// ADAAllocate performs Algorithm 3's hit-proportional budget distribution
// and returns the match prefixes only (no results), strictly increasing under
// bitstr.Prefix.Compare. The output is an LPM cover, not a flat partition:
//
//  1. The trie's hit mass determines the working range (the smallest
//     interval holding all but a sliver of the observed distribution).
//  2. The working range is covered exactly and then refined greedily: the
//     sub-region holding the most mass is split first, so hot intervals end
//     up with exponentially finer entries (the paper's proportional
//     allocation without its integer-rounding pathology on deep skew).
//  3. The trie's cold leaves outside the range backstop out-of-range
//     operands, or one all-wildcard catch-all entry when the budget cannot
//     afford them; longest-prefix match ensures the fine entries win inside
//     the range.
//
// Cold regions therefore collapse into the backstop — the abstract's
// "aggregating entries that are unused or less popular". With no hit data at
// all the result degenerates to the uniform equal-share population
// (Algorithm 3's w = 0.5 initialisation). The refinement queues groups of
// sibling regions, not regions (see refine), so a call costs
// O(G log G + budget) for G groups, at most about 2L + L·log(budget/L) over
// L leaves.
func ADAAllocate(t *trie.Trie, budget int) ([]bitstr.Prefix, error) {
	if budget < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBudget, budget)
	}
	return adaAllocate(t, budget)
}

// adaAllocate is the Algorithm 3 core. It emits its output already in
// order: the backstop leaves below the range, the refined range (refine,
// emit), then the backstop leaves above it — or the root catch-all in their
// place.
func adaAllocate(t *trie.Trie, budget int) ([]bitstr.Prefix, error) {
	width := t.Width()
	root, err := bitstr.Root(width)
	if err != nil {
		return nil, err
	}
	total := t.AggregateHits()
	leaves := t.Leaves()
	if total == 0 || budget == 1 {
		// No distribution knowledge: equal share across the domain.
		return Subdivide(root, budget), nil
	}

	// 1. Working range: trim adaTailEpsilon of mass from each side.
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

	// Cold-region backstop: prefer tiling the out-of-range complement with
	// the trie's own cold leaves (their midpoints are decent stand-ins for
	// stray operands); fall back to a single all-wildcard catch-all when the
	// budget cannot afford that, and to the uniform population when it
	// cannot even afford the range cover.
	backstop := loIdx + len(leaves) - 1 - hiIdx
	catchAll := backstop+len(cover) > budget
	if catchAll {
		backstop = 1
		if len(cover)+1 > budget {
			return Subdivide(root, budget), nil
		}
	}

	// 2. Greedy mass-proportional refinement within the range.
	spans, splits := refine(newMassOracle(leaves), cover, loIdx, hiIdx, budget-backstop-len(cover))

	// 3. Emit in value order. Compare puts the catch-all after the one
	// region starting at 0, if the range has one, and before every other
	// region, so it takes the first slot and trades places below. No
	// region is the root itself: a range over the whole domain leaves no
	// backstop leaves, so it never needs the catch-all.
	out := make([]bitstr.Prefix, 0, backstop+len(cover)+splits)
	if catchAll {
		out = append(out, root)
	} else {
		for _, l := range leaves[:loIdx] {
			out = append(out, l.Prefix)
		}
	}
	out = emit(out, spans, loIdx, hiIdx)
	if !catchAll {
		for _, l := range leaves[hiIdx+1:] {
			out = append(out, l.Prefix)
		}
	} else if out[1].Lo() == 0 {
		out[0], out[1] = out[1], root
	}
	return out, nil
}

// span is one trie node of the refined partition: the prefix p over the
// whole leaves from the one it starts at up to next. refine splits a node
// over several leaves into its two halves, which are trie nodes again, and
// splits a single leaf in place, level by level: levels levels below p
// completely, then the first partial regions of the next.
type span struct {
	p       bitstr.Prefix
	next    int
	levels  int
	partial int
}

// group is one item of refine's heap: the 2^level regions level bits below
// spans[at].p, which is the trie node itself at level 0. Level > 0 occurs
// only inside one leaf, where every region of a level has the same mass
// (the leaf's hits·2^−level, as massOracle has it), the same wild bits and
// consecutive low bounds.
type group struct {
	mass  float64
	lo    uint64
	wild  int
	level int
	at    int
}

// refine runs Algorithm 3's greedy refinement of cover, the exact cover of
// leaves [first, last], with at most splits splits. It always splits the
// region of most mass, then of most wild bits, then of lowest low bound,
// until the splits run out or every region is fully specified. It returns
// the refined partition as spans indexed by their first leaf, and the
// number of splits made.
//
// The heap holds groups of sibling regions, not regions. A group is keyed
// by its first member, and its members pop in a row: a region never pops
// before its parent, because its mass is no larger (inside a leaf it is
// exactly half) and it has one wild bit fewer, and any other region of the
// same mass and wild bits lies outside the group's leaf. So popping a group
// splits its members in the order a heap of single regions would, and when
// the splits left cannot cover a group, its first members take them.
func refine(o massOracle, cover []bitstr.Prefix, first, last, splits int) ([]span, int) {
	spans := make([]span, last+1)
	// At most one group per span, and no more spans than the splits allow.
	h := groupHeap(make([]group, 0, min(last+1-first, len(cover)+splits)))
	push := func(at int) {
		if s := spans[at]; s.p.WildBits() > 0 {
			h.push(group{mass: o.sum(at, s.next), lo: s.p.Lo(), wild: s.p.WildBits(), at: at})
		}
	}
	at := first
	for _, p := range cover {
		next := at + 1
		for next <= last && o.lo[next] <= p.Hi() {
			next++
		}
		spans[at] = span{p: p, next: next}
		push(at)
		at = next
	}
	made := 0
	for len(h) > 0 && made < splits {
		g := h.pop()
		s := &spans[g.at]
		n := 1 << g.level
		if n > splits-made {
			// Only the first members fit: split them and stop.
			s.partial = splits - made
			return spans, splits
		}
		made += n
		if s.next-g.at > 1 {
			// A trie node over several leaves: its halves hold whole
			// leaves too. s.p has wild bits, so neither half can fail.
			l, _ := s.p.Left()
			r, _ := s.p.Right()
			mid := g.at + sort.Search(s.next-g.at, func(k int) bool { return o.lo[g.at+k] >= r.Lo() })
			spans[mid] = span{p: r, next: s.next}
			*s = span{p: l, next: mid}
			push(g.at)
			push(mid)
			continue
		}
		s.levels = g.level + 1
		if g.wild > 1 {
			// The next level can split too. Halving a mass is exact: a
			// leaf's mass is 0 or at least 1, and 2^−64 is still normal.
			h.push(group{mass: g.mass / 2, lo: g.lo, wild: g.wild - 1, level: g.level + 1, at: g.at})
		}
	}
	return spans, made
}

// emit appends refine's partition in value order, from the span at leaf
// first through the one ending at last. A split leaf with F full levels and
// r regions split at level F tiles as level F+1's regions [0, 2r), then
// level F's regions [r, 2^F).
func emit(out []bitstr.Prefix, spans []span, first, last int) []bitstr.Prefix {
	for at := first; at <= last; at = spans[at].next {
		s := spans[at]
		if s.levels == 0 {
			out = append(out, s.p)
			continue
		}
		out = appendLevel(out, s.p, s.levels+1, 0, 2*s.partial)
		out = appendLevel(out, s.p, s.levels, s.partial, 1<<s.levels)
	}
	return out
}

// appendLevel appends regions [from, to) of the tiling of p level bits
// finer.
func appendLevel(out []bitstr.Prefix, p bitstr.Prefix, level, from, to int) []bitstr.Prefix {
	shift := p.WildBits() - level
	for k := from; k < to; k++ {
		// A non-empty range has level ≤ p.WildBits(), so New cannot fail.
		q, _ := bitstr.New(p.Lo()|uint64(k)<<shift, p.Bits()+level, p.Width())
		out = append(out, q)
	}
	return out
}

// groupHeap is a binary max-heap over group.before. It is typed, so a push
// does not box its group.
type groupHeap []group

// before reports whether a's members pop before b's: hottest first, coarser
// first on mass ties, lower range first as the final tiebreak. The order is
// total, since low bounds are unique within a partition.
func (a group) before(b group) bool {
	switch {
	case a.mass != b.mass:
		return a.mass > b.mass
	case a.wild != b.wild:
		return a.wild > b.wild
	default:
		return a.lo < b.lo
	}
}

func (h *groupHeap) push(g group) {
	*h = append(*h, g)
	gs := *h
	for i := len(gs) - 1; i > 0; {
		parent := (i - 1) / 2
		if !gs[i].before(gs[parent]) {
			break
		}
		gs[i], gs[parent] = gs[parent], gs[i]
		i = parent
	}
}

func (h *groupHeap) pop() group {
	gs := *h
	top := gs[0]
	last := len(gs) - 1
	gs[0] = gs[last]
	gs = gs[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(gs) {
			break
		}
		if c+1 < len(gs) && gs[c+1].before(gs[c]) {
			c++
		}
		if !gs[c].before(gs[i]) {
			break
		}
		gs[i], gs[c] = gs[c], gs[i]
		i = c
	}
	*h = gs
	return top
}

// massOracle returns the hit mass inside a prefix, spreading each leaf's
// hits uniformly over its interval, in O(log L) over L leaves. The leaves
// must tile the domain in value order, as trie.Leaves does, so a prefix
// either lies inside one leaf — its mass is that leaf's hits × 2^−k for the
// k bits it is finer by — or holds a run of whole leaves, whose hits it
// sums.
//
// The result is bit-identical to summing the overlapping leaves' float64
// hits in value order (the reference the tests keep): while the hit total
// stays below 2^53 every partial float sum is an exact integer, so one
// integer prefix-sum difference converted once is the same float. At or
// above 2^53 — reachable with 64-bit registers — the oracle keeps that
// sequential float sum over the run it located. Either sum never falls
// when a leaf joins the run, since rounding is monotone.
type massOracle struct {
	leaves []trie.Bin
	lo     []uint64 // leaves[i].Prefix.Lo(), ascending
	cum    []uint64 // cum[i] = hits of leaves[:i]; nil when the total reaches 2^53
}

func newMassOracle(leaves []trie.Bin) massOracle {
	o := massOracle{leaves: leaves, lo: make([]uint64, len(leaves)), cum: make([]uint64, len(leaves)+1)}
	for i, l := range leaves {
		o.lo[i] = l.Prefix.Lo()
		if o.cum != nil {
			sum := o.cum[i] + l.Hits
			if sum < o.cum[i] || sum >= 1<<53 {
				o.cum = nil
			} else {
				o.cum[i+1] = sum
			}
		}
	}
	return o
}

func (o massOracle) mass(p bitstr.Prefix) float64 {
	// The leaf holding p's low bound: the last one starting at or below it.
	i := sort.Search(len(o.lo), func(k int) bool { return o.lo[k] > p.Lo() }) - 1
	if i < 0 {
		return 0
	}
	if l := o.leaves[i]; l.Prefix.Bits() < p.Bits() {
		// Fraction of the leaf covered by p: 2^-(bits difference).
		frac := math.Exp2(float64(l.Prefix.Bits() - p.Bits()))
		return float64(l.Hits) * frac
	}
	// p holds leaves i..j-1: those starting inside it.
	j := sort.Search(len(o.lo), func(k int) bool { return o.lo[k] > p.Hi() })
	return o.sum(i, j)
}

// sum returns the mass of the whole leaves [i, j).
func (o massOracle) sum(i, j int) float64 {
	if o.cum != nil {
		return float64(o.cum[j] - o.cum[i])
	}
	mass := 0.0
	for _, l := range o.leaves[i:j] {
		mass += float64(l.Hits)
	}
	return mass
}

// EffectiveSupport returns the exponential of the Shannon entropy of the
// trie's leaf-hit distribution — the "effective number of bins" the operand
// occupies. A point-mass operand scores ≈1, a uniform operand scores the
// leaf count. ADABinary uses it to split the joint budget asymmetrically.
func EffectiveSupport(t *trie.Trie) float64 {
	total := float64(t.TotalHits())
	if total == 0 {
		return float64(t.NumLeaves())
	}
	h := 0.0
	for _, l := range t.Leaves() {
		if l.Hits == 0 {
			continue
		}
		p := float64(l.Hits) / total
		h -= p * math.Log(p)
	}
	return math.Exp(h)
}

// ADABinary builds a two-operand table from per-operand binning tries. The
// budget is factored into per-dimension budgets proportional to each
// operand's effective spread (a near-constant divisor needs two entries, not
// half the table), then each marginal is allocated with Algorithm 3 and the
// table is the cross product. The full domain remains covered. The cross
// product is x-major, so entries are strictly increasing under X.Compare,
// then Y.Compare.
func ADABinary(tx, ty *trie.Trie, f BinaryFunc, budget int, rep Representative) ([]BinaryEntry, error) {
	if budget < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBudget, budget)
	}
	mx, my := BinarySideBudgets(tx, ty, budget)
	return adaBinarySides(tx, ty, f, mx, my, rep)
}

// BinarySideBudgets factors the joint budget into per-dimension budgets
// proportional to each operand's effective spread (exported for the tenant
// arbiter, which scores each side of a binary tenant separately).
func BinarySideBudgets(tx, ty *trie.Trie, budget int) (mx, my int) {
	sx, sy := EffectiveSupport(tx), EffectiveSupport(ty)
	ratio := sx / sy
	if ratio < 1.0/16 {
		ratio = 1.0 / 16
	}
	if ratio > 16 {
		ratio = 16
	}
	mx = int(math.Floor(math.Sqrt(float64(budget) * ratio)))
	if mx < 1 {
		mx = 1
	}
	if mx > budget {
		mx = budget
	}
	my = budget / mx
	if my < 1 {
		my = 1
		mx = budget
	}
	// Floor each side at 4 entries when the budget allows: even a
	// near-constant operand needs neighbours of its hot value covered, and
	// starving a side to 1–2 entries makes every off-centre lookup fall to
	// the catch-all.
	const sideFloor = 4
	if budget >= sideFloor*sideFloor {
		if my < sideFloor {
			my = sideFloor
			mx = budget / my
		}
		if mx < sideFloor {
			mx = sideFloor
			my = budget / mx
		}
	}
	return mx, my
}

// ADABinaryFixedSplit is the ablation of ADABinary's spread-proportional
// budget factoring: both marginals receive floor(sqrt(budget)) entries
// regardless of how concentrated each operand is.
func ADABinaryFixedSplit(tx, ty *trie.Trie, f BinaryFunc, budget int, rep Representative) ([]BinaryEntry, error) {
	if budget < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBudget, budget)
	}
	side := int(math.Floor(math.Sqrt(float64(budget))))
	if side < 1 {
		side = 1
	}
	return adaBinarySides(tx, ty, f, side, side, rep)
}

func adaBinarySides(tx, ty *trie.Trie, f BinaryFunc, mx, my int, rep Representative) ([]BinaryEntry, error) {
	xs, err := ADAAllocate(tx, mx)
	if err != nil {
		return nil, err
	}
	ys, err := ADAAllocate(ty, my)
	if err != nil {
		return nil, err
	}
	return crossProduct(f, xs, ys, rep), nil
}

// LookupEntry finds the unary entry containing v by binary search. The
// entries must be in value order and tile their covered range, as every
// builder in this package guarantees. It is the software analogue of the
// hardware lookup, used by experiments that would otherwise need to
// materialise enormous joint tables.
func LookupEntry(entries []UnaryEntry, v uint64) (UnaryEntry, bool) {
	return lookupSorted(entries, v)
}

// CoversDomain reports whether the union of entry prefixes covers the full
// operand domain (entries may nest, as in ADA's LPM covers). This is the
// no-miss invariant: a covered domain means Lookup never fails.
func CoversDomain(entries []UnaryEntry) bool {
	if len(entries) == 0 {
		return false
	}
	width := entries[0].P.Width()
	ps := make([]bitstr.Prefix, len(entries))
	for i, e := range entries {
		if e.P.Width() != width {
			return false
		}
		ps[i] = e.P
	}
	bitstr.SortPrefixes(ps)
	var maxHi uint64
	if width >= 64 {
		maxHi = ^uint64(0)
	} else {
		maxHi = uint64(1)<<uint(width) - 1
	}
	var next uint64
	started := false
	for _, p := range ps {
		if started && p.Lo() > next {
			return false
		}
		if !started && p.Lo() != 0 {
			return false
		}
		started = true
		if p.Hi() >= maxHi {
			return true
		}
		if p.Hi()+1 > next {
			next = p.Hi() + 1
		}
	}
	return false
}
