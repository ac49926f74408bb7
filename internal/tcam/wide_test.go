package tcam

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

// triMass is the mass of the keys [lo, hi] under the triangular density
// max(0, radius − |x − peak|), in float64 so every width fits. It needs
// radius ≤ peak and peak+radius within the domain.
func triMass(lo, hi, peak, radius uint64) float64 {
	lo, hi = max(lo, peak-radius+1), min(hi, peak+radius-1)
	if lo > hi {
		return 0
	}
	var m float64
	if lo <= peak { // rising side: weight radius − (peak − x)
		h := min(hi, peak)
		m += float64(h-lo+1) * (float64(radius-(peak-lo)) + float64(radius-(peak-h))) / 2
	}
	if hi > peak { // falling side: weight radius − (x − peak)
		l := max(lo, peak+1)
		m += float64(hi-l+1) * (float64(radius-(l-peak)) + float64(radius-(hi-peak))) / 2
	}
	return m
}

type massNode struct {
	p    bitstr.Prefix
	mass float64
}

// massHeap pops the heaviest prefix first, then the widest, then the lowest.
type massHeap []massNode

func (h massHeap) Len() int { return len(h) }
func (h massHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.mass != b.mass {
		return a.mass > b.mass
	}
	if a.p.WildBits() != b.p.WildBits() {
		return a.p.WildBits() > b.p.WildBits()
	}
	return a.p.Lo() < b.p.Lo()
}
func (h massHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *massHeap) Push(x any)   { *h = append(*h, x.(massNode)) }
func (h *massHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// peakTiling tiles the width-bit domain the way ADA's Algorithm 3 places a
// population: best-first, it splits the prefix holding the most mass of a
// triangular density centred on peak, so the finest prefixes crowd where
// the traffic is and reach exact width when the budget allows. It stops at
// n prefixes or when every prefix left is exact.
func peakTiling(width, n int, peak, radius uint64) []bitstr.Prefix {
	root, _ := bitstr.Root(width)
	h := &massHeap{{root, triMass(root.Lo(), root.Hi(), peak, radius)}}
	var exact []bitstr.Prefix
	for h.Len() > 0 && h.Len()+len(exact) < n {
		top := heap.Pop(h).(massNode)
		if top.p.WildBits() == 0 {
			exact = append(exact, top.p)
			continue
		}
		for _, half := range []func() (bitstr.Prefix, error){top.p.Left, top.p.Right} {
			c, _ := half()
			heap.Push(h, massNode{c, triMass(c.Lo(), c.Hi(), peak, radius)})
		}
	}
	for _, nd := range *h {
		exact = append(exact, nd.p)
	}
	return exact
}

// peakKeys draws n keys from the triangular density peakTiling splits on.
func peakKeys(rng *rand.Rand, n int, peak, radius uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = peak - (radius - 1) + uint64(rng.Int63n(int64(radius))) + uint64(rng.Int63n(int64(radius)))
	}
	return keys
}

// wideShapes returns the disjoint prefix sets the wide-field differential
// compiles at one width: a uniform tiling, an ADA-shaped peaked tiling, a
// gapped subset of the peaked one (the TCAM tier's shape, where most keys
// miss) and a narrow peak whose middle is exact-width leaves. peak and
// radius are the peaked shapes' density.
func wideShapes(rng *rand.Rand, width int) (shapes map[string][]bitstr.Prefix, peak, radius uint64) {
	root, _ := bitstr.Root(width)
	peak, radius = 3<<uint(width-2)+uint64(rng.Int63n(1<<10)), uint64(1)<<uint(width-5)
	peaked := peakTiling(width, 400, peak, radius)
	var gapped []bitstr.Prefix
	for _, p := range peaked {
		if rng.Intn(8) == 0 {
			gapped = append(gapped, p)
		}
	}
	return map[string][]bitstr.Prefix{
		"uniform": subdivideForBench(root, 300),
		"peaked":  peaked,
		"gapped":  gapped,
		"exact":   peakTiling(width, 400, peak, 48),
	}, peak, radius
}

// TestWideRangeSetDifferential pins the direct-indexed wide form against
// the reference scan: every shape at every width must compile to it, and
// each span's bounds and their neighbours, random and peak-drawn keys, and
// at width 17 the whole domain must resolve to the reference winner through
// the batch path and through the per-key resolve the grid and the tiered
// cold tier use.
func TestWideRangeSetDifferential(t *testing.T) {
	for _, width := range []int{17, 20, 24, 32, 64} {
		rng := rand.New(rand.NewSource(int64(width)))
		shapes, peak, radius := wideShapes(rng, width)
		for _, name := range []string{"uniform", "peaked", "gapped", "exact"} {
			t.Run(fmt.Sprintf("%s/%d", name, width), func(t *testing.T) {
				ps := shapes[name]
				tb := MustNew("wide", 0, width)
				if _, err := tb.ApplyRowsAtomic(tilingRows(ps)); err != nil {
					t.Fatal(err)
				}
				ix := tb.loadIndex()
				if ix.rset == nil || ix.rset.root == nil {
					t.Fatalf("%d prefixes did not compile to the direct wide form", len(ps))
				}
				// Each level's child tables sit in disjoint blocks that
				// each hold a span boundary, so at most 2n of them.
				levels := (width + wideCap - 1) / wideCap
				if bound := 1 + len(ps) + 2*len(ps)*levels<<wideCap; len(ix.rset.cells) > bound {
					t.Fatalf("%d prefixes compiled to %d cells, bound %d", len(ps), len(ix.rset.cells), bound)
				}
				// Exact leaves this far below a root bucket need a child
				// past the stride cap.
				if buckets := 1 << (width - int(ix.rset.shift)); name == "exact" && width >= 24 && len(ix.rset.root) == buckets {
					t.Fatal("exact leaves compiled without a level past the stride cap")
				}
				m := lowMask(width)
				var keys []uint64
				if width == 17 {
					keys = domainKeys(width)
				}
				for _, p := range ps {
					keys = append(keys, p.Lo(), p.Hi(), (p.Lo()-1)&m, (p.Hi()+1)&m)
				}
				for i := 0; i < 1000; i++ {
					keys = append(keys, rng.Uint64()&m)
				}
				keys = append(keys, peakKeys(rng, 1000, peak, radius)...)
				checkIndexBatch(t, tb, keys, 1)
				ords, _ := tb.LookupIndexBatch(keys, nil)
				for i, k := range keys {
					if got := ix.rset.resolve(k); got != ords[i] {
						t.Fatalf("key %#x: resolve %d, batch %d", k, got, ords[i])
					}
				}
			})
		}
	}
}

// TestWideGridDifferential covers the product grid with one wide field: a
// peaked width-18 X tiling crossed with a uniform width-6 Y tiling.
func TestWideGridDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const peak, radius = 3<<16 + 77, 1 << 12
	xs := peakTiling(18, 96, peak, radius)
	yRoot, _ := bitstr.Root(6)
	ys := subdivideForBench(yRoot, 8)
	tb := MustNew("wide-grid", 0, 18, 6)
	rows := make([]Row, 0, len(xs)*len(ys))
	for i, x := range xs {
		for j, y := range ys {
			rows = append(rows, Row{Fields: []Field{FieldFromPrefix(x), FieldFromPrefix(y)}, Data: uint64(i*len(ys) + j)})
		}
	}
	if _, err := tb.ApplyRowsAtomic(rows); err != nil {
		t.Fatal(err)
	}
	if ix := tb.loadIndex(); ix.grid == nil || ix.rsetX.root == nil || ix.rsetY.lut == nil {
		t.Fatal("wide × narrow product did not compile to the grid over a direct X form and a Y LUT")
	}
	var xk []uint64
	for _, x := range xs {
		xk = append(xk, x.Lo(), x.Hi(), (x.Lo()-1)&lowMask(18), (x.Hi()+1)&lowMask(18))
	}
	xk = append(xk, peakKeys(rng, 500, peak, radius)...)
	flat := make([]uint64, 0, 2*len(xk))
	for _, x := range xk {
		flat = append(flat, x, rng.Uint64()&lowMask(6))
	}
	checkIndexBatch(t, tb, flat, 2)
}
