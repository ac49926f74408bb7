package trie

import (
	"fmt"
	"sync/atomic"

	"github.com/ada-repro/ada/internal/bitstr"
)

// FromBins rebuilds a trie from a committed leaf snapshot — the inverse of
// Leaves. The bins must partition the width-bit operand space (the shape a
// Leaves call on any valid trie produces); order does not matter. The
// restored trie draws its change sequence from a fresh counter.
func FromBins(width int, bins []Bin) (*Trie, error) {
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("%w: got %d", ErrWidth, width)
	}
	if len(bins) == 0 {
		return nil, fmt.Errorf("%w: no bins", ErrBudget)
	}
	ps := make([]bitstr.Prefix, len(bins))
	for i, b := range bins {
		if b.Prefix.Width() != width {
			return nil, fmt.Errorf("trie: bin %d width %d, trie width %d", i, b.Prefix.Width(), width)
		}
		ps[i] = b.Prefix
	}
	if !bitstr.Partition(ps) {
		return nil, fmt.Errorf("trie: bins do not partition the %d-bit operand space", width)
	}
	root, err := bitstr.Root(width)
	if err != nil {
		return nil, err
	}
	t := &Trie{width: width, root: &Node{prefix: root}, leaves: len(bins), seqs: new(atomic.Uint64)}
	var build func(n *Node, bs []Bin) error
	build = func(n *Node, bs []Bin) error {
		if len(bs) == 1 && bs[0].Prefix == n.prefix {
			n.hits = bs[0].Hits
			return nil
		}
		l, err := n.prefix.Left()
		if err != nil {
			return fmt.Errorf("trie: bins overflow prefix %v", n.prefix)
		}
		var lb, rb []Bin
		for _, b := range bs {
			if l.ContainsPrefix(b.Prefix) {
				lb = append(lb, b)
			} else {
				rb = append(rb, b)
			}
		}
		if len(lb) == 0 || len(rb) == 0 {
			// Partition passed, so this cannot happen for well-formed bins;
			// guard against it anyway rather than recurse forever.
			return fmt.Errorf("trie: bins do not split under prefix %v", n.prefix)
		}
		r, err := n.prefix.Right()
		if err != nil {
			return err
		}
		n.left = &Node{prefix: l}
		n.right = &Node{prefix: r}
		if err := build(n.left, lb); err != nil {
			return err
		}
		return build(n.right, rb)
	}
	if err := build(t.root, bins); err != nil {
		return nil, err
	}
	return t, nil
}
