package population

import (
	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/trie"
)

// Pressure is the residual-error estimate of an Algorithm 3 population at a
// given budget — the gradient signal the tenant arbiter trades entries on.
// Units are hits × relative error: an operation whose traffic lands in
// regions that are still coarse scores high, one whose hot regions are fully
// specified (or that sees no traffic) scores near zero.
type Pressure struct {
	// Total is Σ mass(p)·relHalfWidth(p) over the allocated prefixes: the
	// mass-weighted relative quantisation error the population leaves on
	// the table at this budget.
	Total float64
	// Marginal is the largest single term — the error the next budget
	// entry would attack (splitting that region halves its term), i.e. an
	// estimate of d(error)/d(budget) at the current allocation.
	Marginal float64
	// Hits is the total observed hit mass behind the estimate.
	Hits uint64
}

// relHalfWidth is the relative half-width of a prefix interval: the expected
// relative distance of an operand in p from its representative midpoint.
// Fully specified prefixes score zero — their result is exact.
func relHalfWidth(p bitstr.Prefix) float64 {
	if p.WildBits() == 0 {
		return 0
	}
	mid := float64(p.Midpoint())
	if mid < 1 {
		mid = 1
	}
	return float64(p.Size()) / 2 / mid
}

// UnaryErrorPressure runs Algorithm 3's allocation at the given budget and
// scores the residual per-prefix error terms. It does not touch the table —
// the allocation is recomputed from the monitoring trie, so the estimate
// reflects the traffic the next round would populate for.
func UnaryErrorPressure(t *trie.Trie, budget int) (Pressure, error) {
	prefixes, err := ADAAllocate(t, budget)
	if err != nil {
		return Pressure{}, err
	}
	oracle := newMassOracle(t.Leaves())
	pr := Pressure{Hits: t.TotalHits()}
	for _, p := range prefixes {
		rw := relHalfWidth(p)
		if rw == 0 {
			continue
		}
		m := oracle.mass(p)
		if m == 0 {
			continue
		}
		term := m * rw
		pr.Total += term
		if term > pr.Marginal {
			pr.Marginal = term
		}
	}
	return pr, nil
}

// BinaryErrorPressure scores a two-operand tenant: the joint budget is
// factored into per-side budgets exactly as ADABinary would, and the sides'
// pressures add (relative errors of a product/quotient compose additively to
// first order).
func BinaryErrorPressure(tx, ty *trie.Trie, budget int) (Pressure, error) {
	mx, my := BinarySideBudgets(tx, ty, budget)
	px, err := UnaryErrorPressure(tx, mx)
	if err != nil {
		return Pressure{}, err
	}
	py, err := UnaryErrorPressure(ty, my)
	if err != nil {
		return Pressure{}, err
	}
	pr := Pressure{Total: px.Total + py.Total, Marginal: px.Marginal, Hits: px.Hits + py.Hits}
	if py.Marginal > pr.Marginal {
		pr.Marginal = py.Marginal
	}
	return pr, nil
}
