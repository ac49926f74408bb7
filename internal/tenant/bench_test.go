package tenant

import (
	"fmt"
	"testing"

	"github.com/ada-repro/ada/internal/tcam"
)

// benchRows returns rows [lo, hi) of a slice's synthetic population: /8
// prefixes of a 16-bit operand, or exact first operands of a binary slice.
func benchRows(s *Slice, lo, hi int) []tcam.Row {
	rows := make([]tcam.Row, 0, hi-lo)
	for j := lo; j < hi; j++ {
		f := []tcam.Field{{Value: uint64(j) << 8, Mask: 0xff00}}
		if len(s.widths) == 2 {
			f = []tcam.Field{{Value: uint64(j), Mask: 0xff}, {}}
		}
		rows = append(rows, tcam.Row{Fields: f, Data: uint64(j)})
	}
	return rows
}

// benchSlices opens adaserve's default tenant shape on one 512-row physical
// table — six unary and two binary slices — and fills each with rows
// [0, 64).
func benchSlices(b *testing.B) []*Slice {
	b.Helper()
	p, err := NewPartition(Config{TotalEntries: 512})
	if err != nil {
		b.Fatal(err)
	}
	slices := make([]*Slice, 8)
	for i := range slices {
		widths := []int{16}
		if i >= 6 {
			widths = []int{8, 8}
		}
		if slices[i], err = p.Open(fmt.Sprintf("t%d", i), widths, 64); err != nil {
			b.Fatal(err)
		}
		if _, err := slices[i].ApplyRowsAtomic(benchRows(slices[i], 0, 64)); err != nil {
			b.Fatal(err)
		}
	}
	return slices
}

// BenchmarkSliceApplyDelta commits 16-row deltas round-robin over the eight
// slices, each moving its population between rows [0, 64) and [8, 72): 8
// deletes and 8 inserts per commit.
func BenchmarkSliceApplyDelta(b *testing.B) {
	slices := benchSlices(b)
	type delta struct{ up, del []tcam.Row }
	moves := make([][2]delta, len(slices))
	for i, s := range slices {
		head, tail := benchRows(s, 0, 8), benchRows(s, 64, 72)
		moves[i] = [2]delta{{up: tail, del: head}, {up: head, del: tail}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(slices)
		d := moves[k][(i/len(slices))%2]
		if _, err := slices[k].ApplyDelta(d.up, d.del); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSliceApplyRowsAtomic reconciles the same moves as
// BenchmarkSliceApplyDelta through full 64-row ApplyRowsAtomic calls.
func BenchmarkSliceApplyRowsAtomic(b *testing.B) {
	slices := benchSlices(b)
	pops := make([][2][]tcam.Row, len(slices))
	for i, s := range slices {
		pops[i] = [2][]tcam.Row{benchRows(s, 8, 72), benchRows(s, 0, 64)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(slices)
		if _, err := slices[k].ApplyRowsAtomic(pops[k][(i/len(slices))%2]); err != nil {
			b.Fatal(err)
		}
	}
}
