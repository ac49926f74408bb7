package monitor

import (
	"sync"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

// TestConcurrentSaturationMatchesSequential drives concurrent ObserveAll
// batches far past a narrow register's maximum and checks the merge-time
// clamp: every overflowing bin reads exactly registerMax, every bin below
// the limit keeps its exact count, and the lifetime Saturations counter
// equals what a single-threaded replay of the same samples produces.
func TestConcurrentSaturationMatchesSequential(t *testing.T) {
	const (
		bits       = 3 // registerMax = 7
		regMax     = uint64(1)<<bits - 1
		goroutines = 8
		batches    = 25
		batchLen   = 16
	)
	build := func() *Monitor {
		m, err := New("sat", 8, 0, WithRegisterBits(bits))
		if err != nil {
			t.Fatal(err)
		}
		root, _ := bitstr.Root(8)
		l, _ := root.Left()
		r, _ := root.Right()
		if _, err := m.Install([]bitstr.Prefix{l, r}); err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Bin 0 (low half) takes goroutines*batches*batchLen samples — far past
	// registerMax. Bin 1 (high half) takes 4 samples total — under the limit,
	// so its count must survive exactly.
	batchFor := func(g, b int) []uint64 {
		vs := make([]uint64, batchLen)
		for i := range vs {
			vs[i] = uint64((g*31 + b*7 + i) % 128)
		}
		if g == 0 && b < 4 {
			vs[0] = 200 // one high-half sample in four of g0's batches
		}
		return vs
	}

	conc := build()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				conc.ObserveAll(batchFor(g, b))
			}
		}(g)
	}
	wg.Wait()
	concSnap := conc.SnapshotAndReset()
	concSat := conc.Stats().Saturations

	seq := build()
	for g := 0; g < goroutines; g++ {
		for b := 0; b < batches; b++ {
			seq.ObserveAll(batchFor(g, b))
		}
	}
	seqSnap := seq.SnapshotAndReset()
	seqSat := seq.Stats().Saturations

	wantLow := regMax // saturated
	wantHigh := uint64(4)
	if concSnap[0] != wantLow || concSnap[1] != wantHigh {
		t.Errorf("concurrent snapshot = %v, want [%d %d]", concSnap, wantLow, wantHigh)
	}
	if seqSnap[0] != concSnap[0] || seqSnap[1] != concSnap[1] {
		t.Errorf("sequential snapshot %v != concurrent snapshot %v", seqSnap, concSnap)
	}
	lowTotal := uint64(goroutines*batches*batchLen) - 4
	if wantSat := lowTotal - regMax; concSat != wantSat {
		t.Errorf("concurrent saturations = %d, want %d", concSat, wantSat)
	}
	if concSat != seqSat {
		t.Errorf("saturations diverge: concurrent %d, sequential %d", concSat, seqSat)
	}
}

// TestSaturationAccountingStable: Saturations is computed live, so the
// overflow of undrained registers already shows before any drain, a
// read-only Snapshot leaves the registers intact, and draining folds the
// same loss into the lifetime counter exactly once — never double-charged.
func TestSaturationAccountingStable(t *testing.T) {
	m, err := New("satonce", 8, 0, WithRegisterBits(2)) // registerMax = 3
	if err != nil {
		t.Fatal(err)
	}
	root, _ := bitstr.Root(8)
	if _, err := m.Install([]bitstr.Prefix{root}); err != nil {
		t.Fatal(err)
	}
	m.ObserveAll(make([]uint64, 10)) // 10 hits on bin 0, max 3

	if snap := m.Snapshot(); snap[0] != 3 {
		t.Fatalf("snapshot = %v, want [3]", snap)
	}
	if s := m.Stats().Saturations; s != 7 {
		t.Fatalf("live saturations after read-only snapshot = %d, want 7", s)
	}
	if snap := m.SnapshotAndReset(); snap[0] != 3 {
		t.Fatalf("snapshot-and-reset = %v, want [3]", snap)
	}
	if s := m.Stats().Saturations; s != 7 {
		t.Fatalf("saturations after drain = %d, want 7", s)
	}
	if snap := m.SnapshotAndReset(); snap[0] != 0 {
		t.Fatalf("second drain = %v, want [0]", snap)
	}
	if s := m.Stats().Saturations; s != 7 {
		t.Fatalf("saturations double-charged: %d, want 7", s)
	}
}
