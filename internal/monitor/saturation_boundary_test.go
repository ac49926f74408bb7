package monitor

import (
	"sync"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

func oneBinMonitor(t *testing.T, bits int) *Monitor {
	t.Helper()
	m, err := New("bound", 8, 0, WithRegisterBits(bits))
	if err != nil {
		t.Fatal(err)
	}
	root, _ := bitstr.Root(8)
	if _, err := m.Install([]bitstr.Prefix{root}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSaturationExactBoundary pins the off-by-one: a register holding exactly
// 2^bits−1 increments is full but NOT saturated — no increment was lost — and
// the very next increment is the first one dropped.
func TestSaturationExactBoundary(t *testing.T) {
	for _, bits := range []int{1, 3, 4} {
		max := uint64(1)<<uint(bits) - 1
		m := oneBinMonitor(t, bits)

		for i := uint64(0); i < max; i++ {
			m.Observe(uint64(i % 256))
		}
		if snap := m.Snapshot(); snap[0] != max {
			t.Fatalf("bits=%d: snapshot at exactly max = %v, want [%d]", bits, snap, max)
		}
		if s := m.Stats().Saturations; s != 0 {
			t.Fatalf("bits=%d: saturations at exactly max = %d, want 0", bits, s)
		}

		m.Observe(0) // one past the boundary
		if snap := m.Snapshot(); snap[0] != max {
			t.Fatalf("bits=%d: snapshot one past max = %v, want clamp at [%d]", bits, snap, max)
		}
		if s := m.Stats().Saturations; s != 1 {
			t.Fatalf("bits=%d: saturations one past max = %d, want exactly 1", bits, s)
		}

		// Draining folds exactly that one lost increment, once.
		if snap := m.SnapshotAndReset(); snap[0] != max {
			t.Fatalf("bits=%d: drain = %v, want [%d]", bits, snap, max)
		}
		if s := m.Stats().Saturations; s != 1 {
			t.Fatalf("bits=%d: saturations after drain = %d, want 1", bits, s)
		}
		if snap := m.Snapshot(); snap[0] != 0 {
			t.Fatalf("bits=%d: register not zeroed: %v", bits, snap)
		}
	}
}

// TestSaturationBoundaryAcrossStripes drives the same boundary through the
// batch path, where each batch flushes its whole hit count into the register
// with one add: batches of 1, 2, 4, 8 and 16 samples fill a 5-bit register
// to exactly 31 without a single per-sample increment, and the clamp at
// read time must still behave exactly like a per-increment register. A
// flush that crosses the limit loses exactly its overshoot.
func TestSaturationBoundaryAcrossStripes(t *testing.T) {
	const bits = 5 // max 31 = 1+2+4+8+16
	max := uint64(1)<<bits - 1
	m := oneBinMonitor(t, bits)

	for size := 1; size <= 16; size *= 2 {
		batch := make([]uint64, size)
		for i := range batch {
			batch[i] = uint64(i * 37 % 256)
		}
		m.ObserveAll(batch)
	}
	if snap := m.Snapshot(); snap[0] != max {
		t.Fatalf("flushed snapshot at exactly max = %v, want [%d]", snap, max)
	}
	if s := m.Stats().Saturations; s != 0 {
		t.Fatalf("live saturations at exactly max = %d, want 0", s)
	}
	m.ObserveAll([]uint64{0})
	if s := m.Stats().Saturations; s != 1 {
		t.Fatalf("live saturations one past max = %d, want 1", s)
	}
	if snap := m.SnapshotAndReset(); snap[0] != max {
		t.Fatalf("drain = %v, want [%d]", snap, max)
	}
	if s := m.Stats().Saturations; s != 1 {
		t.Fatalf("saturations after drain = %d, want 1", s)
	}

	// 30 in one flush, then a 3-sample flush crossing the limit: 2 lost.
	m.ObserveAll(make([]uint64, 30))
	m.ObserveAll([]uint64{1, 2, 3})
	if snap := m.SnapshotAndReset(); snap[0] != max {
		t.Fatalf("drain after a crossing flush = %v, want [%d]", snap, max)
	}
	if s := m.Stats().Saturations; s != 3 {
		t.Fatalf("saturations after a crossing flush = %d, want 1+2", s)
	}
}

// TestStripedDrainConservation: concurrent observers flushing batch totals
// into the one register file while SnapshotAndReset races them must neither
// lose nor double-count increments when the register is wide enough not to
// clamp — the drains plus the residual must sum to exactly the number of
// observations.
func TestStripedDrainConservation(t *testing.T) {
	const (
		goroutines = 6
		perG       = 5000
	)
	m := oneBinMonitor(t, 64)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var drained uint64
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				drained += m.SnapshotAndReset()[0]
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]uint64, 10)
			for i := range batch {
				batch[i] = uint64((g + i) % 256)
			}
			for n := 0; n < perG/len(batch); n++ {
				m.ObserveAll(batch)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	drainWG.Wait()
	drained += m.SnapshotAndReset()[0]

	if want := uint64(goroutines * perG); drained != want {
		t.Fatalf("drains collected %d increments, want %d", drained, want)
	}
	if s := m.Stats().Saturations; s != 0 {
		t.Fatalf("64-bit registers reported %d saturations", s)
	}
}
