// Package monitor implements ADA's data-plane monitoring pipeline (§III-A,
// Fig 3): a small monitoring TCAM whose wildcard entries are the binning
// trie's leaves, and a register file with one hit counter per bin. Every
// observed operand value matches one entry and increments the corresponding
// register — no sampling, no packet resubmission, exactly the P4-friendly
// path the paper describes.
//
// The control plane periodically snapshots and resets the registers; both
// operations are counted so the paper's overhead accounting (Table II) can
// be derived from real operation counts.
//
// The observe path is built for multi-core replay at zero steady-state
// allocation: batch lookups resolve through the TCAM's typed ordinal path
// (no per-sample interface assertions), scratch buffers recycle through a
// pool, and a batch counts its hits per bin locally before flushing each
// touched bin's total into the one register file with a single atomic add,
// so concurrent observers contend on at most one add per bin per batch.
// Register-width saturation is enforced when the control plane reads the
// registers, which keeps snapshots and the saturation statistic
// bit-identical to a sequential replay (increments are commutative, and
// min(total, max) equals the per-increment clamp regardless of
// interleaving).
package monitor

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/tcam"
)

var (
	// ErrNoBins reports installation of an empty bin set.
	ErrNoBins = errors.New("monitor: at least one bin is required")
	// ErrNotPartition reports bins that do not tile the operand domain; a
	// monitoring table with holes silently loses distribution mass.
	ErrNotPartition = errors.New("monitor: bins do not partition the operand domain")
)

// DefaultRegisterBits is the register width of the modelled switch; Tofino
// register cells are 32 bits.
const DefaultRegisterBits = 32

// Stats counts data-plane and control-plane operations on the monitor.
type Stats struct {
	// Observations counts data-plane samples offered.
	Observations uint64
	// Matched counts samples that hit a bin (always equal to Observations
	// while the bins partition the domain).
	Matched uint64
	// RegisterReads counts control-plane register reads (snapshots).
	RegisterReads uint64
	// RegisterWrites counts control-plane register writes (resets).
	RegisterWrites uint64
	// TCAMWrites counts monitoring-TCAM entry writes (installs + removals).
	TCAMWrites uint64
	// Saturations counts register increments lost to the register width
	// limit.
	Saturations uint64
}

// monStats is the live, atomically-updated form of Stats, so the observe
// path never takes an exclusive lock just to count.
type monStats struct {
	observations   atomic.Uint64
	matched        atomic.Uint64
	registerReads  atomic.Uint64
	registerWrites atomic.Uint64
	tcamWrites     atomic.Uint64
	saturations    atomic.Uint64 // increments lost in registers already drained
}

// obsScratch is the per-batch buffer set ObserveAll recycles: masked keys,
// resolved ordinals, and the batch's local per-bin hit counts with the bins
// they touched. counts' whole backing array is zero between batches, so it
// serves any bin count up to its capacity. Losing one to the pool's GC costs
// a re-allocation, never counts.
type obsScratch struct {
	keys    []uint64
	ords    []int32
	counts  []uint64
	touched []uint32
}

// Monitor is the data-plane monitoring unit for one variable. It is safe
// for concurrent use, and observation scales across goroutines: observers
// hold the lock in shared mode (the bin lookup itself is lock-free inside
// the tcam package) and flush each batch into the registers with one atomic
// add per touched bin, so many packets observe in parallel while only
// control-plane operations — Install, Snapshot, Reset — exclude them.
type Monitor struct {
	mu sync.RWMutex // RLock: observers; Lock: install/snapshot/reset

	table       *tcam.Table
	prefixes    []bitstr.Prefix
	width       int
	registerMax uint64
	capacity    int
	stats       monStats

	// regs is guarded by mu: observers RLock it and add to its elements
	// atomically, so its length is the installed bin count.
	regs    []uint64
	scratch sync.Pool // of *obsScratch
}

// Option configures a Monitor.
type Option func(*Monitor)

// WithRegisterBits sets the register width (default 32). Increments
// saturate at 2^bits − 1.
func WithRegisterBits(bits int) Option {
	return func(m *Monitor) {
		if bits >= 64 {
			m.registerMax = ^uint64(0)
			return
		}
		if bits < 1 {
			bits = 1
		}
		m.registerMax = uint64(1)<<uint(bits) - 1
	}
}

// New creates a monitor for width-bit operands with the given monitoring
// TCAM capacity (0 = unbounded). Install must be called before observing.
func New(name string, width, capacity int, opts ...Option) (*Monitor, error) {
	t, err := tcam.New(name, capacity, width)
	if err != nil {
		return nil, err
	}
	m := &Monitor{
		table:       t,
		width:       width,
		capacity:    capacity,
		registerMax: uint64(1)<<DefaultRegisterBits - 1,
	}
	for _, o := range opts {
		o(m)
	}
	m.scratch.New = func() any { return new(obsScratch) }
	return m, nil
}

// Install replaces the monitoring bins. The prefixes must tile the operand
// domain (the trie's leaves always do). It returns the number of TCAM
// writes performed — diff-reconciled against the installed bins, so a
// reshape that keeps most bins only pays for the rows that moved.
// Registers are re-allocated and zeroed.
//
// Install is transactional: on any error (validation, capacity, or a
// row-write failure injected at the driver boundary) the previously
// installed bins and their registers remain fully intact.
func (m *Monitor) Install(prefixes []bitstr.Prefix) (int, error) {
	if len(prefixes) == 0 {
		return 0, ErrNoBins
	}
	if !bitstr.Partition(prefixes) {
		return 0, fmt.Errorf("%w: %v", ErrNotPartition, prefixes)
	}
	rows := make([]tcam.Row, len(prefixes))
	for i, p := range prefixes {
		rows[i] = tcam.RowFromPrefix(p, i)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	writes, err := m.table.ApplyRowsAtomic(rows)
	if err != nil {
		return 0, err
	}
	// Fold the discarded registers' lost increments into the lifetime
	// saturation statistic before the registers are replaced, exactly as
	// the per-increment accounting would have counted them.
	m.drainLocked(nil, true)
	m.prefixes = make([]bitstr.Prefix, len(prefixes))
	copy(m.prefixes, prefixes)
	m.regs = make([]uint64, len(prefixes))
	m.stats.tcamWrites.Add(uint64(writes))
	return writes, nil
}

// Observe records one data-plane sample — match the monitoring TCAM,
// increment the winning bin's register — as a batch of one through
// ObserveAll's path. It reports whether the sample matched a bin.
func (m *Monitor) Observe(v uint64) bool {
	return m.observe([]uint64{v}) == 1
}

// ObserveAll records a batch of samples, resolving all of them against one
// compiled TCAM snapshot through the typed ordinal path — no per-sample
// lookup dispatch, interface assertion, or allocation: the masked-key,
// ordinal and count buffers recycle through an internal pool, and the batch
// adds each touched bin's hits to its register once.
func (m *Monitor) ObserveAll(vs []uint64) {
	if len(vs) > 0 {
		m.observe(vs)
	}
}

// observe records vs and returns how many matched a bin. The critical
// section is shared (read-locked) and the bin lookup is lock-free, so
// concurrent observers do not serialize; only the register flush is
// synchronized, via one atomic add per bin the batch touched. The flush
// walks the touched bins, not every bin, so it costs O(batch) even on a
// monitor with many bins.
func (m *Monitor) observe(vs []uint64) (matched uint64) {
	mask := ^uint64(0)
	if m.width < 64 {
		mask = uint64(1)<<uint(m.width) - 1
	}
	m.stats.observations.Add(uint64(len(vs)))
	sc := m.scratch.Get().(*obsScratch)
	keys := sc.keys
	if cap(keys) >= len(vs) {
		keys = keys[:len(vs)]
	} else {
		keys = make([]uint64, len(vs))
	}
	for i, v := range vs {
		keys[i] = v & mask
	}
	m.mu.RLock()
	ords, pay := m.table.LookupIndexBatch(keys, sc.ords)
	regs := m.regs
	counts, touched := sc.counts, sc.touched[:0]
	if cap(counts) < len(regs) {
		counts = make([]uint64, len(regs))
	}
	counts = counts[:len(regs)]
	for _, ord := range ords {
		idx, ok := pay.Value(ord)
		if !ok || idx >= uint64(len(counts)) {
			continue
		}
		if counts[idx] == 0 {
			touched = append(touched, uint32(idx))
		}
		counts[idx]++
	}
	for _, b := range touched {
		atomic.AddUint64(&regs[b], counts[b])
		matched += counts[b]
		counts[b] = 0
	}
	m.mu.RUnlock()
	m.stats.matched.Add(matched)
	sc.keys, sc.ords, sc.counts, sc.touched = keys, ords, counts, touched
	m.scratch.Put(sc)
	return matched
}

// drainLocked copies the registers into dst (when non-nil) with
// register-width saturation applied, and, when reset is set, zeroes them and
// folds the lost increments into the lifetime saturation counter; m.mu must
// be held exclusively. Reading under the exclusive lock is what makes the
// result bit-identical to a sequential replay: no flush is in flight, and
// min(total, max) is exactly what per-increment clamping would have left in
// the register.
func (m *Monitor) drainLocked(dst []uint64, reset bool) {
	for i := range m.regs {
		total := m.regs[i]
		if reset {
			m.regs[i] = 0
		}
		v := total
		if v > m.registerMax {
			v = m.registerMax
		}
		if reset {
			m.stats.saturations.Add(total - v)
		}
		if dst != nil {
			dst[i] = v
		}
	}
}

// Snapshot returns the per-bin hit counts in bin (value) order and charges
// one register read per bin.
func (m *Monitor) Snapshot() []uint64 {
	return m.SnapshotInto(nil)
}

// SnapshotInto is Snapshot writing into dst when it has the capacity,
// allocating only when it does not. The control plane reuses one scratch
// buffer across rounds instead of allocating a fresh slice per snapshot.
func (m *Monitor) SnapshotInto(dst []uint64) []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	dst = sizeFor(dst, len(m.regs))
	m.drainLocked(dst, false)
	m.stats.registerReads.Add(uint64(len(m.regs)))
	return dst
}

// SnapshotAndReset reads and zeroes the registers in one critical section —
// the read-and-clear register access real switch drivers use so that no
// sample landing between a separate read and reset is lost. It charges one
// register read and one register write per bin.
func (m *Monitor) SnapshotAndReset() []uint64 {
	return m.SnapshotAndResetInto(nil)
}

// SnapshotAndResetInto is SnapshotAndReset writing into dst when it has the
// capacity, allocating only when it does not.
func (m *Monitor) SnapshotAndResetInto(dst []uint64) []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	dst = sizeFor(dst, len(m.regs))
	m.drainLocked(dst, true)
	m.stats.registerReads.Add(uint64(len(m.regs)))
	m.stats.registerWrites.Add(uint64(len(m.regs)))
	return dst
}

// HitDistance is the total-variation distance between two register
// snapshots viewed as distributions: the histograms are normalised by their
// totals and the distance is half the L1 norm of their difference, in
// [0, 1]. It is the drift signal the service pacer compares against its
// trigger threshold — scale-invariant (proportional traffic growth scores
// 0) and monotone under progressive skew. Histograms of different lengths
// cannot be compared bin-for-bin (the monitoring layout moved), so they
// score the maximum distance 1; two empty histograms score 0, and an empty
// histogram against a non-empty one scores 1.
func HitDistance(a, b []uint64) float64 {
	if len(a) != len(b) {
		return 1
	}
	var ta, tb uint64
	for _, v := range a {
		ta += v
	}
	for _, v := range b {
		tb += v
	}
	if ta == 0 && tb == 0 {
		return 0
	}
	if ta == 0 || tb == 0 {
		return 1
	}
	var l1 float64
	for i := range a {
		d := float64(a[i])/float64(ta) - float64(b[i])/float64(tb)
		if d < 0 {
			d = -d
		}
		l1 += d
	}
	return l1 / 2
}

// sizeFor returns dst resized to n elements, reusing its backing array when
// the capacity allows.
func sizeFor(dst []uint64, n int) []uint64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]uint64, n)
}

// Reset zeroes the registers and charges one register write per bin.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drainLocked(nil, true)
	m.stats.registerWrites.Add(uint64(len(m.regs)))
}

// NumBins returns the installed bin count.
func (m *Monitor) NumBins() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.prefixes)
}

// Prefixes returns a copy of the installed bins in value order.
func (m *Monitor) Prefixes() []bitstr.Prefix {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]bitstr.Prefix, len(m.prefixes))
	copy(out, m.prefixes)
	return out
}

// Width returns the operand width in bits.
func (m *Monitor) Width() int { return m.width }

// Table exposes the monitoring TCAM for resource accounting.
func (m *Monitor) Table() *tcam.Table { return m.table }

// Stats returns a snapshot of the operation counters. Saturations is
// computed live: lost increments still sitting in undrained registers are
// included, exactly as the per-increment accounting would report.
func (m *Monitor) Stats() Stats {
	m.mu.RLock()
	sat := m.stats.saturations.Load()
	for i := range m.regs {
		if total := atomic.LoadUint64(&m.regs[i]); total > m.registerMax {
			sat += total - m.registerMax
		}
	}
	m.mu.RUnlock()
	return Stats{
		Observations:   m.stats.observations.Load(),
		Matched:        m.stats.matched.Load(),
		RegisterReads:  m.stats.registerReads.Load(),
		RegisterWrites: m.stats.registerWrites.Load(),
		TCAMWrites:     m.stats.tcamWrites.Load(),
		Saturations:    sat,
	}
}
