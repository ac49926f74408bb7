package controlplane

import (
	"time"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/monitor"
	"github.com/ada-repro/ada/internal/trie"
)

// Driver is the switch-driver boundary: the seam where the paper's gRPC wire
// sits between the controller and the Tofino driver. Every data-plane
// touch the controller makes — register reads/resets, monitoring-table
// installs, calculation-table population — goes through this interface, so a
// fault-injecting wrapper (internal/faults) can make any of them fail, stall,
// or return stale state exactly where a real driver would.
//
// All operations may fail transiently; the controller retries them under its
// RetryPolicy and degrades to serving the last good population when they
// keep failing.
type Driver interface {
	// Width returns the operand width of the monitored variable in bits.
	Width() int
	// MonitorCapacity returns the monitoring TCAM capacity (0 = unbounded).
	MonitorCapacity() int
	// NumBins returns the currently installed monitoring bin count.
	NumBins() int
	// ReadRegisters snapshots the per-bin hit counters (one register read
	// per bin).
	ReadRegisters() ([]uint64, error)
	// ResetRegisters zeroes the hit counters and returns the register
	// writes performed.
	ResetRegisters() (int, error)
	// InstallMonitoring replaces the monitoring bins atomically, returning
	// the TCAM writes performed. On error the previous bins remain
	// installed.
	InstallMonitoring(prefixes []bitstr.Prefix) (int, error)
	// PopulateCalc rebuilds the calculation population from the trie into a
	// shadow generation and commits it atomically, returning TCAM writes
	// and entries computed: DeltaPopulator's populate without the reuse
	// count. On error the previous population remains installed in full.
	PopulateCalc(tr *trie.Trie, budget int) (writes, computed int, err error)
}

// DeltaPopulator is the optional incremental extension of Driver: a driver
// that can reconcile the calculation population against its shadow copy,
// emitting only the changed rows. The controller prefers this path when the
// driver implements it; drivers that do not fall back to PopulateCalc.
// computed and reused split the entries as Target.Populate does: a fresh
// Algorithm 3 build, or the last committed build served again unevaluated.
// The full-repopulation reference is core's Config.DisableIncremental, and
// its end state must be identical. On error the previous population must
// remain fully installed.
type DeltaPopulator interface {
	PopulateCalcDelta(tr *trie.Trie, budget int) (writes, computed, reused int, err error)
}

// TierMoves is one tier-placement pass's accounting: rows moved between the
// TCAM and SRAM tiers of a tiered calculation store and the physical writes
// the moves cost in each memory.
type TierMoves struct {
	// Promotions counts rows moved SRAM → TCAM.
	Promotions int
	// Demotions counts rows moved TCAM → SRAM.
	Demotions int
	// TCAMWrites counts the TCAM row writes the moves cost, charged at
	// CostModel.PerTCAMWrite.
	TCAMWrites int
	// SRAMWrites counts the SRAM row writes of the round — tier-move
	// invalidates/installs plus any populate-time spills — charged at
	// CostModel.PerSRAMWrite.
	SRAMWrites int
}

// TierPlacer is the optional tier-placement extension of Driver (and of the
// targets DirectDriver fronts): after each committed round, a driver whose
// calculation store tiers rows across TCAM and SRAM re-ranks placement from
// the trie's per-bin hit registers — the same counters Algorithm 2 reads.
// placed reports whether a tiered store was actually present (false means
// the step was a no-op); moves must carry the write accounting either way,
// including on error, so the controller charges work that landed before a
// failure.
type TierPlacer interface {
	PlaceTiers(tr *trie.Trie) (moves TierMoves, placed bool, err error)
}

// LatencyReporter is implemented by drivers that model per-op latency beyond
// the CostModel's calibrated operation costs (e.g. injected latency spikes).
// The controller drains it after each driver call and charges the result
// into the round's Delay and deadline budget.
type LatencyReporter interface {
	// TakeInjectedLatency returns the extra latency accumulated since the
	// last call and resets the accumulator.
	TakeInjectedLatency() time.Duration
}

// DirectDriver is the in-process implementation of Driver: it talks straight
// to the tcam/monitor model with no wire in between, and never fails unless
// the underlying tables do (capacity, validation). This is the seed
// behaviour every pre-Driver caller had.
type DirectDriver struct {
	mon    *monitor.Monitor
	target Target
	// snap is the register-snapshot scratch buffer, reused across rounds so
	// a converged control loop stops allocating one slice per snapshot.
	snap []uint64
}

// NewDirectDriver wraps the in-process monitor and calculation target.
// target may be nil for monitoring-only variables.
func NewDirectDriver(mon *monitor.Monitor, target Target) *DirectDriver {
	return &DirectDriver{mon: mon, target: target}
}

// Width implements Driver.
func (d *DirectDriver) Width() int { return d.mon.Width() }

// MonitorCapacity implements Driver.
func (d *DirectDriver) MonitorCapacity() int { return d.mon.Table().Capacity() }

// NumBins implements Driver.
func (d *DirectDriver) NumBins() int { return d.mon.NumBins() }

// ReadRegisters implements Driver. The returned slice is valid until the
// next ReadRegisters call on this driver: it is a reused scratch buffer, and
// the controller consumes each snapshot within its round.
func (d *DirectDriver) ReadRegisters() ([]uint64, error) {
	d.snap = d.mon.SnapshotInto(d.snap)
	return d.snap, nil
}

// ResetRegisters implements Driver.
func (d *DirectDriver) ResetRegisters() (int, error) {
	d.mon.Reset()
	return d.mon.NumBins(), nil
}

// InstallMonitoring implements Driver.
func (d *DirectDriver) InstallMonitoring(prefixes []bitstr.Prefix) (int, error) {
	return d.mon.Install(prefixes)
}

// PopulateCalc implements Driver: the target's Populate without the reuse
// count.
func (d *DirectDriver) PopulateCalc(tr *trie.Trie, budget int) (int, int, error) {
	writes, computed, _, err := d.PopulateCalcDelta(tr, budget)
	return writes, computed, err
}

// PopulateCalcDelta implements DeltaPopulator by forwarding to the target.
func (d *DirectDriver) PopulateCalcDelta(tr *trie.Trie, budget int) (int, int, int, error) {
	if d.target == nil {
		return 0, 0, 0, nil
	}
	return d.target.Populate(tr, budget)
}

// PlaceTiers implements TierPlacer by forwarding to the target when it can
// place tiers (the core targets mounted on a tiered store); other targets
// report placed=false and the controller skips the step.
func (d *DirectDriver) PlaceTiers(tr *trie.Trie) (TierMoves, bool, error) {
	if tp, ok := d.target.(TierPlacer); ok {
		return tp.PlaceTiers(tr)
	}
	return TierMoves{}, false, nil
}

// Monitor exposes the wrapped monitor.
func (d *DirectDriver) Monitor() *monitor.Monitor { return d.mon }

// RetryPolicy bounds the controller's retries against a flaky driver. Retry
// backoff is charged through the CostModel into the round's Delay, so the
// Fig 9 convergence accounting stays honest under faults.
type RetryPolicy struct {
	// MaxAttempts is the total attempts per driver operation (minimum 1).
	MaxAttempts int
	// BaseBackoff is the delay charged before the first retry; it doubles
	// per retry up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// RoundDeadline bounds the modelled delay of one round (op costs +
	// backoff + injected latency); once exceeded the round aborts as
	// degraded rather than blowing the convergence budget. 0 = none.
	RoundDeadline time.Duration
}

// DefaultRetryPolicy returns the defaults: 3 attempts, 50µs base backoff
// capped at 800µs, no round deadline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  800 * time.Microsecond,
	}
}

func (p RetryPolicy) normalise() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxAttempts < 1 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = def.BaseBackoff
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = def.MaxBackoff
		if p.MaxBackoff < p.BaseBackoff {
			p.MaxBackoff = p.BaseBackoff
		}
	}
	return p
}

// Health is the controller's view of the driver.
type Health int

// Health states.
const (
	// Healthy: rounds run normally.
	Healthy Health = iota
	// Unhealthy: too many consecutive rounds failed; the controller serves
	// the last good population and only probes the driver each round.
	Unhealthy
)

// String implements fmt.Stringer.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Unhealthy:
		return "unhealthy"
	default:
		return "unknown"
	}
}

// DegradeReason names why a round aborted without committing.
type DegradeReason string

// Degrade reasons surfaced in RoundReport.
const (
	// ReasonNone: the round committed.
	ReasonNone DegradeReason = ""
	// ReasonSnapshot: the register snapshot could not be read.
	ReasonSnapshot DegradeReason = "snapshot-read"
	// ReasonStaleSnapshot: the snapshot did not match the installed bins
	// (stale or corrupt driver state).
	ReasonStaleSnapshot DegradeReason = "stale-snapshot"
	// ReasonResync: reinstalling the bins after a detected driver/controller
	// divergence failed.
	ReasonResync DegradeReason = "bin-resync"
	// ReasonInstall: pushing the reshaped monitoring bins failed.
	ReasonInstall DegradeReason = "monitoring-install"
	// ReasonPopulate: committing the calculation population failed.
	ReasonPopulate DegradeReason = "calc-populate"
	// ReasonDeadline: the round exceeded its modelled delay budget.
	ReasonDeadline DegradeReason = "round-deadline"
	// ReasonUnhealthy: the controller is in degraded mode and only probed
	// the driver.
	ReasonUnhealthy DegradeReason = "driver-unhealthy"
	// ReasonAudit: the read-back audit or its anti-entropy repair failed.
	ReasonAudit DegradeReason = "calc-audit"
	// ReasonCancelled: the round's context was cancelled mid-round.
	ReasonCancelled DegradeReason = "cancelled"
)
