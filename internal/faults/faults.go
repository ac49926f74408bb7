// Package faults provides a deterministic, seedable fault-injecting switch
// driver: the chaos layer for the control plane. The paper's controller is a
// gRPC client against a real Tofino driver, and real drivers fail — TCAM
// writes time out, register reads return stale snapshots, latency spikes
// blow the convergence budget. An Injector wraps the controlplane.Driver
// boundary (and, optionally, individual tcam tables at row-write
// granularity) and reproduces those failure modes from a seeded RNG, so
// every chaos run is replayable.
//
// Fault modes:
//
//   - transient write failures: InstallMonitoring / PopulateCalc /
//     ResetRegisters fail with ErrInjected at a configured probability, and
//     succeed when retried;
//   - persistent outages: the driver goes down for a run of consecutive
//     operations (ErrOutage), modelling a driver restart or a wedged session;
//   - dropped / stale register snapshots: ReadRegisters fails, or returns
//     the previous snapshot — including one whose bin count no longer
//     matches the installed table;
//   - per-op latency with spikes: every operation charges latency drawn
//     from a configurable distribution, surfaced through the
//     controlplane.LatencyReporter seam into round delays and deadlines;
//   - capacity pressure: installs fail with ErrPressure, modelling TCAM
//     space transiently claimed by other tables on the switch;
//   - per-row write failures: AttachTable hooks a tcam.Table so individual
//     row writes fail mid-reconciliation, exercising ApplyRowsAtomic's and
//     ApplyDelta's rollback.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/tcam"
	"github.com/ada-repro/ada/internal/trie"
)

var (
	// ErrInjected reports a transient injected failure; retrying may succeed.
	ErrInjected = errors.New("faults: injected driver failure")
	// ErrOutage reports an injected persistent outage; the driver stays down
	// for a run of operations.
	ErrOutage = fmt.Errorf("%w: driver outage", ErrInjected)
	// ErrPressure reports injected capacity pressure on a table install.
	ErrPressure = fmt.Errorf("%w: TCAM capacity pressure", ErrInjected)
	// ErrAckDropped reports a write whose acknowledgement was lost: the
	// caller sees a failure, but the operation landed in the hardware. The
	// most treacherous driver fault — a retry reprograms, a give-up leaves
	// the controller's shadow behind reality until an audit catches it.
	ErrAckDropped = fmt.Errorf("%w: ack dropped (write landed)", ErrInjected)
	// ErrProfile reports an invalid fault profile.
	ErrProfile = errors.New("faults: invalid profile")
)

// Dist is a latency distribution sampled once per affected operation.
type Dist interface {
	Sample(r *rand.Rand) time.Duration
}

// Fixed is a constant latency.
type Fixed time.Duration

// Sample implements Dist.
func (f Fixed) Sample(*rand.Rand) time.Duration { return time.Duration(f) }

// Uniform draws uniformly from [Min, Max].
type Uniform struct{ Min, Max time.Duration }

// Sample implements Dist.
func (u Uniform) Sample(r *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(r.Int63n(int64(u.Max-u.Min)))
}

// Exponential draws from an exponential distribution with the given mean —
// the heavy-ish tail typical of driver RPC latency.
type Exponential struct{ Mean time.Duration }

// Sample implements Dist.
func (e Exponential) Sample(r *rand.Rand) time.Duration {
	if e.Mean <= 0 {
		return 0
	}
	return time.Duration(r.ExpFloat64() * float64(e.Mean))
}

// Profile parameterises the injector. The zero value injects nothing.
type Profile struct {
	// Seed seeds the RNG; equal seeds and call sequences replay identically.
	Seed int64
	// WriteFailure is the per-operation transient failure probability for
	// driver writes (install, populate, reset).
	WriteFailure float64
	// RowFailure is the per-row write failure probability for tables hooked
	// with AttachTable.
	RowFailure float64
	// SnapshotDrop is the probability a ReadRegisters fails outright.
	SnapshotDrop float64
	// SnapshotStale is the probability a ReadRegisters returns the previous
	// snapshot instead of fresh state.
	SnapshotStale float64
	// OutageProb is the per-operation probability that a persistent outage
	// starts; the driver then fails every operation for OutageOps ops.
	OutageProb float64
	// OutageOps is the outage length in operations (default 8 when an
	// outage can start).
	OutageOps int
	// CapacityPressure is the probability an install/populate fails with
	// ErrPressure.
	CapacityPressure float64
	// Latency, when set, is charged on every driver operation.
	Latency Dist
	// SpikeProb is the probability an operation additionally pays Spike.
	SpikeProb float64
	// Spike is the latency-spike distribution.
	Spike Dist

	// AckDrop is the probability a successful driver write loses its ack:
	// the caller sees ErrAckDropped but the operation landed.
	AckDrop float64
	// AuditStale is the probability a read-back audit returns a stale
	// all-clean result instead of reading the hardware, delaying detection.
	AuditStale float64
	// CrashProb is the per-crash-point probability the controller process
	// dies there (consumed through Injector.CrashHook).
	CrashProb float64
	// Corrupt, Ghost, and DropRow are the per-tamper-round probabilities
	// (consumed through Injector.TamperStore) of a silent payload bit-flip,
	// a ghost row insert, and a silent row drop respectively.
	Corrupt float64
	Ghost   float64
	DropRow float64
}

// DefaultProfile returns the default chaos profile: 5% transient write
// failure, 1% stale snapshots, seeded.
func DefaultProfile() Profile {
	return Profile{
		Seed:          1,
		WriteFailure:  0.05,
		SnapshotStale: 0.01,
	}
}

// OutageProfile returns a harsher profile layering driver outages and
// latency spikes on top of DefaultProfile, for degraded-mode soak tests.
func OutageProfile() Profile {
	p := DefaultProfile()
	p.OutageProb = 0.02
	p.OutageOps = 6
	p.RowFailure = 0.02
	p.Latency = Exponential{Mean: 20 * time.Microsecond}
	p.SpikeProb = 0.05
	p.Spike = Fixed(400 * time.Microsecond)
	return p
}

func (p Profile) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"write", p.WriteFailure}, {"row", p.RowFailure},
		{"drop", p.SnapshotDrop}, {"stale", p.SnapshotStale},
		{"outage", p.OutageProb}, {"pressure", p.CapacityPressure},
		{"spikeprob", p.SpikeProb}, {"ackdrop", p.AckDrop},
		{"auditstale", p.AuditStale}, {"crash", p.CrashProb},
		{"corrupt", p.Corrupt}, {"ghost", p.Ghost}, {"droprow", p.DropRow},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("%w: %s probability %g outside [0,1]", ErrProfile, f.name, f.v)
		}
	}
	if p.OutageOps < 0 {
		return fmt.Errorf("%w: outage length %d", ErrProfile, p.OutageOps)
	}
	return nil
}

// Stats counts injected events.
type Stats struct {
	// Ops is the driver operations observed.
	Ops uint64
	// WriteFailures is the transient write failures injected.
	WriteFailures uint64
	// RowFailures is the per-row write failures injected via table hooks.
	RowFailures uint64
	// SnapshotDrops and StaleSnapshots count the register-read faults.
	SnapshotDrops  uint64
	StaleSnapshots uint64
	// Outages counts outages started; OutageOps counts operations failed
	// inside one.
	Outages   uint64
	OutageOps uint64
	// PressureFailures counts injected capacity-pressure failures.
	PressureFailures uint64
	// Spikes counts latency spikes injected.
	Spikes uint64
	// Injected is the total latency injected.
	Injected time.Duration
	// AckDrops counts successful writes whose ack was dropped.
	AckDrops uint64
	// StaleAudits counts audits answered with a stale all-clean result.
	StaleAudits uint64
	// Crashes counts injected controller crashes.
	Crashes uint64
	// TamperedRows, GhostRows, and DroppedRows count silent corruptions
	// applied through TamperStore and the direct tamper helpers.
	TamperedRows uint64
	GhostRows    uint64
	DroppedRows  uint64
}

// Injector owns the seeded RNG and fault state shared by every driver and
// table hook it creates. It is safe for concurrent use.
type Injector struct {
	mu         sync.Mutex
	prof       Profile
	rng        *rand.Rand
	outageLeft int
	disarmed   bool
	stats      Stats
}

// New validates the profile and builds an injector.
func New(prof Profile) (*Injector, error) {
	if err := prof.validate(); err != nil {
		return nil, err
	}
	if prof.OutageProb > 0 && prof.OutageOps == 0 {
		prof.OutageOps = 8
	}
	return &Injector{prof: prof, rng: rand.New(rand.NewSource(prof.Seed))}, nil
}

// MustNew is New but panics on error; for tests and static profiles.
func MustNew(prof Profile) *Injector {
	in, err := New(prof)
	if err != nil {
		panic(err)
	}
	return in
}

// Profile returns the effective profile.
func (in *Injector) Profile() Profile { return in.prof }

// Stats returns a snapshot of the injected-event counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// SetArmed toggles injection. Disarming silences every fault mode — driver
// ops, row hooks, tampering, crashes — and clears any in-progress outage,
// so a chaos run can end with a clean convergence tail; the RNG stream is
// left untouched for replayability of the armed prefix. Injectors start
// armed.
func (in *Injector) SetArmed(v bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.disarmed = !v
	if !v {
		in.outageLeft = 0
	}
}

// Armed reports whether injection is active.
func (in *Injector) Armed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return !in.disarmed
}

// Wrap returns a fault-injecting driver around inner. Its signature matches
// controlplane.Config.WrapDriver, so plumbing an injector into a controller
// is one assignment.
func (in *Injector) Wrap(inner controlplane.Driver) controlplane.Driver {
	return &Driver{in: in, inner: inner}
}

// AttachTable installs a per-row write hook on t that fails each physical
// row write with the profile's RowFailure probability. Use it on calculation
// tables to exercise mid-reconciliation failures and the atomic commit's
// rollback.
func (in *Injector) AttachTable(t *tcam.Table) { in.AttachRows(t) }

// RowHooker is any store exposing the per-row write-hook seam: a physical
// tcam.Table, a tenant.Partition (faults every slice's commits), or a
// tenant.Slice (faults exactly one tenant's commits, leaving its neighbours
// on the shared table untouched).
type RowHooker interface {
	SetWriteHook(tcam.WriteHook)
}

// AttachRows installs the injector's per-row failure hook on any RowHooker.
func (in *Injector) AttachRows(h RowHooker) {
	h.SetWriteHook(func(op tcam.WriteOp) error {
		in.mu.Lock()
		defer in.mu.Unlock()
		if in.disarmed {
			return nil
		}
		if in.prof.RowFailure > 0 && in.rng.Float64() < in.prof.RowFailure {
			in.stats.RowFailures++
			return fmt.Errorf("%w: row %v", ErrInjected, op)
		}
		return nil
	})
}

// opStart runs the shared per-operation fault machinery: outage state,
// latency (base + spike), and the operation counter. It returns a non-nil
// error when the operation must fail before reaching the inner driver.
// latency is accumulated onto d regardless, as even failed RPCs take time.
func (in *Injector) opStart(d *Driver) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Ops++
	if in.disarmed {
		return nil
	}
	if in.prof.Latency != nil {
		l := in.prof.Latency.Sample(in.rng)
		d.injected += l
		in.stats.Injected += l
	}
	if in.prof.Spike != nil && in.prof.SpikeProb > 0 && in.rng.Float64() < in.prof.SpikeProb {
		l := in.prof.Spike.Sample(in.rng)
		d.injected += l
		in.stats.Injected += l
		in.stats.Spikes++
	}
	if in.outageLeft > 0 {
		in.outageLeft--
		in.stats.OutageOps++
		return ErrOutage
	}
	if in.prof.OutageProb > 0 && in.rng.Float64() < in.prof.OutageProb {
		in.outageLeft = in.prof.OutageOps - 1 // this op fails too
		in.stats.Outages++
		in.stats.OutageOps++
		return ErrOutage
	}
	return nil
}

// StartOutage forces an outage covering the next ops driver operations,
// regardless of OutageProb. Deterministic outage scheduling for tests and
// replay tooling.
func (in *Injector) StartOutage(ops int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if ops > in.outageLeft {
		in.outageLeft = ops
	}
	in.stats.Outages++
}

// roll returns true with probability p and charges the named counter.
func (in *Injector) roll(p float64, counter *uint64) bool {
	if p <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.disarmed {
		return false
	}
	if in.rng.Float64() < p {
		*counter++
		return true
	}
	return false
}

// Driver is the fault-injecting controlplane.Driver. Create one per
// controller with Injector.Wrap; drivers created from the same injector
// share its RNG, outage state, and statistics.
type Driver struct {
	in    *Injector
	inner controlplane.Driver

	mu       sync.Mutex
	lastSnap []uint64
	injected time.Duration
}

var _ controlplane.Driver = (*Driver)(nil)
var _ controlplane.LatencyReporter = (*Driver)(nil)
var _ controlplane.DeltaPopulator = (*Driver)(nil)

// Unwrap exposes the wrapped driver (controlplane uses this to find the
// in-process monitor behind the fault layer).
func (d *Driver) Unwrap() controlplane.Driver { return d.inner }

// Width implements controlplane.Driver (local bookkeeping, never faulted).
func (d *Driver) Width() int { return d.inner.Width() }

// MonitorCapacity implements controlplane.Driver (never faulted).
func (d *Driver) MonitorCapacity() int { return d.inner.MonitorCapacity() }

// NumBins implements controlplane.Driver (never faulted: it reads the
// controller-side shadow, not the wire).
func (d *Driver) NumBins() int { return d.inner.NumBins() }

// TakeInjectedLatency implements controlplane.LatencyReporter.
func (d *Driver) TakeInjectedLatency() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	l := d.injected
	d.injected = 0
	return l
}

// ReadRegisters implements controlplane.Driver with drop and stale faults.
func (d *Driver) ReadRegisters() ([]uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.in.opStart(d); err != nil {
		return nil, err
	}
	if d.in.roll(d.in.prof.SnapshotDrop, &d.in.stats.SnapshotDrops) {
		return nil, fmt.Errorf("%w: snapshot dropped", ErrInjected)
	}
	if d.lastSnap != nil && d.in.roll(d.in.prof.SnapshotStale, &d.in.stats.StaleSnapshots) {
		stale := make([]uint64, len(d.lastSnap))
		copy(stale, d.lastSnap)
		return stale, nil
	}
	snap, err := d.inner.ReadRegisters()
	if err != nil {
		return nil, err
	}
	d.lastSnap = make([]uint64, len(snap))
	copy(d.lastSnap, snap)
	return snap, nil
}

// ResetRegisters implements controlplane.Driver with transient write faults.
func (d *Driver) ResetRegisters() (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.in.opStart(d); err != nil {
		return 0, err
	}
	if d.in.roll(d.in.prof.WriteFailure, &d.in.stats.WriteFailures) {
		return 0, fmt.Errorf("%w: register reset", ErrInjected)
	}
	n, err := d.inner.ResetRegisters()
	if err != nil {
		return 0, err
	}
	if d.in.roll(d.in.prof.AckDrop, &d.in.stats.AckDrops) {
		return 0, fmt.Errorf("%w: register reset", ErrAckDropped)
	}
	return n, nil
}

// InstallMonitoring implements controlplane.Driver with transient write and
// capacity-pressure faults. Injected failures fire before the inner install,
// so the previously installed bins remain intact (the inner install is
// itself atomic).
func (d *Driver) InstallMonitoring(prefixes []bitstr.Prefix) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.in.opStart(d); err != nil {
		return 0, err
	}
	if d.in.roll(d.in.prof.WriteFailure, &d.in.stats.WriteFailures) {
		return 0, fmt.Errorf("%w: monitoring install", ErrInjected)
	}
	if d.in.roll(d.in.prof.CapacityPressure, &d.in.stats.PressureFailures) {
		return 0, ErrPressure
	}
	n, err := d.inner.InstallMonitoring(prefixes)
	if err != nil {
		return 0, err
	}
	if d.in.roll(d.in.prof.AckDrop, &d.in.stats.AckDrops) {
		return 0, fmt.Errorf("%w: monitoring install", ErrAckDropped)
	}
	return n, nil
}

// PopulateCalc implements controlplane.Driver with transient write and
// capacity-pressure faults.
func (d *Driver) PopulateCalc(tr *trie.Trie, budget int) (int, int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.in.opStart(d); err != nil {
		return 0, 0, err
	}
	if d.in.roll(d.in.prof.WriteFailure, &d.in.stats.WriteFailures) {
		return 0, 0, fmt.Errorf("%w: calc populate", ErrInjected)
	}
	if d.in.roll(d.in.prof.CapacityPressure, &d.in.stats.PressureFailures) {
		return 0, 0, ErrPressure
	}
	w, comp, err := d.inner.PopulateCalc(tr, budget)
	if err != nil {
		return 0, 0, err
	}
	if d.in.roll(d.in.prof.AckDrop, &d.in.stats.AckDrops) {
		return 0, 0, fmt.Errorf("%w: calc populate", ErrAckDropped)
	}
	return w, comp, nil
}

// PopulateCalcDelta implements controlplane.DeltaPopulator with the same
// fault rolls as PopulateCalc — an injected failure fires before the inner
// driver either way, so the delta path degrades exactly like the full one.
// When the wrapped driver has no incremental path, the fall back is the full
// PopulateCalc with zero reuse.
func (d *Driver) PopulateCalcDelta(tr *trie.Trie, budget int) (int, int, int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.in.opStart(d); err != nil {
		return 0, 0, 0, err
	}
	if d.in.roll(d.in.prof.WriteFailure, &d.in.stats.WriteFailures) {
		return 0, 0, 0, fmt.Errorf("%w: calc populate", ErrInjected)
	}
	if d.in.roll(d.in.prof.CapacityPressure, &d.in.stats.PressureFailures) {
		return 0, 0, 0, ErrPressure
	}
	var writes, computed, reused int
	var err error
	if dp, ok := d.inner.(controlplane.DeltaPopulator); ok {
		writes, computed, reused, err = dp.PopulateCalcDelta(tr, budget)
	} else {
		writes, computed, err = d.inner.PopulateCalc(tr, budget)
	}
	if err != nil {
		return 0, 0, 0, err
	}
	if d.in.roll(d.in.prof.AckDrop, &d.in.stats.AckDrops) {
		return 0, 0, 0, fmt.Errorf("%w: calc populate", ErrAckDropped)
	}
	return writes, computed, reused, nil
}

// PlaceTiers implements controlplane.TierPlacer with the same transient
// write faults as the populate paths. An ack drop fires after the inner
// placement, so the moves that landed are still reported with the error —
// the controller charges them even on a failed call.
func (d *Driver) PlaceTiers(tr *trie.Trie) (controlplane.TierMoves, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tp, ok := d.inner.(controlplane.TierPlacer)
	if !ok {
		return controlplane.TierMoves{}, false, nil
	}
	if err := d.in.opStart(d); err != nil {
		return controlplane.TierMoves{}, false, err
	}
	if d.in.roll(d.in.prof.WriteFailure, &d.in.stats.WriteFailures) {
		return controlplane.TierMoves{}, false, fmt.Errorf("%w: tier placement", ErrInjected)
	}
	moves, placed, err := tp.PlaceTiers(tr)
	if err != nil {
		return moves, placed, err
	}
	if d.in.roll(d.in.prof.AckDrop, &d.in.stats.AckDrops) {
		return moves, placed, fmt.Errorf("%w: tier placement", ErrAckDropped)
	}
	return moves, placed, nil
}

// ParseProfile parses a compact comma-separated key=value fault spec, e.g.
// "seed=7,write=0.05,stale=0.01,outage=0.02,outageops=6,latency=20us,spike=400us,spikeprob=0.05".
// Keys: seed, write, row, drop, stale, outage, outageops, pressure, latency
// (mean of an exponential), spike (fixed), spikeprob. The literal "default"
// returns DefaultProfile; "outages" returns OutageProfile.
func ParseProfile(spec string) (Profile, error) {
	switch strings.TrimSpace(spec) {
	case "", "default":
		return DefaultProfile(), nil
	case "outages":
		return OutageProfile(), nil
	}
	p := DefaultProfile()
	// An explicit spec starts from zero probabilities; only "default" and
	// "outages" carry presets.
	p = Profile{Seed: p.Seed}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Profile{}, fmt.Errorf("%w: %q is not key=value", ErrProfile, kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "write":
			p.WriteFailure, err = strconv.ParseFloat(val, 64)
		case "row":
			p.RowFailure, err = strconv.ParseFloat(val, 64)
		case "drop":
			p.SnapshotDrop, err = strconv.ParseFloat(val, 64)
		case "stale":
			p.SnapshotStale, err = strconv.ParseFloat(val, 64)
		case "outage":
			p.OutageProb, err = strconv.ParseFloat(val, 64)
		case "outageops":
			p.OutageOps, err = strconv.Atoi(val)
		case "pressure":
			p.CapacityPressure, err = strconv.ParseFloat(val, 64)
		case "latency":
			var dur time.Duration
			dur, err = time.ParseDuration(val)
			p.Latency = Exponential{Mean: dur}
		case "spike":
			var dur time.Duration
			dur, err = time.ParseDuration(val)
			p.Spike = Fixed(dur)
		case "spikeprob":
			p.SpikeProb, err = strconv.ParseFloat(val, 64)
		case "ackdrop":
			p.AckDrop, err = strconv.ParseFloat(val, 64)
		case "auditstale":
			p.AuditStale, err = strconv.ParseFloat(val, 64)
		case "crash":
			p.CrashProb, err = strconv.ParseFloat(val, 64)
		case "corrupt":
			p.Corrupt, err = strconv.ParseFloat(val, 64)
		case "ghost":
			p.Ghost, err = strconv.ParseFloat(val, 64)
		case "droprow":
			p.DropRow, err = strconv.ParseFloat(val, 64)
		default:
			return Profile{}, fmt.Errorf("%w: unknown key %q", ErrProfile, key)
		}
		if err != nil {
			return Profile{}, fmt.Errorf("%w: %s=%q: %v", ErrProfile, key, val, err)
		}
	}
	if err := p.validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// String renders the profile compactly (parsable by ParseProfile).
func (p Profile) String() string {
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("write", p.WriteFailure)
	add("row", p.RowFailure)
	add("drop", p.SnapshotDrop)
	add("stale", p.SnapshotStale)
	add("outage", p.OutageProb)
	if p.OutageProb > 0 {
		parts = append(parts, "outageops="+strconv.Itoa(p.OutageOps))
	}
	add("pressure", p.CapacityPressure)
	add("spikeprob", p.SpikeProb)
	add("ackdrop", p.AckDrop)
	add("auditstale", p.AuditStale)
	add("crash", p.CrashProb)
	add("corrupt", p.Corrupt)
	add("ghost", p.Ghost)
	add("droprow", p.DropRow)
	sort.Strings(parts[1:])
	return strings.Join(parts, ",")
}
