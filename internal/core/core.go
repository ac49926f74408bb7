// Package core is ADA's public façade: a per-operation system that couples
// the data-plane monitoring pipeline, the control-plane adaptation loop, and
// the TCAM-backed calculation engine into the deployment unit the paper
// evaluates.
//
// A UnarySystem emulates a single-operand operation (x², 2x, √x, ...) for
// one monitored variable — the paper's ADA(R) / ADA(ΔT) configurations. A
// BinarySystem emulates a two-operand operation (x·y, x/y) with one monitor
// per operand — ADA(ΔT, R). In both, the data plane calls Lookup on every
// packet (monitor + calculation lookup at line rate) and the control plane
// calls Sync periodically (register read → Algorithm 2 → Algorithm 3 →
// table pushes).
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/monitor"
	"github.com/ada-repro/ada/internal/pisa"
	"github.com/ada-repro/ada/internal/population"
	"github.com/ada-repro/ada/internal/tcam"
	"github.com/ada-repro/ada/internal/trie"
)

// ErrConfig reports an invalid system configuration.
var ErrConfig = errors.New("core: invalid configuration")

// Config parameterises an ADA system. DefaultConfig supplies the paper's
// §IV constants.
type Config struct {
	// Width is the operand width in bits.
	Width int
	// MonitorEntries is the initial monitoring TCAM budget per variable
	// (the paper's testbed uses 12 for Nimble, 8 for Table II).
	MonitorEntries int
	// MaxMonitorEntries caps adaptive expansion (0 = 4× the initial
	// budget).
	MaxMonitorEntries int
	// CalcEntries is the calculation TCAM budget (the paper uses 128).
	CalcEntries int
	// CalcCapacity is the physical calculation-table capacity for private
	// (non-shared) systems; 0 means CalcEntries. A capacity above the
	// budget leaves headroom for later SetCalcBudget growth — the tenant
	// differential tests use it to mirror a slice whose quota moves.
	CalcCapacity int
	// TieredTCAMEntries, when positive, backs the private calculation engine
	// with a tiered TCAM+SRAM store (tcam.NewTiered) instead of a pure TCAM
	// table: the TCAM tier is bounded at this many rows and the rest of the
	// CalcEntries/CalcCapacity budget spills into a dense SRAM predecessor
	// structure with identical resolution semantics. After each committed
	// round the control plane re-ranks tier placement from the same per-bin
	// hit registers Algorithm 2 reads, keeping the hottest rows in TCAM.
	// This is how a 128-row TCAM slice serves a 1280-entry population at
	// unchanged TCAM cost. 0 keeps the pure TCAM table.
	TieredTCAMEntries int
	// ThBalance is Algorithm 2's rebalance threshold (paper: 0.20).
	ThBalance float64
	// ThExpansion is the monitoring-growth threshold (paper: 2).
	ThExpansion int
	// Representative selects the per-entry stand-in value.
	Representative population.Representative
	// Cost is the control-plane delay model.
	Cost controlplane.CostModel
	// Retry bounds the controller's retries against a flaky driver; the
	// zero value selects controlplane.DefaultRetryPolicy.
	Retry controlplane.RetryPolicy
	// UnhealthyAfter is the consecutive failed rounds before the controller
	// enters degraded mode (0 = default 3, negative = never).
	UnhealthyAfter int
	// WrapDriver, when set, wraps each controller's switch driver — the
	// hook internal/faults uses to inject failures at the wire boundary.
	WrapDriver func(controlplane.Driver) controlplane.Driver
	// DisableIncremental forces full repopulation every round: the
	// calculation target hides its incremental path, so the controller falls
	// back to PopulateCalc and Algorithm 3 runs from scratch. The end state
	// is identical either way (the differential tests prove it); this exists
	// for A/B benchmarking and as an escape hatch.
	DisableIncremental bool
	// EWMADecay selects the exponential hit-decay ablation in the
	// controller (see controlplane.Config.EWMADecay).
	EWMADecay bool
	// AuditEvery enables the periodic calculation read-back audit (see
	// controlplane.Config.AuditEvery): every Nth committed round, and after
	// any retry-exhausted round, the installed rows are read back, diffed
	// against the expected population, and repaired with a minimal
	// anti-entropy delta. 0 disables auditing.
	AuditEvery int
	// EnableJournal write-ahead logs every controller round so the system
	// can Restart after a crash and recover its commit state.
	EnableJournal bool
	// CrashHook, when set, is consulted at each controller crash point —
	// the seam internal/faults uses to inject controller crashes.
	CrashHook func(controlplane.CrashPoint) bool
	// LookupCacheEntries, when positive, arms each data-plane worker's
	// Scratch passed to ObserveEvalAll with a hot-key result cache of this
	// many slots in front of the calculation store (see arith.Scratch and
	// tcam.LookupCache); the cache stands aside on streams whose hit ratio
	// does not pay for the probe. The monitoring path stays fully uncached —
	// every sample still lands in its per-bin register — so drift detection
	// and tier placement see histograms bit-identical to an uncached run.
	// 0 disables the cache.
	LookupCacheEntries int
}

// DefaultConfig returns the paper's parameters for width-bit operands.
func DefaultConfig(width int) Config {
	return Config{
		Width:          width,
		MonitorEntries: 12,
		CalcEntries:    128,
		ThBalance:      0.20,
		ThExpansion:    2,
		Representative: population.Midpoint,
		Cost:           controlplane.DefaultCostModel(),
	}
}

func (c *Config) normalise() error {
	if c.Width < 1 || c.Width > 64 {
		return fmt.Errorf("%w: width %d", ErrConfig, c.Width)
	}
	if c.MonitorEntries < 1 {
		return fmt.Errorf("%w: monitor entries %d", ErrConfig, c.MonitorEntries)
	}
	if c.CalcEntries < 1 {
		return fmt.Errorf("%w: calc entries %d", ErrConfig, c.CalcEntries)
	}
	if c.CalcCapacity != 0 && c.CalcCapacity < c.CalcEntries {
		return fmt.Errorf("%w: calc capacity %d below budget %d", ErrConfig, c.CalcCapacity, c.CalcEntries)
	}
	if c.TieredTCAMEntries < 0 {
		return fmt.Errorf("%w: tiered TCAM entries %d", ErrConfig, c.TieredTCAMEntries)
	}
	if c.TieredTCAMEntries > 0 {
		capacity := c.CalcEntries
		if c.CalcCapacity > 0 {
			capacity = c.CalcCapacity
		}
		if c.TieredTCAMEntries > capacity {
			return fmt.Errorf("%w: tiered TCAM slice %d above calc capacity %d",
				ErrConfig, c.TieredTCAMEntries, capacity)
		}
	}
	if c.LookupCacheEntries < 0 {
		return fmt.Errorf("%w: lookup cache entries %d", ErrConfig, c.LookupCacheEntries)
	}
	if c.MaxMonitorEntries == 0 {
		c.MaxMonitorEntries = 4 * c.MonitorEntries
	}
	if c.Representative == 0 {
		c.Representative = population.Midpoint
	}
	if c.Cost == (controlplane.CostModel{}) {
		c.Cost = controlplane.DefaultCostModel()
	}
	return nil
}

func (c Config) controllerConfig() controlplane.Config {
	return controlplane.Config{
		ThBalance:         c.ThBalance,
		ThExpansion:       c.ThExpansion,
		MonitorBudget:     c.MonitorEntries,
		MaxMonitorEntries: c.MaxMonitorEntries,
		CalcBudget:        c.CalcEntries,
		MaxRebalances:     4,
		Cost:              c.Cost,
		Retry:             c.Retry,
		UnhealthyAfter:    c.UnhealthyAfter,
		WrapDriver:        c.WrapDriver,
		EWMADecay:         c.EWMADecay,
		AuditEvery:        c.AuditEvery,
		CrashHook:         c.CrashHook,
	}
}

// journalFor allocates a controller's write-ahead journal when journaling
// is enabled (one journal per controller; a binary system has two).
func (c Config) journalFor() *controlplane.Journal {
	if !c.EnableJournal {
		return nil
	}
	return controlplane.NewJournal()
}

// SyncReport summarises one control round of a system.
type SyncReport struct {
	// Delay is the modelled control-plane convergence delay.
	Delay time.Duration
	// Reads is the register reads performed.
	Reads int
	// Writes is registers reset plus TCAM entries written.
	Writes int
	// TCAMWrites is the TCAM-row share of Writes — the scarce-resource count
	// the service layer's rolling write budget meters (register resets are
	// cheap and excluded).
	TCAMWrites int
	// Rebalances counts Algorithm 2 steps across all monitored variables.
	Rebalances int
	// Computed and Reused split the calculation entries of this round: a
	// round that runs Algorithm 3 counts every entry as computed, and an
	// incremental round whose tries and budget are unchanged since its last
	// commit reuses that build and counts every entry as reused (Computed ==
	// 0).
	Computed int
	Reused   int
	// Expanded reports whether any monitoring TCAM grew.
	Expanded bool
	// Degraded reports that the round aborted on driver failure and the
	// last good population is still serving; DegradedReason says why.
	Degraded       bool
	DegradedReason controlplane.DegradeReason
	// Retries and DriverErrors count this round's retry activity.
	Retries      int
	DriverErrors int
	// AuditRan reports that a read-back audit ran this round; Audit carries
	// its classification and repair accounting (summed across variables).
	AuditRan bool
	Audit    controlplane.AuditReport
	// TierPlaced reports that a tiered calculation store re-ranked its row
	// placement this round; TierPromotions/TierDemotions count the rows moved
	// between the TCAM and SRAM tiers, and SRAMWrites the SRAM row writes of
	// the round (tier moves plus populate-time spills), charged at
	// CostModel.PerSRAMWrite and counted separately from Writes.
	// TierPlaceFailed flags a placement pass that errored; the moves that
	// landed before the failure are still accounted.
	TierPlaced      bool
	TierPlaceFailed bool
	TierPromotions  int
	TierDemotions   int
	SRAMWrites      int
	// Health is the controller's driver-health verdict after the round (for
	// a binary system, the worse of the two variables).
	Health controlplane.Health
}

// add folds one controller round into the report. A binary system folds
// both variables' rounds: counts and delays sum, flags OR, the first
// degraded round's reason wins, and Health is the worse of the two.
func (r *SyncReport) add(rep controlplane.RoundReport) {
	r.Delay += rep.Delay
	r.Reads += rep.Reads
	r.Writes += rep.RegisterWrites + rep.TCAMWrites
	r.TCAMWrites += rep.TCAMWrites
	r.Rebalances += rep.Rebalances
	r.Computed += rep.Computed
	r.Reused += rep.Reused
	r.Expanded = r.Expanded || rep.Expanded
	r.Degraded = r.Degraded || rep.Degraded
	if r.DegradedReason == controlplane.ReasonNone {
		r.DegradedReason = rep.DegradedReason
	}
	r.Retries += rep.Retries
	r.DriverErrors += rep.DriverErrors
	r.AuditRan = r.AuditRan || rep.AuditRan
	r.Audit.Add(rep.Audit)
	r.TierPlaced = r.TierPlaced || rep.TierPlaced
	r.TierPlaceFailed = r.TierPlaceFailed || rep.TierPlaceFailed
	r.TierPromotions += rep.TierPromotions
	r.TierDemotions += rep.TierDemotions
	r.SRAMWrites += rep.SRAMWrites
	if rep.Health == controlplane.Unhealthy {
		r.Health = controlplane.Unhealthy
	}
}

// shadow is a calculation target's record of the population it last
// committed: the build itself, the trie change-sequences and budget it was
// made at, and the store version the commit left behind. It is the only
// state the populate path keeps across rounds. A round whose tries and
// budget match the record skips Algorithm 3 entirely; any other round
// builds afresh and commits in proportion to churn. The record also tells a
// read-back audit which rows the table must hold. E is the population's
// entry type and K its match key: a prefix for a unary table, an (x, y)
// prefix pair for the joint one. Builds arrive strictly increasing under
// cmp (ADAUnary's and ADABinary's contract), so two builds diff in one
// merge pass.
type shadow[E any, K comparable] struct {
	store tcam.Store
	key   func(E) (K, uint64) // an entry's match key and result
	row   func(k K, data any) tcam.Row
	cmp   func(a, b K) int // the builds' strict order

	installed []E
	seq       [2]uint64
	budget    int
	have      bool
	version   uint64
}

// populate is the incremental Algorithm 3 step. When the record matches the
// tries' change-sequences and the budget, the recorded build is exactly what
// Algorithm 3 would return, so nothing is built or evaluated: the store is
// left alone, or reloaded from the record when another writer or a rollback
// moved its version, and every entry counts as reused. Otherwise build runs,
// every entry counts as computed, and the build commits against the record.
func (s *shadow[E, K]) populate(seq [2]uint64, budget int, build func() ([]E, error)) (writes, computed, reused int, err error) {
	if s.have && s.seq == seq && s.budget == budget {
		if s.store.Version() != s.version {
			writes, err = s.reload(s.installed, seq, budget)
		}
		return writes, 0, len(s.installed), err
	}
	entries, err := build()
	if err != nil {
		return 0, 0, 0, err
	}
	writes, err = s.commit(entries, seq, budget)
	return writes, len(entries), 0, err
}

// reload installs entries as one transactional full reload and records them.
// Recording on the full path too lets audits check rows from the very first
// install.
func (s *shadow[E, K]) reload(entries []E, seq [2]uint64, budget int) (int, error) {
	writes, err := s.store.ApplyRowsAtomic(s.rows(entries))
	if err != nil {
		return writes, err
	}
	s.record(entries, seq, budget)
	return writes, nil
}

// rows renders entries as table rows, in order.
func (s *shadow[E, K]) rows(entries []E) []tcam.Row {
	rows := make([]tcam.Row, len(entries))
	for i, e := range entries {
		rows[i] = s.row(s.key(e))
	}
	return rows
}

// commit installs a build with the fewest writes the record allows: a full
// reload when the record cannot be trusted (nothing recorded yet, or another
// writer or a rollback moved the store's version), and otherwise the changed
// and stale rows as one transactional delta.
func (s *shadow[E, K]) commit(entries []E, seq [2]uint64, budget int) (int, error) {
	if !s.have || s.store.Version() != s.version {
		return s.reload(entries, seq, budget)
	}
	upserts, deletes := s.diff(entries)
	writes, err := s.store.ApplyDelta(upserts, deletes)
	if errors.Is(err, tcam.ErrDeltaConflict) {
		// The record diverged from the table (the version guard should
		// prevent it; defensive): resync with a full reload.
		return s.reload(entries, seq, budget)
	}
	if err != nil {
		// The table rolled back and bumped its version, so the next commit
		// takes the full reload; the record still describes the table.
		return writes, err
	}
	s.record(entries, seq, budget)
	return writes, nil
}

// diff merges the installed build with the next one: upserts are the next
// build's new or changed rows in build order, deletes the installed keys it
// drops, in cmp order.
func (s *shadow[E, K]) diff(entries []E) (upserts, deletes []tcam.Row) {
	old := s.installed
	i := 0
	for _, e := range entries {
		k, r := s.key(e)
		for ; i < len(old); i++ {
			ok, _ := s.key(old[i])
			if s.cmp(ok, k) >= 0 {
				break
			}
			deletes = append(deletes, s.row(ok, nil))
		}
		if i < len(old) {
			if ok, or := s.key(old[i]); s.cmp(ok, k) == 0 {
				i++
				if or == r {
					continue
				}
			}
		}
		upserts = append(upserts, s.row(k, r))
	}
	for _, e := range old[i:] {
		k, _ := s.key(e)
		deletes = append(deletes, s.row(k, nil))
	}
	return upserts, deletes
}

// record pins the shadow to the build just committed. Retaining entries is
// safe: every build is a fresh slice that nothing else mutates.
func (s *shadow[E, K]) record(entries []E, seq [2]uint64, budget int) {
	s.installed = entries
	s.seq = seq
	s.budget = budget
	s.have = true
	s.version = s.store.Version()
}

// AuditCalc implements controlplane.AuditableTarget for the targets that
// embed the shadow: read the table back, classify divergence from the
// record (corrupted / ghost / missing rows), and — when repair is set — heal
// it with the store's minimal anti-entropy delta instead of a repopulation.
// Before the first install it audits trivially clean.
func (s *shadow[E, K]) AuditCalc(repair bool) (controlplane.AuditReport, error) {
	if !s.have {
		return controlplane.AuditReport{}, nil
	}
	rep, err := controlplane.AuditStore(s.store, s.rows(s.installed), repair)
	if err != nil {
		return rep, err
	}
	if rep.Repaired {
		// The repair commit bumped the store version; re-pin it so the next
		// delta round trusts the (now restored) record instead of reloading.
		s.version = s.store.Version()
	}
	return rep, nil
}

// unaryTarget adapts a unary calculation store to the controller: the shadow
// record makes PopulateDelta's work proportional to churn instead of budget.
type unaryTarget struct {
	shadow[population.UnaryEntry, bitstr.Prefix]
	op  arith.UnaryOp
	rep population.Representative
}

func newUnaryTarget(engine *arith.UnaryEngine, op arith.UnaryOp, rep population.Representative) *unaryTarget {
	return &unaryTarget{
		shadow: shadow[population.UnaryEntry, bitstr.Prefix]{
			store: engine.Store(),
			key:   func(e population.UnaryEntry) (bitstr.Prefix, uint64) { return e.P, e.Result },
			row:   tcam.RowFromPrefix,
			cmp:   bitstr.Prefix.Compare,
		},
		op: op, rep: rep,
	}
}

// build runs Algorithm 3 on tr.
func (t *unaryTarget) build(tr *trie.Trie, budget int) ([]population.UnaryEntry, error) {
	return population.ADAUnary(tr, t.op.Func(), budget, t.rep)
}

// Populate implements controlplane.Target: Algorithm 3 from scratch and a
// full transactional reload.
func (t *unaryTarget) Populate(tr *trie.Trie, budget int) (int, int, error) {
	entries, err := t.build(tr, budget)
	if err != nil {
		return 0, 0, err
	}
	writes, err := t.reload(entries, [2]uint64{tr.ChangeSeq()}, budget)
	return writes, len(entries), err
}

// PopulateDelta implements controlplane.DeltaTarget through the shadow (see
// shadow.populate).
func (t *unaryTarget) PopulateDelta(tr *trie.Trie, budget int) (int, int, int, error) {
	return t.populate([2]uint64{tr.ChangeSeq()}, budget, func() ([]population.UnaryEntry, error) {
		return t.build(tr, budget)
	})
}

// PlaceTiers implements controlplane.TierPlacer from the trie's hit
// registers (see placeTiers).
func (t *unaryTarget) PlaceTiers(tr *trie.Trie) (controlplane.TierMoves, bool, error) {
	return placeTiers(t.store, tr)
}

// jointTarget is a binary system's joint calculation table (Table II's
// ADA(ΔT, R)) as the y controller's target: each y round builds the joint
// population from y's shadow trie and x's committed trie, so the table is
// populated, audited, tier-placed and retried through y's driver like any
// calculation table. x's controller has no target.
type jointTarget struct {
	shadow[population.BinaryEntry, binaryPair]
	x   *controlplane.Controller
	op  arith.BinaryOp
	rep population.Representative
}

// binaryPair is the match key of one joint-table entry.
type binaryPair struct {
	x, y bitstr.Prefix
}

func newJointTarget(engine *arith.BinaryEngine, x *controlplane.Controller, op arith.BinaryOp, rep population.Representative) *jointTarget {
	return &jointTarget{
		shadow: shadow[population.BinaryEntry, binaryPair]{
			store: engine.Store(),
			key: func(e population.BinaryEntry) (binaryPair, uint64) {
				return binaryPair{x: e.X, y: e.Y}, e.Result
			},
			row: func(pr binaryPair, data any) tcam.Row {
				return tcam.Row{Fields: []tcam.Field{tcam.FieldFromPrefix(pr.x), tcam.FieldFromPrefix(pr.y)}, Data: data}
			},
			cmp: func(a, b binaryPair) int { return cmp.Or(a.x.Compare(b.x), a.y.Compare(b.y)) },
		},
		x: x, op: op, rep: rep,
	}
}

// build runs the joint Algorithm 3 on x's committed trie and ty.
func (t *jointTarget) build(ty *trie.Trie, budget int) ([]population.BinaryEntry, error) {
	return population.ADABinary(t.x.Trie(), ty, t.op.Func(), budget, t.rep)
}

// seqs is the shadow key of a joint build: both operand tries' ChangeSeqs.
func (t *jointTarget) seqs(ty *trie.Trie) [2]uint64 {
	return [2]uint64{t.x.Trie().ChangeSeq(), ty.ChangeSeq()}
}

// Populate implements controlplane.Target (see unaryTarget.Populate).
func (t *jointTarget) Populate(ty *trie.Trie, budget int) (int, int, error) {
	entries, err := t.build(ty, budget)
	if err != nil {
		return 0, 0, err
	}
	writes, err := t.reload(entries, t.seqs(ty), budget)
	return writes, len(entries), err
}

// PopulateDelta implements controlplane.DeltaTarget (see
// unaryTarget.PopulateDelta).
func (t *jointTarget) PopulateDelta(ty *trie.Trie, budget int) (int, int, int, error) {
	return t.populate(t.seqs(ty), budget, func() ([]population.BinaryEntry, error) {
		return t.build(ty, budget)
	})
}

// PlaceTiers implements controlplane.TierPlacer, scoring each row by the
// product of its operands' marginal hit mass (see placeTiers).
func (t *jointTarget) PlaceTiers(ty *trie.Trie) (controlplane.TierMoves, bool, error) {
	return placeTiers(t.store, t.x.Trie(), ty)
}

// calcTarget is a calculation target with the audit and tier-placement
// seams: what plainTarget lets through its veil.
type calcTarget interface {
	controlplane.Target
	controlplane.AuditableTarget
	controlplane.TierPlacer
}

// plainTarget hides a target's incremental path (Config.DisableIncremental):
// the driver's DeltaTarget assertion fails and every round repopulates in
// full. Audits and tier placement pass through — the veil hides delta
// population, not crash-safety or the tiered store.
type plainTarget struct{ calcTarget }

// veil returns target as a controller should see it: behind plainTarget
// when Config.DisableIncremental is set.
func (c Config) veil(target calcTarget) controlplane.Target {
	if c.DisableIncremental {
		return plainTarget{target}
	}
	return target
}

// controller builds one monitored variable's controller over target (nil
// for a variable that owns no calculation table), with its own journal.
func (c Config) controller(mon *monitor.Monitor, target controlplane.Target) (*controlplane.Controller, error) {
	ccfg := c.controllerConfig()
	ccfg.Journal = c.journalFor()
	return controlplane.New(ccfg, mon, target)
}

var (
	_ controlplane.DeltaTarget = (*unaryTarget)(nil)
	_ controlplane.DeltaTarget = (*jointTarget)(nil)
	_ calcTarget               = (*unaryTarget)(nil)
	_ calcTarget               = (*jointTarget)(nil)
	_ calcTarget               = plainTarget{}
)

// UnarySystem is ADA deployed for a single-operand operation.
type UnarySystem struct {
	cfg    Config
	op     arith.UnaryOp
	engine *arith.UnaryEngine
	ctl    *controlplane.Controller
}

// NewUnary builds the system and installs the initial (uniform) population,
// so lookups work before the first Sync.
func NewUnary(cfg Config, op arith.UnaryOp) (*UnarySystem, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	capacity := cfg.CalcEntries
	if cfg.CalcCapacity > 0 {
		capacity = cfg.CalcCapacity
	}
	var (
		engine *arith.UnaryEngine
		err    error
	)
	if cfg.TieredTCAMEntries > 0 {
		store, terr := tcam.NewTiered(fmt.Sprintf("ada.%v.calc", op), cfg.TieredTCAMEntries, capacity, cfg.Width)
		if terr != nil {
			return nil, terr
		}
		engine, err = arith.NewUnaryEngineOn(store, nil)
	} else {
		engine, err = arith.NewUnaryEngine(fmt.Sprintf("ada.%v.calc", op), cfg.Width, capacity, nil)
	}
	if err != nil {
		return nil, err
	}
	return newUnaryOn(fmt.Sprintf("ada.%v", op), cfg, op, engine)
}

// newUnaryOn assembles a system around an existing calculation engine —
// private (NewUnary) or mounted on a tenant slice (Registry.MountUnary).
// cfg must already be normalised.
func newUnaryOn(name string, cfg Config, op arith.UnaryOp, engine *arith.UnaryEngine) (*UnarySystem, error) {
	mon, err := monitor.New(name+".mon", cfg.Width, cfg.MaxMonitorEntries)
	if err != nil {
		return nil, err
	}
	target := newUnaryTarget(engine, op, cfg.Representative)
	ctl, err := cfg.controller(mon, cfg.veil(target))
	if err != nil {
		return nil, err
	}
	// Initial population from the uniform trie: equal entries everywhere.
	if _, _, err := target.Populate(ctl.Trie(), cfg.CalcEntries); err != nil {
		return nil, err
	}
	// The construction-time populate is not part of any round; drop its spill
	// accounting the same way its TCAM write count is dropped above.
	if ts, ok := engine.Store().(*tcam.TieredStore); ok {
		ts.TakeSRAMWrites()
	}
	return &UnarySystem{cfg: cfg, op: op, engine: engine, ctl: ctl}, nil
}

// Observe feeds one operand value to the monitoring pipeline without a
// calculation lookup.
func (s *UnarySystem) Observe(x uint64) { s.ctl.Monitor().Observe(x) }

// ObserveAll feeds a batch of operand values to the monitoring pipeline,
// resolving all of them against one compiled TCAM snapshot. It is the
// entry point the parallel replay path (internal/netsim.Replay) drives;
// safe for concurrent use.
func (s *UnarySystem) ObserveAll(xs []uint64) { s.ctl.Monitor().ObserveAll(xs) }

// ObserveEvalAll is the batched data-plane hot path: monitor the whole
// operand batch, then evaluate it, both through the typed ordinal lookup.
// Results land in dst (reused when it has the capacity) and sc's buffers
// are threaded through the calculation lookup, so a replay worker that
// recycles dst and one sc per goroutine runs allocation-free in steady
// state. dst and sc must not be shared by concurrent callers; the batches
// themselves may be observed concurrently.
func (s *UnarySystem) ObserveEvalAll(dst []uint64, xs []uint64, sc *arith.Scratch) ([]uint64, int) {
	s.ctl.Monitor().ObserveAll(xs)
	if sc != nil && s.cfg.LookupCacheEntries > 0 {
		sc.EnableCache(s.engine.Store(), s.cfg.LookupCacheEntries)
	}
	return s.engine.EvalBatchInto(dst, xs, sc)
}

// Lookup is the per-packet data-plane path: monitor the operand, then fetch
// the approximate result from the calculation TCAM.
func (s *UnarySystem) Lookup(x uint64) (uint64, error) {
	s.ctl.Monitor().Observe(x)
	return s.engine.Eval(x)
}

// Sync runs one control-plane round. Driver failures do not surface as
// errors: the report comes back Degraded with the last good population
// still serving (see the controlplane package's failure model).
func (s *UnarySystem) Sync() (SyncReport, error) {
	return s.SyncCtx(context.Background())
}

// SyncCtx is Sync with cancellation: a cancelled context aborts the round
// between driver operations (including retry backoff), and the report comes
// back Degraded with reason "cancelled".
func (s *UnarySystem) SyncCtx(ctx context.Context) (SyncReport, error) {
	rep, err := s.ctl.RoundCtx(ctx)
	if err != nil {
		return SyncReport{}, err
	}
	var out SyncReport
	out.add(rep)
	return out, nil
}

// Restart models a controller crash and restart: the data plane (monitor
// registers, calculation table) keeps serving untouched, while the
// controller's in-memory state — trie and shadow record — is lost and
// rebuilt from the write-ahead journal via controlplane.Recover.
// Recovery reinstalls the journaled bin layout (zeroing the hit registers,
// as a switch table reprogram would), reconciles the calculation table with
// a minimal anti-entropy delta, and finishes with a detect-only verification
// audit folded into the report. Requires Config.EnableJournal; works whether
// or not the previous controller actually crashed.
func (s *UnarySystem) Restart() (controlplane.RecoveryReport, error) {
	j := s.ctl.Journal()
	if j == nil {
		return controlplane.RecoveryReport{}, fmt.Errorf("%w: Restart requires EnableJournal", ErrConfig)
	}
	mon := s.ctl.Monitor()
	if mon == nil {
		return controlplane.RecoveryReport{}, fmt.Errorf("%w: Restart requires an in-process monitor", ErrConfig)
	}
	target := newUnaryTarget(s.engine, s.op, s.cfg.Representative)
	ctl, rrep, err := controlplane.Recover(s.cfg.controllerConfig(), controlplane.NewDirectDriver(mon, s.cfg.veil(target)), j)
	if err != nil {
		return rrep, err
	}
	// Post-recovery verification: read the hardware back against the
	// recovered population (should be clean — the populate just reconciled).
	verify, verr := target.AuditCalc(false)
	if verr != nil {
		return rrep, fmt.Errorf("core: post-recovery audit: %w", verr)
	}
	rrep.Audit.Add(verify)
	rrep.Delay += time.Duration(verify.Audited) * s.cfg.Cost.PerRowRead
	s.ctl = ctl
	return rrep, nil
}

// Journal exposes the controller's write-ahead journal (nil when
// EnableJournal is off).
func (s *UnarySystem) Journal() *controlplane.Journal { return s.ctl.Journal() }

// Engine exposes the calculation engine (benchmarks, error measurement).
func (s *UnarySystem) Engine() *arith.UnaryEngine { return s.engine }

// CalcBudget returns the live calculation entry budget.
func (s *UnarySystem) CalcBudget() int { return s.ctl.CalcBudget() }

// SetCalcBudget retargets subsequent rounds at a new entry budget (the
// tenant arbiter's knob). Call between Syncs; takes effect at the next
// populate.
func (s *UnarySystem) SetCalcBudget(n int) error { return s.ctl.SetCalcBudget(n) }

// Controller exposes the control-plane state.
func (s *UnarySystem) Controller() *controlplane.Controller { return s.ctl }

// Op returns the emulated operation.
func (s *UnarySystem) Op() arith.UnaryOp { return s.op }

// Pipeline lays the system out on a PISA pipeline for resource accounting
// (Table II): one monitoring stage plus the calculation stage.
func (s *UnarySystem) Pipeline(name string) (*pisa.Pipeline, error) {
	if s.engine.Table() == nil {
		return nil, fmt.Errorf("%w: shared-table system has no private calculation stage; lay out the Registry's physical table instead", ErrConfig)
	}
	return pisa.BuildADAProgram(name, []pisa.VarSpec{{
		Name:       "x",
		Monitoring: s.ctl.Monitor().Table(),
		Bins:       s.ctl.Monitor().NumBins(),
	}}, s.engine.Table())
}

// BinarySystem is ADA deployed for a two-operand operation with one monitor
// per operand (the paper's ADA(ΔT, R)). The joint calculation table is the
// y controller's target; x's controller owns no table.
type BinarySystem struct {
	cfg    Config
	op     arith.BinaryOp
	engine *arith.BinaryEngine
	ctlX   *controlplane.Controller
	ctlY   *controlplane.Controller
}

// NewBinary builds the system and installs the initial uniform population.
func NewBinary(cfg Config, op arith.BinaryOp) (*BinarySystem, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	capacity := cfg.CalcEntries
	if cfg.CalcCapacity > 0 {
		capacity = cfg.CalcCapacity
	}
	var (
		engine *arith.BinaryEngine
		err    error
	)
	if cfg.TieredTCAMEntries > 0 {
		store, terr := tcam.NewTiered(fmt.Sprintf("ada.%v.calc", op), cfg.TieredTCAMEntries, capacity, cfg.Width, cfg.Width)
		if terr != nil {
			return nil, terr
		}
		engine, err = arith.NewBinaryEngineOn(store, nil)
	} else {
		engine, err = arith.NewBinaryEngine(fmt.Sprintf("ada.%v.calc", op), cfg.Width, capacity, nil)
	}
	if err != nil {
		return nil, err
	}
	return newBinaryOn(fmt.Sprintf("ada.%v", op), cfg, op, engine)
}

// newBinaryOn assembles a system around an existing calculation engine —
// private (NewBinary) or mounted on a tenant slice (Registry.MountBinary).
// cfg must already be normalised.
func newBinaryOn(name string, cfg Config, op arith.BinaryOp, engine *arith.BinaryEngine) (*BinarySystem, error) {
	monX, err := monitor.New(name+".monX", cfg.Width, cfg.MaxMonitorEntries)
	if err != nil {
		return nil, err
	}
	monY, err := monitor.New(name+".monY", cfg.Width, cfg.MaxMonitorEntries)
	if err != nil {
		return nil, err
	}
	ctlX, err := cfg.controller(monX, nil)
	if err != nil {
		return nil, err
	}
	target := newJointTarget(engine, ctlX, op, cfg.Representative)
	ctlY, err := cfg.controller(monY, cfg.veil(target))
	if err != nil {
		return nil, err
	}
	// Initial population from the uniform tries.
	if _, _, err := target.Populate(ctlY.Trie(), cfg.CalcEntries); err != nil {
		return nil, err
	}
	// Construction-time spills are not round work (see newUnaryOn).
	if ts, ok := engine.Store().(*tcam.TieredStore); ok {
		ts.TakeSRAMWrites()
	}
	return &BinarySystem{cfg: cfg, op: op, engine: engine, ctlX: ctlX, ctlY: ctlY}, nil
}

// Observe feeds one (x, y) operand pair to the monitors.
func (s *BinarySystem) Observe(x, y uint64) {
	s.ctlX.Monitor().Observe(x)
	s.ctlY.Monitor().Observe(y)
}

// ObserveAll feeds batches of operand pairs to both monitors, one compiled
// snapshot per variable. Slices of unequal length observe independently —
// each monitor counts its own variable's samples.
func (s *BinarySystem) ObserveAll(xs, ys []uint64) {
	s.ctlX.Monitor().ObserveAll(xs)
	s.ctlY.Monitor().ObserveAll(ys)
}

// ObserveEvalAll is the batched two-operand hot path: both monitors observe
// their variable's batch, then the pairs evaluate against the joint
// calculation table through the typed ordinal lookup, packed into sc's flat
// key buffer. dst and sc are reused across batches by a worker that owns
// them; see UnarySystem.ObserveEvalAll for the ownership contract.
func (s *BinarySystem) ObserveEvalAll(dst []uint64, xs, ys []uint64, sc *arith.Scratch) ([]uint64, int) {
	s.ctlX.Monitor().ObserveAll(xs)
	s.ctlY.Monitor().ObserveAll(ys)
	if sc != nil && s.cfg.LookupCacheEntries > 0 {
		sc.EnableCache(s.engine.Store(), s.cfg.LookupCacheEntries)
	}
	return s.engine.EvalBatchInto(dst, xs, ys, sc)
}

// Lookup is the per-packet path: monitor both operands and fetch the result.
func (s *BinarySystem) Lookup(x, y uint64) (uint64, error) {
	s.Observe(x, y)
	return s.engine.Eval(x, y)
}

// Sync runs x's control round, then y's. The joint calculation table is y's
// controller target, so y's round audits, repopulates and tier-places it
// like any calculation table, building from y's reshaped trie and x's last
// committed one: a degraded x round leaves x's bins where they were, and
// the joint table still follows y; a degraded y round keeps the last good
// joint population serving. Driver failures degrade the report rather than
// returning an error; errors are reserved for programming faults.
func (s *BinarySystem) Sync() (SyncReport, error) {
	return s.SyncCtx(context.Background())
}

// SyncCtx is Sync with cancellation: a cancelled context aborts either
// variable's round between driver operations, and the report comes back
// Degraded with reason "cancelled".
func (s *BinarySystem) SyncCtx(ctx context.Context) (SyncReport, error) {
	repX, err := s.ctlX.RoundCtx(ctx)
	if err != nil {
		return SyncReport{}, fmt.Errorf("variable x: %w", err)
	}
	repY, err := s.ctlY.RoundCtx(ctx)
	if err != nil {
		return SyncReport{}, fmt.Errorf("variable y: %w", err)
	}
	var out SyncReport
	out.add(repX)
	out.add(repY)
	return out, nil
}

// Engine exposes the calculation engine.
func (s *BinarySystem) Engine() *arith.BinaryEngine { return s.engine }

// CalcBudget returns the live joint calculation entry budget.
func (s *BinarySystem) CalcBudget() int { return s.ctlY.CalcBudget() }

// SetCalcBudget retargets subsequent rounds at a new joint entry budget.
// Call between Syncs; takes effect at the next populate.
func (s *BinarySystem) SetCalcBudget(n int) error { return s.ctlY.SetCalcBudget(n) }

// ControllerX exposes the first operand's control-plane state.
func (s *BinarySystem) ControllerX() *controlplane.Controller { return s.ctlX }

// ControllerY exposes the second operand's control-plane state.
func (s *BinarySystem) ControllerY() *controlplane.Controller { return s.ctlY }

// Op returns the emulated operation.
func (s *BinarySystem) Op() arith.BinaryOp { return s.op }

// Pipeline lays the system out on a PISA pipeline: two monitoring stages
// plus the calculation stage (3 stages, matching Table II's ADA(ΔT, R)).
func (s *BinarySystem) Pipeline(name string) (*pisa.Pipeline, error) {
	if s.engine.Table() == nil {
		return nil, fmt.Errorf("%w: shared-table system has no private calculation stage; lay out the Registry's physical table instead", ErrConfig)
	}
	return pisa.BuildADAProgram(name, []pisa.VarSpec{
		{Name: "x", Monitoring: s.ctlX.Monitor().Table(), Bins: s.ctlX.Monitor().NumBins()},
		{Name: "y", Monitoring: s.ctlY.Monitor().Table(), Bins: s.ctlY.Monitor().NumBins()},
	}, s.engine.Table())
}
