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
	"context"
	"errors"
	"fmt"
	"sort"
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
	// many slots in front of the calculation store, plus the intra-batch
	// operand dedup pass (see arith.Scratch and tcam.LookupCache). The
	// monitoring path stays fully uncached — every sample still lands in
	// its per-bin register — so drift detection and tier placement see
	// histograms bit-identical to an uncached run. 0 disables both.
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
	// Computed and Reused split the calculation entries of this round into
	// freshly evaluated versus served from the Algorithm 3 memo; a converged
	// incremental round reports Computed == 0.
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

// unaryTarget adapts the calculation engine to the controller. It carries
// the Algorithm 3 memo and a shadow record of the installed population
// (prefix → result at a trie change-sequence), which together make
// PopulateDelta's work proportional to churn instead of budget.
type unaryTarget struct {
	engine *arith.UnaryEngine
	op     arith.UnaryOp
	rep    population.Representative

	memo population.UnaryMemo
	// installed mirrors what the calculation table holds: the Results map of
	// the population build that was last committed, and the trie ChangeSeq it
	// was built at. lastVersion pins the table version that build produced —
	// any other writer (or a rollback) bumps it and forces a full reload.
	installed     map[bitstr.Prefix]uint64
	installedSeq  uint64
	haveInstalled bool
	lastVersion   uint64
}

func (t *unaryTarget) Populate(tr *trie.Trie, budget int) (int, int, error) {
	entries, err := population.ADAUnary(tr, t.op.Func(), budget, t.rep)
	if err != nil {
		return 0, 0, err
	}
	writes, err := t.engine.Reload(entries)
	if err != nil {
		return writes, len(entries), err
	}
	// Record the committed population even on the full path, so read-back
	// audits know the expected rows from the very first install.
	m := make(map[bitstr.Prefix]uint64, len(entries))
	for _, e := range entries {
		m[e.P] = e.Result
	}
	t.installed = m
	t.installedSeq = tr.ChangeSeq()
	t.haveInstalled = true
	t.lastVersion = t.engine.Store().Version()
	return writes, len(entries), nil
}

// PopulateDelta implements controlplane.DeltaTarget: memoized Algorithm 3
// followed by a delta commit against the installed population. Falls back to
// a full transactional reload whenever the shadow record cannot be trusted
// (first build, external table writes, a prior rollback).
func (t *unaryTarget) PopulateDelta(tr *trie.Trie, budget int) (int, int, int, error) {
	res, err := population.ADAUnaryMemo(tr, t.op.Func(), budget, t.rep, &t.memo)
	if err != nil {
		return 0, 0, 0, err
	}
	if !t.haveInstalled || t.engine.Store().Version() != t.lastVersion {
		writes, err := t.engine.Reload(res.Entries)
		if err != nil {
			return 0, res.Computed, res.Reused, err
		}
		t.record(res)
		return writes, res.Computed, res.Reused, nil
	}
	if t.installedSeq == res.Seq {
		// Converged round: the installed population was built at this exact
		// trie state, so there is nothing to write.
		return 0, res.Computed, res.Reused, nil
	}
	var add []population.UnaryEntry
	for _, e := range res.Entries {
		if old, ok := t.installed[e.P]; !ok || old != e.Result {
			add = append(add, e)
		}
	}
	var stale []bitstr.Prefix
	for p := range t.installed {
		if _, ok := res.Results[p]; !ok {
			stale = append(stale, p)
		}
	}
	bitstr.SortPrefixes(stale) // deterministic row order across runs
	remove := make([]population.UnaryEntry, len(stale))
	for i, p := range stale {
		remove[i] = population.UnaryEntry{P: p}
	}
	writes, err := t.engine.ReloadDelta(add, remove)
	if errors.Is(err, tcam.ErrDeltaConflict) {
		// Shadow record diverged from the table (should not happen under the
		// version guard; defensive). Resync with a full reload.
		writes, err = t.engine.Reload(res.Entries)
	}
	if err != nil {
		// The table rolled back (and bumped its version), so the next call
		// takes the full-reload path; the record still describes the table.
		return writes, res.Computed, res.Reused, err
	}
	t.record(res)
	return writes, res.Computed, res.Reused, nil
}

// record pins the shadow record to the population build just committed.
// Aliasing res.Results is safe: the memo rebuilds the map on every
// recompute instead of mutating it in place.
func (t *unaryTarget) record(res population.UnaryMemoResult) {
	t.installed = res.Results
	t.installedSeq = res.Seq
	t.haveInstalled = true
	t.lastVersion = t.engine.Store().Version()
}

// AuditCalc implements controlplane.AuditableTarget: read the calculation
// table back, classify divergence from the installed shadow record
// (corrupted / ghost / missing rows), and — when repair is set — heal it
// with the store's minimal anti-entropy delta instead of a repopulation.
func (t *unaryTarget) AuditCalc(repair bool) (controlplane.AuditReport, error) {
	if !t.haveInstalled {
		return controlplane.AuditReport{}, nil
	}
	rep, err := controlplane.AuditStore(t.engine.Store(), t.expectedRows(), repair)
	if err != nil {
		return rep, err
	}
	if rep.Repaired {
		// The repair commit bumped the store version; re-pin so the next
		// delta round trusts the (now restored) shadow record instead of
		// falling back to a full reload.
		t.lastVersion = t.engine.Store().Version()
	}
	return rep, nil
}

// expectedRows renders the installed shadow record as the physical rows the
// calculation table must hold, in deterministic prefix order.
func (t *unaryTarget) expectedRows() []tcam.Row {
	ps := make([]bitstr.Prefix, 0, len(t.installed))
	for p := range t.installed {
		ps = append(ps, p)
	}
	bitstr.SortPrefixes(ps)
	rows := make([]tcam.Row, len(ps))
	for i, p := range ps {
		rows[i] = tcam.RowFromPrefix(p, t.installed[p])
	}
	return rows
}

// plainTarget hides a target's incremental path (Config.DisableIncremental):
// the driver's type assertion fails and every round repopulates in full.
type plainTarget struct{ controlplane.Target }

// AuditCalc forwards the audit seam through the veil: DisableIncremental
// hides delta population, not crash-safety.
func (p plainTarget) AuditCalc(repair bool) (controlplane.AuditReport, error) {
	if at, ok := p.Target.(controlplane.AuditableTarget); ok {
		return at.AuditCalc(repair)
	}
	return controlplane.AuditReport{}, nil
}

// PlaceTiers forwards the tier-placement seam through the veil:
// DisableIncremental hides delta population, not the tiered store.
func (p plainTarget) PlaceTiers(tr *trie.Trie) (controlplane.TierMoves, bool, error) {
	if tp, ok := p.Target.(controlplane.TierPlacer); ok {
		return tp.PlaceTiers(tr)
	}
	return controlplane.TierMoves{}, false, nil
}

var (
	_ controlplane.DeltaTarget     = (*unaryTarget)(nil)
	_ controlplane.AuditableTarget = (*unaryTarget)(nil)
	_ controlplane.TierPlacer      = (*unaryTarget)(nil)
	_ controlplane.AuditableTarget = plainTarget{}
	_ controlplane.TierPlacer      = plainTarget{}
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
	target := &unaryTarget{engine: engine, op: op, rep: cfg.Representative}
	var ctlTarget controlplane.Target = target
	if cfg.DisableIncremental {
		ctlTarget = plainTarget{target}
	}
	ccfg := cfg.controllerConfig()
	ccfg.Journal = cfg.journalFor()
	ctl, err := controlplane.New(ccfg, mon, ctlTarget)
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
		sc.EnableDedup()
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
	return SyncReport{
		Delay:           rep.Delay,
		Reads:           rep.Reads,
		Writes:          rep.RegisterWrites + rep.TCAMWrites,
		TCAMWrites:      rep.TCAMWrites,
		Rebalances:      rep.Rebalances,
		Computed:        rep.Computed,
		Reused:          rep.Reused,
		Expanded:        rep.Expanded,
		Degraded:        rep.Degraded,
		DegradedReason:  rep.DegradedReason,
		Retries:         rep.Retries,
		DriverErrors:    rep.DriverErrors,
		AuditRan:        rep.AuditRan,
		Audit:           rep.Audit,
		Health:          rep.Health,
		TierPlaced:      rep.TierPlaced,
		TierPlaceFailed: rep.TierPlaceFailed,
		TierPromotions:  rep.TierPromotions,
		TierDemotions:   rep.TierDemotions,
		SRAMWrites:      rep.SRAMWrites,
	}, nil
}

// Restart models a controller crash and restart: the data plane (monitor
// registers, calculation table) keeps serving untouched, while the
// controller's in-memory state — trie, Algorithm 3 memo, shadow record — is
// lost and rebuilt from the write-ahead journal via controlplane.Recover.
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
	target := &unaryTarget{engine: s.engine, op: s.op, rep: s.cfg.Representative}
	var ctlTarget controlplane.Target = target
	if s.cfg.DisableIncremental {
		ctlTarget = plainTarget{target}
	}
	ccfg := s.cfg.controllerConfig()
	ctl, rrep, err := controlplane.Recover(ccfg, controlplane.NewDirectDriver(mon, ctlTarget), j)
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
// per operand (the paper's ADA(ΔT, R)).
type BinarySystem struct {
	cfg    Config
	op     arith.BinaryOp
	engine *arith.BinaryEngine
	ctlX   *controlplane.Controller
	ctlY   *controlplane.Controller
	rep    population.Representative

	// Incremental-population state, mirroring unaryTarget's: the Algorithm 3
	// memo plus a shadow record of the installed joint population and the
	// (SeqX, SeqY) trie states it was built at. The joint populate runs after
	// both variables' rounds commit, so the memo's wholesale-reuse path is
	// what makes a converged Sync write nothing.
	memo          population.BinaryMemo
	installed     map[population.BinaryPair]uint64
	installedSeqX uint64
	installedSeqY uint64
	haveInstalled bool
	lastVersion   uint64

	// budget is the live calculation entry budget; starts at
	// cfg.CalcEntries and moves under SetCalcBudget (tenant arbitration).
	budget int

	// Joint-table audit scheduling, mirroring the controller's: the joint
	// calculation table is not owned by either variable's controller, so
	// Sync audits it here on the same AuditEvery cadence. auditPending
	// forces an audit after a Sync that saw driver errors.
	roundsSinceAudit int
	auditPending     bool
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
	ccfgX := cfg.controllerConfig()
	ccfgX.Journal = cfg.journalFor()
	ctlX, err := controlplane.New(ccfgX, monX, nil)
	if err != nil {
		return nil, err
	}
	ccfgY := cfg.controllerConfig()
	ccfgY.Journal = cfg.journalFor()
	ctlY, err := controlplane.New(ccfgY, monY, nil)
	if err != nil {
		return nil, err
	}
	s := &BinarySystem{cfg: cfg, op: op, engine: engine, ctlX: ctlX, ctlY: ctlY,
		rep: cfg.Representative, budget: cfg.CalcEntries}
	if _, _, _, err := s.populate(); err != nil {
		return nil, err
	}
	// Construction-time spills are not round work (see newUnaryOn).
	if ts, ok := engine.Store().(*tcam.TieredStore); ok {
		ts.TakeSRAMWrites()
	}
	return s, nil
}

// populate reconciles the joint calculation table against both tries,
// returning TCAM writes plus the computed/reused entry split. With
// DisableIncremental set it regenerates and reloads in full every time;
// otherwise it runs memoized Algorithm 3 and commits only the delta.
func (s *BinarySystem) populate() (int, int, int, error) {
	tx, ty := s.ctlX.Trie(), s.ctlY.Trie()
	if s.cfg.DisableIncremental {
		entries, err := population.ADABinary(tx, ty, s.op.Func(), s.budget, s.rep)
		if err != nil {
			return 0, 0, 0, err
		}
		writes, err := s.engine.Reload(entries)
		return writes, len(entries), 0, err
	}
	res, err := population.ADABinaryMemo(tx, ty, s.op.Func(), s.budget, s.rep, &s.memo)
	if err != nil {
		return 0, 0, 0, err
	}
	if !s.haveInstalled || s.engine.Store().Version() != s.lastVersion {
		writes, err := s.engine.Reload(res.Entries)
		if err != nil {
			return 0, res.Computed, res.Reused, err
		}
		s.record(res)
		return writes, res.Computed, res.Reused, nil
	}
	if s.installedSeqX == res.SeqX && s.installedSeqY == res.SeqY {
		return 0, res.Computed, res.Reused, nil
	}
	var add []population.BinaryEntry
	for _, e := range res.Entries {
		if old, ok := s.installed[population.BinaryPair{X: e.X, Y: e.Y}]; !ok || old != e.Result {
			add = append(add, e)
		}
	}
	var stale []population.BinaryPair
	for pr := range s.installed {
		if _, ok := res.Results[pr]; !ok {
			stale = append(stale, pr)
		}
	}
	sort.Slice(stale, func(i, j int) bool { // deterministic row order
		if c := stale[i].X.Compare(stale[j].X); c != 0 {
			return c < 0
		}
		return stale[i].Y.Compare(stale[j].Y) < 0
	})
	remove := make([]population.BinaryEntry, len(stale))
	for i, pr := range stale {
		remove[i] = population.BinaryEntry{X: pr.X, Y: pr.Y}
	}
	writes, err := s.engine.ReloadDelta(add, remove)
	if errors.Is(err, tcam.ErrDeltaConflict) {
		writes, err = s.engine.Reload(res.Entries)
	}
	if err != nil {
		return writes, res.Computed, res.Reused, err
	}
	s.record(res)
	return writes, res.Computed, res.Reused, nil
}

// expectedRows renders the installed joint shadow as the physical rows the
// calculation table must hold, in deterministic (X, Y) order.
func (s *BinarySystem) expectedRows() []tcam.Row {
	pairs := make([]population.BinaryPair, 0, len(s.installed))
	for pr := range s.installed {
		pairs = append(pairs, pr)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if c := pairs[i].X.Compare(pairs[j].X); c != 0 {
			return c < 0
		}
		return pairs[i].Y.Compare(pairs[j].Y) < 0
	})
	rows := make([]tcam.Row, len(pairs))
	for i, pr := range pairs {
		rows[i] = tcam.Row{
			Fields: []tcam.Field{tcam.FieldFromPrefix(pr.X), tcam.FieldFromPrefix(pr.Y)},
			Data:   s.installed[pr],
		}
	}
	return rows
}

// AuditJoint reads the joint calculation table back, classifies divergence
// from the installed shadow (corrupted / ghost / missing rows), and — when
// repair is set — heals it with the store's minimal anti-entropy delta.
// Sync runs it on the Config.AuditEvery cadence; exposed for recovery
// tooling and tests. Before the first populate it audits trivially clean.
func (s *BinarySystem) AuditJoint(repair bool) (controlplane.AuditReport, error) {
	if !s.haveInstalled {
		return controlplane.AuditReport{}, nil
	}
	rep, err := controlplane.AuditStore(s.engine.Store(), s.expectedRows(), repair)
	if err != nil {
		return rep, err
	}
	if rep.Repaired {
		// Re-pin the store version the repair commit produced so the next
		// populate keeps its delta path (see unaryTarget.AuditCalc).
		s.lastVersion = s.engine.Store().Version()
	}
	return rep, nil
}

// record pins the shadow record to the joint build just committed; aliasing
// res.Results is safe because the memo rebuilds the map on every recompute.
func (s *BinarySystem) record(res population.BinaryMemoResult) {
	s.installed = res.Results
	s.installedSeqX = res.SeqX
	s.installedSeqY = res.SeqY
	s.haveInstalled = true
	s.lastVersion = s.engine.Store().Version()
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
		sc.EnableDedup()
	}
	return s.engine.EvalBatchInto(dst, xs, ys, sc)
}

// Lookup is the per-packet path: monitor both operands and fetch the result.
func (s *BinarySystem) Lookup(x, y uint64) (uint64, error) {
	s.Observe(x, y)
	return s.engine.Eval(x, y)
}

// Sync runs one control round across both variables and repopulates the
// joint calculation table. When either variable's round degrades, its trie
// did not move, so the joint population is skipped — the last good table
// keeps serving and the report says why. A failed joint reload likewise
// degrades the round (the engine's reload is transactional) rather than
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
	out := SyncReport{
		Reads:          repX.Reads + repY.Reads,
		Writes:         repX.RegisterWrites + repX.TCAMWrites + repY.RegisterWrites + repY.TCAMWrites,
		TCAMWrites:     repX.TCAMWrites + repY.TCAMWrites,
		Rebalances:     repX.Rebalances + repY.Rebalances,
		Computed:       repX.Computed + repY.Computed,
		Reused:         repX.Reused + repY.Reused,
		Expanded:       repX.Expanded || repY.Expanded,
		Degraded:       repX.Degraded || repY.Degraded,
		Retries:        repX.Retries + repY.Retries,
		DriverErrors:   repX.DriverErrors + repY.DriverErrors,
		DegradedReason: repX.DegradedReason,
		Health:         repX.Health,
	}
	if out.DegradedReason == controlplane.ReasonNone {
		out.DegradedReason = repY.DegradedReason
	}
	if repY.Health == controlplane.Unhealthy {
		out.Health = controlplane.Unhealthy
	}
	out.Delay = repX.Delay + repY.Delay
	out.AuditRan = repX.AuditRan || repY.AuditRan
	out.Audit.Add(repX.Audit)
	out.Audit.Add(repY.Audit)
	// Joint-table audit: the per-variable controllers own no calculation
	// target, so the joint table is audited here, against the last committed
	// shadow, on the same cadence the controllers use. A Sync that saw
	// driver errors forces one next round.
	if s.cfg.AuditEvery > 0 && out.DriverErrors > 0 {
		s.auditPending = true
	}
	if s.cfg.AuditEvery > 0 && (s.auditPending || s.roundsSinceAudit >= s.cfg.AuditEvery) {
		arep, aerr := s.AuditJoint(true)
		out.AuditRan = true
		out.Audit.Add(arep)
		out.Writes += arep.RepairWrites
		out.TCAMWrites += arep.RepairWrites
		out.Delay += time.Duration(arep.Audited)*s.cfg.Cost.PerRowRead +
			time.Duration(arep.RepairWrites)*s.cfg.Cost.PerTCAMWrite
		if aerr != nil {
			out.Degraded = true
			if out.DegradedReason == controlplane.ReasonNone {
				out.DegradedReason = controlplane.ReasonAudit
			}
			return out, nil
		}
		s.auditPending = false
		s.roundsSinceAudit = 0
	}
	if out.Degraded {
		return out, nil
	}
	calcWrites, computed, reused, err := s.populate()
	if err != nil {
		if errors.Is(err, population.ErrBudget) || errors.Is(err, population.ErrWidth) ||
			errors.Is(err, population.ErrRange) {
			return SyncReport{}, fmt.Errorf("joint population: %w", err)
		}
		out.Degraded = true
		out.DegradedReason = controlplane.ReasonPopulate
		return out, nil
	}
	out.Writes += calcWrites
	out.TCAMWrites += calcWrites
	out.Computed += computed
	out.Reused += reused
	out.Delay += time.Duration(calcWrites)*s.cfg.Cost.PerTCAMWrite +
		time.Duration(computed)*s.cfg.Cost.PerEntryCompute +
		time.Duration(reused)*s.cfg.Cost.PerEntryReused
	// Tier placement: the joint calculation table is not owned by either
	// variable's controller, so — like the joint audit above — the placement
	// pass runs here, after a committed populate, scoring each row by the
	// product of its operands' marginal hit mass. Failure is non-fatal; the
	// moves that landed are still charged.
	if moves, placed, perr := s.placeTiers(); placed {
		out.TierPlaced = true
		out.TierPlaceFailed = perr != nil
		out.TierPromotions = moves.Promotions
		out.TierDemotions = moves.Demotions
		out.SRAMWrites = moves.SRAMWrites
		out.Writes += moves.TCAMWrites
		out.TCAMWrites += moves.TCAMWrites
		out.Delay += time.Duration(moves.TCAMWrites)*s.cfg.Cost.PerTCAMWrite +
			time.Duration(moves.SRAMWrites)*s.cfg.Cost.PerSRAMWrite
	}
	s.roundsSinceAudit++
	return out, nil
}

// Engine exposes the calculation engine.
func (s *BinarySystem) Engine() *arith.BinaryEngine { return s.engine }

// CalcBudget returns the live calculation entry budget.
func (s *BinarySystem) CalcBudget() int { return s.budget }

// SetCalcBudget retargets subsequent rounds at a new joint entry budget.
// Call between Syncs; takes effect at the next populate.
func (s *BinarySystem) SetCalcBudget(n int) error {
	if n < 1 {
		return fmt.Errorf("%w: calc budget %d", ErrConfig, n)
	}
	s.budget = n
	return nil
}

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
