package controlplane

import (
	"errors"
	"fmt"
	"time"

	"github.com/ada-repro/ada/internal/trie"
)

// ErrCrashed reports a controller whose CrashHook fired: the process is
// modelled as dead mid-round and the controller instance must be discarded.
// Recovery goes through Recover.
var ErrCrashed = errors.New("controlplane: controller crashed")

// CrashPoint names where in a round an injected controller crash lands:
// before any driver write, between the driver writes, and after the trie
// commit. Recovery must converge from every one of them.
type CrashPoint string

// Crash points the round pipeline exposes to Config.CrashHook.
const (
	// CrashAfterIntent: the round's shadow trie is reshaped; no driver
	// write has happened yet.
	CrashAfterIntent CrashPoint = "after-intent"
	// CrashAfterInstall: the monitoring bins are pushed; the calculation
	// population is not.
	CrashAfterInstall CrashPoint = "after-install"
	// CrashAfterPopulate: the calculation population is committed in the
	// driver; the controller's trie and commit record are not.
	CrashAfterPopulate CrashPoint = "after-populate"
	// CrashAfterCommit: the trie and the commit record are committed; the
	// data-plane registers may not have been reset.
	CrashAfterCommit CrashPoint = "after-commit"
)

// CommitRecord is the controller state a restart cannot read back from the
// switch. The monitoring TCAM holds the committed trie's bins and the
// calculation table holds the committed population, but neither holds the
// budget in force or the expansion hysteresis. The controller overwrites its
// Config.Commit record at construction, at every commit and at every
// SetCalcBudget, so the record stays one constant-size value.
type CommitRecord struct {
	// Budget is the calculation entry budget in force.
	Budget int
	// DepthAtLastExpansion is the trie depth at the last monitoring
	// expansion, the reference of the ThExpansion test.
	DepthAtLastExpansion int
}

// writeCommitRecord overwrites Config.Commit, when set, with the budget in
// force and the expansion hysteresis.
func (c *Controller) writeCommitRecord() {
	if c.cfg.Commit != nil {
		*c.cfg.Commit = CommitRecord{Budget: c.cfg.CalcBudget, DepthAtLastExpansion: c.depthAtLastExpansion}
	}
}

// RecoveryReport describes one controller restart recovery.
type RecoveryReport struct {
	// Audit is the read-back check of the calculation table: the rows read
	// and how they diverged from what their own keys imply (zero when the
	// driver cannot read back).
	Audit AuditReport
	// BinWrites is the monitoring TCAM writes the recovery reinstall issued.
	BinWrites int
	// CalcWrites is the calculation TCAM writes that repaired the rows
	// failing the check: Audit.RepairWrites, in proportion to the damage.
	CalcWrites int
	// Delay is the modelled recovery delay under the Fig 9 cost model: every
	// row read back costs one read and one evaluation.
	Delay time.Duration
}

// Recover rebuilds a controller after a process restart from what the
// switch holds. The installed monitoring bins are the committed trie's
// leaves: Recover rebuilds the trie from them with zero hits and reinstalls
// them, which zeroes the hit registers as any switch reprogram does. It then
// runs a repairing read-back audit of the calculation table. A calculation
// target that has committed nothing yet, as a restarted process's has not,
// answers it by taking the table over as it reads back: it checks every row
// against its own key and repairs the rows that fail, so partially
// committed rounds and silent corruption converge without a repopulation.
//
// The budget and the expansion hysteresis come from cfg.Commit when it holds
// a record; otherwise cfg.CalcBudget and the rebuilt trie's depth stand in.
// drv must expose the in-process monitor whose bins are read back.
func Recover(cfg Config, drv Driver) (*Controller, RecoveryReport, error) {
	var rep RecoveryReport
	mon := monitorOf(drv)
	if mon == nil {
		return nil, rep, fmt.Errorf("%w: Recover needs a driver that exposes its monitor", ErrConfig)
	}
	prefixes := mon.Prefixes()
	bins := make([]trie.Bin, len(prefixes))
	for i, p := range prefixes {
		bins[i] = trie.Bin{Prefix: p}
	}
	tr, err := trie.FromBins(mon.Width(), bins)
	if err != nil {
		return nil, rep, fmt.Errorf("controlplane: recovery read-back: %w", err)
	}
	depth := tr.Depth()
	if rec := cfg.Commit; rec != nil && rec.Budget > 0 {
		cfg.CalcBudget = rec.Budget
		depth = rec.DepthAtLastExpansion
	}
	cfg, drv, err = prepare(cfg, drv)
	if err != nil {
		return nil, rep, err
	}
	c := &Controller{cfg: cfg, tr: tr, drv: drv, mon: mon, depthAtLastExpansion: depth}

	// The reinstall writes the layout the switch already holds; it is what
	// zeroes the registers, so the first round reads counts of its own.
	if rep.BinWrites, err = c.installMonitoringImpl(tr.Leaves()); err != nil {
		return nil, rep, fmt.Errorf("controlplane: recovery bin install: %w", err)
	}
	if aud, ok := drv.(Auditor); ok {
		if rep.Audit, err = aud.AuditCalc(true); err != nil {
			return nil, rep, fmt.Errorf("controlplane: recovery audit: %w", err)
		}
	}
	rep.CalcWrites = rep.Audit.RepairWrites
	rep.Delay = cfg.Cost.RoundCost(0, 0, rep.BinWrites+rep.CalcWrites, rep.Audit.Audited) +
		time.Duration(rep.Audit.Audited)*cfg.Cost.PerRowRead
	c.writeCommitRecord()
	return c, rep, nil
}
