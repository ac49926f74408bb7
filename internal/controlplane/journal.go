package controlplane

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/trie"
)

// ErrCrashed reports a controller whose CrashHook fired: the process is
// modelled as dead mid-round and the controller instance must be discarded.
// Recovery goes through Recover with the journal.
var ErrCrashed = errors.New("controlplane: controller crashed")

// CrashPoint names where in a round an injected controller crash lands,
// straddling the journal write-ahead boundary: after the intent record is
// durable but before any driver write, between the driver writes, and after
// the commit record. Recovery must converge from every one of them.
type CrashPoint string

// Crash points the round pipeline exposes to Config.CrashHook.
const (
	// CrashAfterIntent: the intent record is journaled; no driver write
	// has happened yet.
	CrashAfterIntent CrashPoint = "after-intent"
	// CrashAfterInstall: the monitoring bins are pushed; the calculation
	// population is not.
	CrashAfterInstall CrashPoint = "after-install"
	// CrashAfterPopulate: the calculation population is committed in the
	// driver; the controller's trie and journal commit are not.
	CrashAfterPopulate CrashPoint = "after-populate"
	// CrashAfterCommit: the commit record is journaled; the data-plane
	// registers may not have been reset.
	CrashAfterCommit CrashPoint = "after-commit"
)

// Journal record kinds.
const (
	// KindIntent is written before a round's driver writes begin.
	KindIntent = "intent"
	// KindCommit is written after a round's shadow trie is committed.
	KindCommit = "commit"
)

// JournalLeaf is one monitoring bin in a journal snapshot.
type JournalLeaf struct {
	Prefix string `json:"prefix"`
	Hits   uint64 `json:"hits"`
}

// JournalRecord is one write-ahead entry: a full snapshot of the controller
// commit state rather than a diff, so recovery needs only the last commit
// record regardless of how much of the log is missing or dangling.
type JournalRecord struct {
	Kind  string `json:"kind"`
	Round int    `json:"round"`
	// Budget is the calculation entry budget in force for the round.
	Budget int `json:"budget"`
	// DepthAtLastExpansion reproduces the expansion hysteresis state.
	DepthAtLastExpansion int `json:"depth_at_last_expansion"`
	// Leaves is the full committed bin layout with hit mass.
	Leaves []JournalLeaf `json:"leaves"`
}

// Journal is the controller's write-ahead log: an intent record before any
// driver write of a round and a commit record after the shadow trie swap.
// Records are held in memory and optionally streamed to a sink as JSONL, so
// a restarted process can replay the log from disk with ReadJournal.
type Journal struct {
	mu   sync.Mutex
	recs []JournalRecord
	sink io.Writer
	enc  *json.Encoder
}

// NewJournal returns an empty in-memory journal.
func NewJournal() *Journal { return &Journal{} }

// NewJournalWithSink returns a journal that additionally appends every
// record to w as one JSON object per line.
func NewJournalWithSink(w io.Writer) *Journal {
	return &Journal{sink: w, enc: json.NewEncoder(w)}
}

// Append adds one record.
func (j *Journal) Append(rec JournalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recs = append(j.recs, rec)
	if j.enc != nil {
		if err := j.enc.Encode(rec); err != nil {
			return fmt.Errorf("controlplane: journal sink: %w", err)
		}
	}
	return nil
}

// Len returns the number of records.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs)
}

// Records returns a copy of the log.
func (j *Journal) Records() []JournalRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]JournalRecord(nil), j.recs...)
}

// LastCommit returns the most recent commit record, if any. Recovery
// restores from it; everything after it is at most one dangling intent.
func (j *Journal) LastCommit() (JournalRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := len(j.recs) - 1; i >= 0; i-- {
		if j.recs[i].Kind == KindCommit {
			return j.recs[i], true
		}
	}
	return JournalRecord{}, false
}

// DanglingIntent returns the trailing intent record of a round that never
// committed — the signature of a crash between the journal append and the
// driver commit (or anywhere in between).
func (j *Journal) DanglingIntent() (JournalRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n := len(j.recs); n > 0 && j.recs[n-1].Kind == KindIntent {
		return j.recs[n-1], true
	}
	return JournalRecord{}, false
}

// ReadJournal replays a JSONL stream written by a sink-backed journal into
// a fresh in-memory journal.
//
// A malformed FINAL record is tolerated: a crash mid-append leaves a torn
// tail (a partially flushed JSON line), and recovery must still replay the
// durable prefix — that is the whole point of the write-ahead log. The torn
// record is discarded; at worst the log loses one dangling intent. A
// malformed record FOLLOWED by further records is not a torn tail but
// mid-stream corruption, and stays fatal.
func ReadJournal(r io.Reader) (*Journal, error) {
	j := NewJournal()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var pending error
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if pending != nil {
			// The bad line was not the last one: real corruption.
			return nil, pending
		}
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			pending = fmt.Errorf("controlplane: journal replay: %w", err)
			continue
		}
		j.recs = append(j.recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("controlplane: journal replay: %w", err)
	}
	return j, nil
}

// journalRecord snapshots the controller commit state for the given trie.
func journalRecord(kind string, round, budget, depth int, tr *trie.Trie) JournalRecord {
	bins := tr.Leaves()
	leaves := make([]JournalLeaf, len(bins))
	for i, b := range bins {
		leaves[i] = JournalLeaf{Prefix: b.Prefix.String(), Hits: b.Hits}
	}
	return JournalRecord{Kind: kind, Round: round, Budget: budget,
		DepthAtLastExpansion: depth, Leaves: leaves}
}

// trieFromRecord rebuilds the committed trie from a journal snapshot.
func trieFromRecord(rec JournalRecord, width int) (*trie.Trie, error) {
	bins := make([]trie.Bin, len(rec.Leaves))
	for i, l := range rec.Leaves {
		p, err := bitstr.Parse(l.Prefix)
		if err != nil {
			return nil, fmt.Errorf("controlplane: journal leaf %d: %w", i, err)
		}
		bins[i] = trie.Bin{Prefix: p, Hits: l.Hits}
	}
	return trie.FromBins(width, bins)
}

// RecoveryReport describes one controller restart recovery.
type RecoveryReport struct {
	// FullResync reports that no commit record existed and the controller
	// restarted from Algorithm 1's uniform layout instead of the journal.
	FullResync bool
	// DanglingIntent reports that the journal ended in an intent record —
	// the crash landed mid-round, between the write-ahead append and the
	// commit.
	DanglingIntent bool
	// ReplayedRound is the round number of the commit record restored.
	ReplayedRound int
	// Audit is the pre-repair hardware audit (zero when the driver cannot
	// read back).
	Audit AuditReport
	// BinWrites is the monitoring TCAM writes the recovery reinstall issued.
	BinWrites int
	// CalcWrites / Computed are the calculation repopulation costs. The
	// repopulation diffs against the physical table, so at small divergence
	// it is far cheaper than a from-scratch flash even though the restarted
	// process lost its shadow record.
	CalcWrites int
	Computed   int
	// Delay is the modelled recovery delay under the Fig 9 cost model.
	Delay time.Duration
}

// Recover rebuilds a controller after a process restart: it restores the
// committed trie, budget, and expansion state from the journal's last
// commit record, audits the hardware read-back against that state,
// reinstalls the monitoring bins (the data-plane hit registers restart at
// zero, like any switch reprogram), and repopulates the calculation table —
// an anti-entropy diff against whatever the crashed run left installed, so
// partially committed rounds and silent corruption both converge to the
// journaled state. With no commit record it falls back to a full resync
// from the initial uniform layout.
//
// The journal is adopted by the recovered controller (cfg.Journal is
// overridden), and a fresh commit record is appended for the recovered
// state.
func Recover(cfg Config, drv Driver, j *Journal) (*Controller, RecoveryReport, error) {
	var rep RecoveryReport
	if j == nil {
		return nil, rep, fmt.Errorf("%w: Recover needs a journal", ErrConfig)
	}
	cfg.Journal = j
	rec, ok := j.LastCommit()
	if !ok {
		// Nothing committed: the crash predates the first successful round.
		// Restart from scratch; the construction-time install plus the first
		// round's populate resynchronise the hardware.
		rep.FullResync = true
		_, rep.DanglingIntent = j.DanglingIntent()
		c, err := NewWithDriver(cfg, drv)
		if err != nil {
			return nil, rep, err
		}
		return c, rep, nil
	}
	_, rep.DanglingIntent = j.DanglingIntent()
	rep.ReplayedRound = rec.Round

	cfg, drv, err := prepare(cfg, drv)
	if err != nil {
		return nil, rep, err
	}
	if rec.Budget > 0 {
		cfg.CalcBudget = rec.Budget
	}
	tr, err := trieFromRecord(rec, drv.Width())
	if err != nil {
		return nil, rep, err
	}
	c := &Controller{cfg: cfg, tr: tr, drv: drv, mon: monitorOf(drv),
		depthAtLastExpansion: rec.DepthAtLastExpansion}
	// Resume the round counter where the journal left off so post-recovery
	// records keep monotonically increasing round numbers.
	c.totals.Rounds = rec.Round
	if c.depthAtLastExpansion == 0 {
		c.depthAtLastExpansion = tr.Depth()
	}

	// Detect divergence before repairing it, so the report separates "what
	// the crash left behind" from "what recovery wrote".
	if aud, ok := drv.(Auditor); ok {
		a, err := aud.AuditCalc(false)
		if err != nil {
			return nil, rep, fmt.Errorf("controlplane: recovery audit: %w", err)
		}
		rep.Audit = a
	}

	// Reinstall the journaled bin layout unconditionally: the crashed run
	// may have pushed a newer layout whose round never committed. This
	// resets the hit registers — the in-flight counts of the crashed round
	// are lost, exactly as on a real switch reprogram.
	binWrites, err := c.installMonitoringImpl(tr.Leaves())
	if err != nil {
		return nil, rep, fmt.Errorf("controlplane: recovery bin install: %w", err)
	}
	rep.BinWrites = binWrites

	// Repopulate toward the journaled trie. The populate path diffs against
	// the physical table, so rows the crashed run already installed — and
	// rows it corrupted — reconcile with minimal writes.
	writes, computed, _, err := c.populate(tr)
	if err != nil {
		return nil, rep, fmt.Errorf("controlplane: recovery populate: %w", err)
	}
	rep.CalcWrites = writes
	rep.Computed = computed

	rowReads := rep.Audit.Audited
	rep.Delay = cfg.Cost.RoundCost(0, 0, binWrites+writes, computed) +
		time.Duration(rowReads)*cfg.Cost.PerRowRead

	if err := j.Append(journalRecord(KindCommit, rec.Round, cfg.CalcBudget,
		c.depthAtLastExpansion, tr)); err != nil {
		return nil, rep, err
	}
	return c, rep, nil
}

// populate commits the calculation population for tr through the driver,
// preferring DeltaPopulator; a driver without it reports no reuse.
func (c *Controller) populate(tr *trie.Trie) (writes, computed, reused int, err error) {
	if dp, ok := c.drv.(DeltaPopulator); ok {
		return dp.PopulateCalcDelta(tr, c.cfg.CalcBudget)
	}
	writes, computed, err = c.drv.PopulateCalc(tr, c.cfg.CalcBudget)
	return writes, computed, 0, err
}
