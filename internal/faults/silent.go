package faults

import (
	"errors"

	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/tcam"
)

// Silent-fault layer: faults the controller cannot observe at the driver
// boundary — payload bit-flips, ghost rows, dropped rows, stale audit
// read-backs, dropped acks, and injected controller crashes. Visible faults
// (faults.go) make operations fail; silent faults make them lie.

var _ controlplane.Auditor = (*Driver)(nil)

// AuditCalc implements controlplane.Auditor. The audit is a driver RPC like
// any other, so it pays the shared per-op machinery (latency, outages); on
// top of that, with probability AuditStale it returns a stale all-clean
// report without reading the hardware — the audit analogue of a stale
// register snapshot — which delays detection by one audit period.
func (d *Driver) AuditCalc(repair bool) (controlplane.AuditReport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.in.opStart(d); err != nil {
		return controlplane.AuditReport{}, err
	}
	if d.in.roll(d.in.prof.AuditStale, &d.in.stats.StaleAudits) {
		return controlplane.AuditReport{}, nil
	}
	if aud, ok := d.inner.(controlplane.Auditor); ok {
		return aud.AuditCalc(repair)
	}
	return controlplane.AuditReport{}, nil
}

// CrashHook returns a controlplane.Config.CrashHook that fires with the
// profile's CrashProb at every crash point, drawn from the injector's
// seeded RNG. Assign it to the controller config of a chaos run to model
// controller restarts anywhere in a round.
func (in *Injector) CrashHook() func(controlplane.CrashPoint) bool {
	return func(controlplane.CrashPoint) bool {
		return in.roll(in.prof.CrashProb, &in.stats.Crashes)
	}
}

// TamperTarget is a store the injector can silently corrupt: the read-back
// seam to pick victims plus the tamper seam to hit them. Both tcam.Table
// and tenant.Slice qualify; a slice target keeps every injected fault
// inside that tenant's band.
type TamperTarget interface {
	ReadRows() ([]tcam.RowDigest, error)
	FieldWidths() []int
	tcam.Tamperer
}

// TamperReport counts the silent corruptions one TamperStore call applied.
type TamperReport struct {
	Corrupted int
	Ghosts    int
	Dropped   int
}

// TamperStore applies one round of silent-corruption rolls to st: with
// probability Corrupt a random installed row's payload gets a bit flipped,
// with probability Ghost a row the controller never installed appears, and
// with probability DropRow a random installed row vanishes. All three
// bypass the store's write hooks, stats, and Version counter — the
// controller's shadow keeps believing the old contents until an audit reads
// the hardware back.
func (in *Injector) TamperStore(st TamperTarget) (TamperReport, error) {
	var rep TamperReport
	in.mu.Lock()
	if in.disarmed {
		in.mu.Unlock()
		return rep, nil
	}
	doCorrupt := in.prof.Corrupt > 0 && in.rng.Float64() < in.prof.Corrupt
	doGhost := in.prof.Ghost > 0 && in.rng.Float64() < in.prof.Ghost
	doDrop := in.prof.DropRow > 0 && in.rng.Float64() < in.prof.DropRow
	in.mu.Unlock()
	if doCorrupt {
		n, err := in.CorruptRows(st, 1)
		if err != nil {
			return rep, err
		}
		rep.Corrupted += n
	}
	if doGhost {
		n, err := in.InsertGhosts(st, 1)
		if err != nil {
			return rep, err
		}
		rep.Ghosts += n
	}
	if doDrop {
		n, err := in.DropRows(st, 1)
		if err != nil {
			return rep, err
		}
		rep.Dropped += n
	}
	return rep, nil
}

// pickRows draws n distinct installed rows from st, seeded.
func (in *Injector) pickRows(st TamperTarget, n int) ([]tcam.RowDigest, error) {
	rows, err := st.ReadRows()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, nil
	}
	if n > len(rows) {
		n = len(rows)
	}
	in.mu.Lock()
	in.rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	in.mu.Unlock()
	return rows[:n], nil
}

// CorruptRows flips one payload bit in each of n distinct random installed
// rows, returning how many were actually corrupted (bounded by the table
// population; rows whose payload is not a uint64 are skipped). Seeded and
// silent: no hook, no stats, no Version bump on the store.
func (in *Injector) CorruptRows(st TamperTarget, n int) (int, error) {
	victims, err := in.pickRows(st, n)
	if err != nil {
		return 0, err
	}
	done := 0
	for _, v := range victims {
		val, ok := v.Data.(uint64)
		if !ok {
			continue
		}
		in.mu.Lock()
		bit := uint(in.rng.Intn(64))
		in.mu.Unlock()
		flipped := val ^ (uint64(1) << bit)
		if err := st.TamperData(v.Fields, v.Priority, flipped); err != nil {
			return done, err
		}
		done++
	}
	in.mu.Lock()
	in.stats.TamperedRows += uint64(done)
	in.mu.Unlock()
	return done, nil
}

// InsertGhosts installs up to n fully-specified ghost rows with random
// in-width operand values and random payloads. A ghost colliding with an
// installed row's match key is skipped (the hardware slot is taken), so the
// returned count may be lower.
func (in *Injector) InsertGhosts(st TamperTarget, n int) (int, error) {
	widths := st.FieldWidths()
	done := 0
	for i := 0; i < n; i++ {
		fields := make([]tcam.Field, len(widths))
		in.mu.Lock()
		for j, w := range widths {
			var mask uint64
			if w >= 64 {
				mask = ^uint64(0)
			} else {
				mask = uint64(1)<<w - 1
			}
			fields[j] = tcam.Field{Value: in.rng.Uint64() & mask, Mask: mask}
		}
		data := in.rng.Uint64()
		in.mu.Unlock()
		err := st.TamperInsert(fields, 0, data)
		switch {
		case err == nil:
			done++
		case isSkippableGhostErr(err):
			// Key collision or a full table: the ghost found no slot.
		default:
			return done, err
		}
	}
	in.mu.Lock()
	in.stats.GhostRows += uint64(done)
	in.mu.Unlock()
	return done, nil
}

// isSkippableGhostErr reports ghost-insert failures that model "no slot"
// rather than a programming error.
func isSkippableGhostErr(err error) bool {
	return errors.Is(err, tcam.ErrDeltaConflict) || errors.Is(err, tcam.ErrCapacity)
}

// DropRows silently deletes n distinct random installed rows.
func (in *Injector) DropRows(st TamperTarget, n int) (int, error) {
	victims, err := in.pickRows(st, n)
	if err != nil {
		return 0, err
	}
	for _, v := range victims {
		if err := st.TamperDelete(v.Fields, v.Priority); err != nil {
			return 0, err
		}
	}
	in.mu.Lock()
	in.stats.DroppedRows += uint64(len(victims))
	in.mu.Unlock()
	return len(victims), nil
}
