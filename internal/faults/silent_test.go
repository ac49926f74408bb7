package faults_test

import (
	"errors"
	"testing"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/faults"
	"github.com/ada-repro/ada/internal/monitor"
	"github.com/ada-repro/ada/internal/tcam"
	"github.com/ada-repro/ada/internal/trie"
)

// newWrapped builds an injector-wrapped direct driver over a real engine.
func newWrapped(t *testing.T, prof faults.Profile) (controlplane.Driver, *faults.Injector, *monitor.Monitor, *arith.UnaryEngine) {
	t.Helper()
	in := faults.MustNew(prof)
	mon, err := monitor.New("mon", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := arith.NewUnaryEngine("calc", 8, 24, nil)
	if err != nil {
		t.Fatal(err)
	}
	drv := in.Wrap(controlplane.NewDirectDriver(mon, &engineTarget{engine: engine, op: arith.OpSquare}))
	return drv, in, mon, engine
}

// TestEveryInjectedModeWrapsErrInjected is the sentinel contract: every
// fault the injector can produce must round-trip through errors.Is so
// callers can classify injected failures without string matching.
func TestEveryInjectedModeWrapsErrInjected(t *testing.T) {
	root, err := bitstr.Root(8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trie.NewInitial(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	install := func(d controlplane.Driver) error { _, err := d.InstallMonitoring([]bitstr.Prefix{root}); return err }
	read := func(d controlplane.Driver) error { _, err := d.ReadRegisters(); return err }
	reset := func(d controlplane.Driver) error { _, err := d.ResetRegisters(); return err }
	populate := func(d controlplane.Driver) error { _, _, err := d.PopulateCalc(tr, 16); return err }
	populateDelta := func(d controlplane.Driver) error {
		_, _, _, err := d.(controlplane.DeltaPopulator).PopulateCalcDelta(tr, 16)
		return err
	}

	cases := []struct {
		name  string
		prof  faults.Profile
		setup func(in *faults.Injector)
		op    func(d controlplane.Driver) error
		want  []error
	}{
		{"write-failure", faults.Profile{Seed: 1, WriteFailure: 1}, nil, install, []error{faults.ErrInjected}},
		{"snapshot-drop", faults.Profile{Seed: 1, SnapshotDrop: 1}, nil, read, []error{faults.ErrInjected}},
		{"outage", faults.Profile{Seed: 1}, func(in *faults.Injector) { in.StartOutage(4) }, read,
			[]error{faults.ErrInjected, faults.ErrOutage}},
		{"capacity-pressure", faults.Profile{Seed: 1, CapacityPressure: 1}, nil, install,
			[]error{faults.ErrInjected, faults.ErrPressure}},
		{"ack-drop-reset", faults.Profile{Seed: 1, AckDrop: 1}, nil, reset,
			[]error{faults.ErrInjected, faults.ErrAckDropped}},
		{"ack-drop-install", faults.Profile{Seed: 1, AckDrop: 1}, nil, install,
			[]error{faults.ErrInjected, faults.ErrAckDropped}},
		{"ack-drop-populate", faults.Profile{Seed: 1, AckDrop: 1}, nil, populate,
			[]error{faults.ErrInjected, faults.ErrAckDropped}},
		{"ack-drop-populate-delta", faults.Profile{Seed: 1, AckDrop: 1}, nil, populateDelta,
			[]error{faults.ErrInjected, faults.ErrAckDropped}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			drv, in, _, _ := newWrapped(t, tc.prof)
			if tc.setup != nil {
				tc.setup(in)
			}
			err := tc.op(drv)
			if err == nil {
				t.Fatal("no error injected")
			}
			for _, want := range tc.want {
				if !errors.Is(err, want) {
					t.Errorf("errors.Is(%v, %v) = false", err, want)
				}
			}
		})
	}

	// Row-level faults carry the same sentinel through the table hook.
	in := faults.MustNew(faults.Profile{Seed: 5, RowFailure: 1})
	tb := tcam.MustNew("t", 0, 8)
	in.AttachTable(tb)
	if _, err := tb.ApplyRowsAtomic([]tcam.Row{tcam.RowFromPrefix(root, uint64(1))}); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("row fault: errors.Is(%v, ErrInjected) = false", err)
	}
}

// TestAckDroppedWritesLand asserts the dropped-ack semantics: the caller
// sees an error but the hardware state moved — the divergence the forced
// post-degraded audit exists to catch.
func TestAckDroppedWritesLand(t *testing.T) {
	drv, _, mon, engine := newWrapped(t, faults.Profile{Seed: 3, AckDrop: 1})
	root, _ := bitstr.Root(8)

	if _, err := drv.InstallMonitoring([]bitstr.Prefix{root}); !errors.Is(err, faults.ErrAckDropped) {
		t.Fatalf("install: %v, want ErrAckDropped", err)
	}
	if mon.NumBins() != 1 {
		t.Errorf("install did not land: %d bins, want 1", mon.NumBins())
	}

	tr, _ := trie.NewInitial(4, 8)
	if _, _, err := drv.PopulateCalc(tr, 16); !errors.Is(err, faults.ErrAckDropped) {
		t.Fatalf("populate: %v, want ErrAckDropped", err)
	}
	if engine.Store().Len() == 0 {
		t.Error("populate did not land: empty calculation table")
	}

	mon.Observe(3)
	if _, err := drv.ResetRegisters(); !errors.Is(err, faults.ErrAckDropped) {
		t.Fatalf("reset: %v, want ErrAckDropped", err)
	}
	snap := mon.SnapshotInto(nil)
	for i, v := range snap {
		if v != 0 {
			t.Errorf("register %d = %d after dropped-ack reset, want 0", i, v)
		}
	}
}

// TestTamperStoreSilentRowFaults rolls all three silent row faults on a
// table and checks they bypass the version counter while moving the
// physical contents.
func TestTamperStoreSilentRowFaults(t *testing.T) {
	in := faults.MustNew(faults.Profile{Seed: 9, Corrupt: 1, Ghost: 1, DropRow: 1})
	tb := tcam.MustNew("t", 8, 4)
	for _, s := range []string{"00xx", "01xx", "1xxx"} {
		p, err := bitstr.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.InsertPrefix(p, 0, p.Value()+100); err != nil {
			t.Fatal(err)
		}
	}
	v := tb.Version()
	fp := tb.Fingerprint()

	rep, err := in.TamperStore(tb)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupted != 1 || rep.Ghosts != 1 || rep.Dropped != 1 {
		t.Errorf("tamper report = %+v, want 1/1/1", rep)
	}
	st := in.Stats()
	if st.TamperedRows != 1 || st.GhostRows != 1 || st.DroppedRows != 1 {
		t.Errorf("stats = tampered %d ghosts %d dropped %d, want 1/1/1",
			st.TamperedRows, st.GhostRows, st.DroppedRows)
	}
	if tb.Version() != v {
		t.Errorf("silent tampering bumped Version %d → %d", v, tb.Version())
	}
	if tb.Fingerprint() == fp {
		t.Error("tampering left the hardware fingerprint unchanged")
	}

	// Disarmed injectors tamper nothing.
	in.SetArmed(false)
	rep, err = in.TamperStore(tb)
	if err != nil || rep != (faults.TamperReport{}) {
		t.Errorf("disarmed TamperStore = %+v, %v; want zero", rep, err)
	}
}

// fakeAuditTarget scripts the target-side audit result.
type fakeAuditTarget struct{ rep controlplane.AuditReport }

func (f *fakeAuditTarget) Populate(tr *trie.Trie, budget int) (int, int, int, error) {
	return 0, 0, 0, nil
}
func (f *fakeAuditTarget) AuditCalc(repair bool) (controlplane.AuditReport, error) {
	return f.rep, nil
}

// TestAuditStaleHidesMismatch: a stale audit read-back lies all-clean and
// counts in stats; a fresh one forwards the target's verdict.
func TestAuditStaleHidesMismatch(t *testing.T) {
	target := &fakeAuditTarget{rep: controlplane.AuditReport{Audited: 4, Corrupted: 2}}
	mon, err := monitor.New("mon", 8, 0)
	if err != nil {
		t.Fatal(err)
	}

	inStale := faults.MustNew(faults.Profile{Seed: 1, AuditStale: 1})
	aud, ok := inStale.Wrap(controlplane.NewDirectDriver(mon, target)).(controlplane.Auditor)
	if !ok {
		t.Fatal("wrapped driver does not implement Auditor")
	}
	rep, err := aud.AuditCalc(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Audited != 0 {
		t.Errorf("stale audit = %+v, want all-clean zero report", rep)
	}
	if inStale.Stats().StaleAudits != 1 {
		t.Errorf("stale audits = %d, want 1", inStale.Stats().StaleAudits)
	}

	inFresh := faults.MustNew(faults.Profile{Seed: 1})
	aud = inFresh.Wrap(controlplane.NewDirectDriver(mon, target)).(controlplane.Auditor)
	rep, err = aud.AuditCalc(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep != target.rep {
		t.Errorf("fresh audit = %+v, want forwarded %+v", rep, target.rep)
	}
}

// TestCrashHook: the hook rolls CrashProb per crash point, seeded, and is
// silenced by disarming.
func TestCrashHook(t *testing.T) {
	in := faults.MustNew(faults.Profile{Seed: 1, CrashProb: 1})
	hook := in.CrashHook()
	if !hook(controlplane.CrashAfterIntent) {
		t.Fatal("CrashProb=1 hook did not fire")
	}
	if in.Stats().Crashes != 1 {
		t.Errorf("crashes = %d, want 1", in.Stats().Crashes)
	}
	in.SetArmed(false)
	if hook(controlplane.CrashAfterCommit) {
		t.Error("disarmed hook fired")
	}

	quiet := faults.MustNew(faults.Profile{Seed: 1})
	if quiet.CrashHook()(controlplane.CrashAfterIntent) {
		t.Error("CrashProb=0 hook fired")
	}
}

// TestSetArmedSilencesVisibleFaults: disarming bypasses every fault roll,
// including an in-progress outage, and re-arming restores injection.
func TestSetArmedSilencesVisibleFaults(t *testing.T) {
	drv, in, _, _ := newWrapped(t, faults.Profile{Seed: 2, WriteFailure: 1})
	root, _ := bitstr.Root(8)

	in.StartOutage(100)
	in.SetArmed(false)
	if in.Armed() {
		t.Fatal("Armed() = true after SetArmed(false)")
	}
	if _, err := drv.InstallMonitoring([]bitstr.Prefix{root}); err != nil {
		t.Fatalf("disarmed driver failed: %v", err)
	}
	in.SetArmed(true)
	if _, err := drv.InstallMonitoring([]bitstr.Prefix{root}); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("re-armed driver: %v, want injected failure", err)
	}
}

// TestParseProfileSilentKeys round-trips the silent-fault profile keys.
func TestParseProfileSilentKeys(t *testing.T) {
	p, err := faults.ParseProfile("seed=3,ackdrop=0.1,auditstale=0.2,crash=0.01,corrupt=0.05,ghost=0.04,droprow=0.03")
	if err != nil {
		t.Fatal(err)
	}
	if p.AckDrop != 0.1 || p.AuditStale != 0.2 || p.CrashProb != 0.01 ||
		p.Corrupt != 0.05 || p.Ghost != 0.04 || p.DropRow != 0.03 {
		t.Errorf("parsed profile = %+v", p)
	}
	rt, err := faults.ParseProfile(p.String())
	if err != nil {
		t.Fatalf("String() round-trip: %v", err)
	}
	if rt != p {
		t.Errorf("round-trip = %+v, want %+v", rt, p)
	}
	if _, err := faults.ParseProfile("crash=1.5"); err == nil {
		t.Error("crash probability 1.5 accepted")
	}
}
