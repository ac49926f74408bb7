package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/tenant"
)

// The calculation stores a restart must be invisible on.
const (
	privateStore = iota
	tieredStore
	tenantSlice
	storeKinds
)

// restartRig is one side of a restart-invisibility pair: a unary system on a
// private table or a tiered store, or tenant 0 of a two-tenant registry
// whose other tenant and arbiter run beside it. crash, when set, is the
// system's crash hook.
type restartRig struct {
	sys   *UnarySystem
	other *UnarySystem // the registry's second tenant
	reg   *Registry
}

func newRestartRig(t *testing.T, kind int, crash func(controlplane.CrashPoint) bool) restartRig {
	t.Helper()
	cfg := DefaultConfig(16)
	cfg.MonitorEntries = 8
	cfg.CalcEntries = 48
	cfg.CrashHook = crash
	if kind == tieredStore {
		cfg.CalcCapacity = 96
		cfg.TieredTCAMEntries = 16
	}
	if kind != tenantSlice {
		sys, err := NewUnary(cfg, arith.OpSquare)
		if err != nil {
			t.Fatal(err)
		}
		return restartRig{sys: sys}
	}
	reg, err := NewRegistry(SharedConfig{Name: "shared.calc", TotalEntries: 128,
		Arbiter: tenant.ArbiterConfig{Every: 3, Floor: 8}})
	if err != nil {
		t.Fatal(err)
	}
	t0, err := reg.MountUnary("t0", cfg, arith.OpSquare)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CrashHook = nil
	t1, err := reg.MountUnary("t1", cfg, arith.OpSqrt)
	if err != nil {
		t.Fatal(err)
	}
	return restartRig{sys: t0.Unary(), other: t1.Unary(), reg: reg}
}

// round observes one round's operands and syncs, returning the round's TCAM
// writes.
func (r restartRig) round(xs, ys []uint64) (int, error) {
	r.sys.ObserveAll(xs)
	if r.reg == nil {
		rep, err := r.sys.Sync()
		return rep.TCAMWrites, err
	}
	r.other.ObserveAll(ys)
	rep, err := r.reg.Sync()
	writes := 0
	for _, tr := range rep.Tenants {
		writes += tr.TCAMWrites
	}
	return writes, err
}

// fingerprints digests the calculation store and the monitoring tables.
func (r restartRig) fingerprints() (calc, mon string) {
	mon = r.sys.Controller().Monitor().Table().Fingerprint()
	if r.reg == nil {
		return r.sys.Engine().Store().Fingerprint(), mon
	}
	return r.reg.Table().Fingerprint(), mon + r.other.Controller().Monitor().Table().Fingerprint()
}

// restartTraffic draws round's operands: a Gaussian peak that jumps every
// eight rounds, and now and then an idle round.
func restartTraffic(rng *rand.Rand, round int) []uint64 {
	if rng.Intn(10) == 0 {
		return nil
	}
	centre := float64((round/8*0x2F1B)%(1<<16-4000) + 2000)
	xs := make([]uint64, 300)
	for i := range xs {
		v := centre + 300*rng.NormFloat64()
		xs[i] = uint64(min(max(v, 0), 1<<16-1))
	}
	return xs
}

// checkRestartInvisible restarts one twin at a round boundary, after round
// restartAt's predecessor synced and before its operands arrive, and holds
// it to a never-restarted twin: on each of the 50 rounds that follow, the
// calculation and monitoring fingerprints and the TCAM writes must match.
func checkRestartInvisible(t *testing.T, seed int64, restartAt, kind int) {
	plain, restarted := newRestartRig(t, kind, nil), newRestartRig(t, kind, nil)
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < restartAt+50; round++ {
		if round == restartAt {
			rep, err := restarted.sys.Restart()
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			if !rep.Audit.Clean() || rep.CalcWrites != 0 {
				t.Fatalf("restart of an untampered switch: %+v", rep)
			}
		}
		xs, ys := restartTraffic(rng, round), restartTraffic(rng, round+3)
		wantWrites, err := plain.round(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		writes, err := restarted.round(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if writes != wantWrites {
			t.Fatalf("round %d: %d TCAM writes after the restart, %d without", round, writes, wantWrites)
		}
		calc, mon := restarted.fingerprints()
		wantCalc, wantMon := plain.fingerprints()
		if calc != wantCalc {
			t.Fatalf("round %d: calculation fingerprints diverge", round)
		}
		if mon != wantMon {
			t.Fatalf("round %d: monitoring fingerprints diverge", round)
		}
	}
}

func TestRestartInvisible(t *testing.T) {
	for kind := 0; kind < storeKinds; kind++ {
		for _, at := range []int{0, 9, 23} {
			t.Run(fmt.Sprintf("kind%d/at%d", kind, at), func(t *testing.T) {
				checkRestartInvisible(t, int64(31+at), at, kind)
			})
		}
	}
}

// FuzzRestartInvisible is checkRestartInvisible over a seed, a restart round
// in [0, 24] and a store kind.
func FuzzRestartInvisible(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(privateStore))
	f.Add(int64(2), uint8(12), uint8(tieredStore))
	f.Add(int64(3), uint8(20), uint8(tenantSlice))
	f.Fuzz(func(t *testing.T, seed int64, at, kind uint8) {
		checkRestartInvisible(t, seed, int(at%25), int(kind%storeKinds))
	})
}

// TestRestartAfterEveryCrashPoint crashes the controller at each crash
// point on every store kind and restarts it from the read-back. Whether the
// switch holds the last commit or the crashed round's bins or population,
// the restart of an untampered switch rewrites nothing and changes neither
// fingerprint, every row passes its check, and the system keeps syncing.
func TestRestartAfterEveryCrashPoint(t *testing.T) {
	points := []controlplane.CrashPoint{controlplane.CrashAfterIntent, controlplane.CrashAfterInstall,
		controlplane.CrashAfterPopulate, controlplane.CrashAfterCommit}
	for kind := 0; kind < storeKinds; kind++ {
		for _, pt := range points {
			t.Run(fmt.Sprintf("kind%d/%s", kind, pt), func(t *testing.T) {
				armed := false
				r := newRestartRig(t, kind, func(p controlplane.CrashPoint) bool {
					fire := armed && p == pt
					armed = armed && !fire
					return fire
				})
				rng := rand.New(rand.NewSource(7))
				crashed := false
				for round := 0; round < 40; round++ {
					armed = armed || round == 10
					_, err := r.round(restartTraffic(rng, round), restartTraffic(rng, round+3))
					if !errors.Is(err, controlplane.ErrCrashed) {
						if err != nil {
							t.Fatalf("round %d: %v", round, err)
						}
						continue
					}
					crashed = true
					calc, mon := r.fingerprints()
					rep, err := r.sys.Restart()
					if err != nil {
						t.Fatalf("restart: %v", err)
					}
					if !rep.Audit.Clean() || rep.CalcWrites != 0 {
						t.Fatalf("restart of an untampered switch: %+v", rep)
					}
					if gotCalc, gotMon := r.fingerprints(); gotCalc != calc || gotMon != mon {
						t.Fatal("restart changed the switch")
					}
					assertRowsCheck(t, r.sys)
				}
				if !crashed {
					t.Fatalf("crash point %s never fired", pt)
				}
			})
		}
	}
}

// TestRestartUnderEWMAStaysConsistent restarts a system whose controller
// decays hits instead of resetting them. The restart forgets the decayed
// history, so the system may part from a never-restarted twin, but every
// round after it must leave the bins on the trie's leaves, the table
// auditing clean against the shadow, and every row passing its check.
func TestRestartUnderEWMAStaysConsistent(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.MonitorEntries = 8
	cfg.CalcEntries = 48
	cfg.EWMADecay = true
	s, err := NewUnary(cfg, arith.OpSquare)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 40; round++ {
		if round == 12 {
			if _, err := s.Restart(); err != nil {
				t.Fatalf("restart: %v", err)
			}
		}
		s.ObserveAll(restartTraffic(rng, round))
		if rep, err := s.Sync(); err != nil || rep.Degraded {
			t.Fatalf("round %d: %+v, %v", round, rep, err)
		}
		ctl := s.Controller()
		if bins, leaves := ctl.Driver().NumBins(), ctl.Trie().NumLeaves(); bins != leaves {
			t.Fatalf("round %d: %d bins installed, trie has %d leaves", round, bins, leaves)
		}
		aud, err := ctl.Driver().(controlplane.Auditor).AuditCalc(false)
		if err != nil || !aud.Clean() {
			t.Fatalf("round %d: shadow audit %+v, %v", round, aud, err)
		}
		assertRowsCheck(t, s)
	}
}

// TestRestartedTenantKeepsBudget restarts tenant 0 of a registry at a
// round boundary and then runs a round of tenant 1 alone on which the
// arbiter rebalances. Until its own next round the restarted tenant's
// rebuilt trie holds no hits, so its pressure would read zero and the
// arbiter would hand its budget to tenant 1. It must sit that rebalance out
// and keep its budget, as its never-restarted twin does, and arbitrate again
// once it has run a round: the twins' budgets and tables then stay equal.
func TestRestartedTenantKeepsBudget(t *testing.T) {
	plain, restarted := newRestartRig(t, tenantSlice, nil), newRestartRig(t, tenantSlice, nil)
	rng := rand.New(rand.NewSource(5))
	peak := func(centre, sigma float64) []uint64 {
		xs := make([]uint64, 300)
		for i := range xs {
			xs[i] = uint64(min(max(centre+sigma*rng.NormFloat64(), 0), 1<<16-1))
		}
		return xs
	}
	check := func(when string) {
		t.Helper()
		if got, want := restarted.reg.Budgets(), plain.reg.Budgets(); !maps.Equal(got, want) {
			t.Fatalf("%s: budgets %v after the restart, %v without", when, got, want)
		}
		if calc, wantCalc := restarted.reg.Table().Fingerprint(), plain.reg.Table().Fingerprint(); calc != wantCalc {
			t.Fatalf("%s: calculation fingerprints diverge", when)
		}
	}
	// Full rounds on steady peaks; the arbiter rebalances every third
	// round, so the subset round below, its 33rd, rebalances too.
	for round := 0; round < 32; round++ {
		xs, ys := peak(20000, 300), peak(40000, 3000)
		for _, r := range []restartRig{plain, restarted} {
			if _, err := r.round(xs, ys); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := restarted.sys.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	ys := peak(40000, 3000)
	for _, r := range []restartRig{plain, restarted} {
		r.other.ObserveAll(ys)
		if _, err := r.reg.SyncTenants(context.Background(), []string{"t1"}); err != nil {
			t.Fatal(err)
		}
	}
	check("the round tenant 0 sat out")
	for round := 33; round < 50; round++ {
		xs, ys := peak(20000, 300), peak(40000, 3000)
		for _, r := range []restartRig{plain, restarted} {
			if _, err := r.round(xs, ys); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("round %d", round))
	}
}
