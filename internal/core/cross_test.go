package core

import (
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/population"
	"github.com/ada-repro/ada/internal/tcam"
	"github.com/ada-repro/ada/internal/trie"
)

// sigBits is the ΔT marginal of the ADA(R) deployment at the given width.
func sigBits(t *testing.T, width, s int) []bitstr.Prefix {
	t.Helper()
	ys, err := population.SigBitsPrefixes(width, s)
	if err != nil {
		t.Fatal(err)
	}
	return ys
}

// newRateCross builds an ADA(R)-shaped cross system: 8-bit rate keys with
// budget adaptive entries, times the 20-bit, 2-sig-bit ΔT marginal.
func newRateCross(t *testing.T, budget int, edit func(*Config)) (*CrossSystem, []bitstr.Prefix) {
	t.Helper()
	cfg := DefaultConfig(8)
	cfg.CalcEntries = budget
	if edit != nil {
		edit(&cfg)
	}
	ys := sigBits(t, 20, 2)
	s, err := NewCross(cfg, arith.OpMul, ys)
	if err != nil {
		t.Fatal(err)
	}
	return s, ys
}

// drawRates is one round of rate samples whose centre drifts across the
// 8-bit domain, holding still for three rounds in four.
func drawRates(rng *rand.Rand, round int) []uint64 {
	mu := float64(20 + (round/4%6)*35)
	out := make([]uint64, 400)
	for i := range out {
		out[i] = uint64(min(max(mu+6*rng.NormFloat64(), 0), 255))
	}
	return out
}

// TestSigBitsCrossBuildsStrictlyIncreasing: crossed with an Algorithm 3
// allocation, every sig-bits marginal builds strictly increasing under the
// joint order, as the shadow's merge diff requires, and NewCross accepts it.
func TestSigBitsCrossBuildsStrictlyIncreasing(t *testing.T) {
	sh := jointShadow(nil, Config{})
	tr, err := trie.NewInitial(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	xs, err := population.ADAAllocate(tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{8, 16, 20} {
		for s := 0; s <= 3; s++ {
			ys := sigBits(t, width, s)
			build := population.CrossEntries(arith.OpMul.Func(), xs, ys, population.Midpoint)
			for i := 1; i < len(build); i++ {
				a, _ := sh.key(build[i-1])
				b, _ := sh.key(build[i])
				if sh.cmp(a, b) >= 0 {
					t.Fatalf("width %d, %d sig bits: entry %d (%v, %v) does not follow (%v, %v)",
						width, s, i, b.x, b.y, a.x, a.y)
				}
			}
			cfg := DefaultConfig(8)
			cfg.CalcEntries = 2
			if _, err := NewCross(cfg, arith.OpMul, ys); err != nil {
				t.Errorf("width %d, %d sig bits: %v", width, s, err)
			}
		}
	}
}

// TestNewCrossRejectsBadMarginals: the y marginal must be non-empty, of one
// width, disjoint and ascending; the joint table is never tiered.
func TestNewCrossRejectsBadMarginals(t *testing.T) {
	ys := sigBits(t, 12, 1)
	other := sigBits(t, 10, 1)
	overlap, err := bitstr.New(0, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	tiered := DefaultConfig(8)
	tiered.TieredTCAMEntries = 1
	for name, c := range map[string]struct {
		cfg Config
		ys  []bitstr.Prefix
	}{
		"empty":      {DefaultConfig(8), nil},
		"descending": {DefaultConfig(8), []bitstr.Prefix{ys[2], ys[1]}},
		"overlap":    {DefaultConfig(8), []bitstr.Prefix{ys[0], overlap}},
		"widths":     {DefaultConfig(8), []bitstr.Prefix{ys[0], other[len(other)-1]}},
		"tiered":     {tiered, ys},
	} {
		if _, err := NewCross(c.cfg, arith.OpMul, c.ys); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}

// TestCrossMatchesReferenceBuild: over drifting rate rounds the joint
// table holds exactly CrossEntries(ADAAllocate(rate trie, budget), ys),
// built from scratch each round as the reference, whether the shadow
// commits by delta or in full.
func TestCrossMatchesReferenceBuild(t *testing.T) {
	const budget = 4
	for _, disable := range []bool{false, true} {
		s, ys := newRateCross(t, budget, func(c *Config) { c.DisableIncremental = disable })
		rng := rand.New(rand.NewSource(11))
		var computed, reused int
		for round := 0; round < 50; round++ {
			if round%5 < 3 { // two idle rounds in five: the second moves nothing
				for _, r := range drawRates(rng, round) {
					s.Observe(r)
				}
			}
			rep, err := s.Sync()
			if err != nil {
				t.Fatal(err)
			}
			computed += rep.Computed
			reused += rep.Reused
			xs, err := population.ADAAllocate(s.Controller().Trie(), budget)
			if err != nil {
				t.Fatal(err)
			}
			want := population.CrossEntries(arith.OpMul.Func(), xs, ys, population.Midpoint)
			assertRows(t, s.Engine().Table(), want, disable, round)
		}
		if computed == 0 || disable != (reused == 0) {
			t.Errorf("DisableIncremental=%v: %d entries computed, %d reused", disable, computed, reused)
		}
	}
}

// assertRows requires the table's read-back to hold exactly want's rows.
func assertRows(t *testing.T, tb *tcam.Table, want []population.BinaryEntry, disable bool, round int) {
	t.Helper()
	got, err := tb.ReadRows()
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]uint64, len(want))
	for _, e := range want {
		f := []tcam.Field{tcam.FieldFromPrefix(e.X), tcam.FieldFromPrefix(e.Y)}
		rows[tcam.RowKey(f, 0)] = e.Result
	}
	if len(got) != len(rows) {
		t.Fatalf("DisableIncremental=%v round %d: %d rows, reference build has %d", disable, round, len(got), len(rows))
	}
	for _, d := range got {
		if r, ok := rows[d.Key]; !ok || r != d.Data {
			t.Fatalf("DisableIncremental=%v round %d: row %s = %v, reference %v (present %v)",
				disable, round, d.Key, d.Data, r, ok)
		}
	}
}

// TestCrossIdleRoundReusesAndAuditRepairs: a round whose rate trie and
// budget did not move reuses the whole build and writes nothing — so a row
// tampered after it stays wrong through the next such round, and only the
// next audit reports and repairs it.
func TestCrossIdleRoundReusesAndAuditRepairs(t *testing.T) {
	s, ys := newRateCross(t, 2, func(c *Config) { c.AuditEvery = 4 })
	for _, r := range drawRates(rand.New(rand.NewSource(5)), 0) {
		s.Observe(r)
	}
	// Round 1 adapts to the traffic, round 2 takes the empty registers, and
	// round 3 sees nothing move.
	for round := 1; round <= 2; round++ {
		if rep, err := s.Sync(); err != nil || rep.Computed == 0 {
			t.Fatalf("round %d: %+v, %v; want a fresh build", round, rep, err)
		}
	}
	tb := s.Engine().Table()
	idle := func(round int) {
		t.Helper()
		version := tb.Version()
		rep, err := s.Sync()
		if err != nil {
			t.Fatal(err)
		}
		if rep.AuditRan || rep.Computed != 0 || rep.Reused != 2*len(ys) || rep.TCAMWrites != 0 || tb.Version() != version {
			t.Fatalf("round %d: %+v, table version %d → %d; want every entry reused and nothing written",
				round, rep, version, tb.Version())
		}
	}
	idle(3)
	tamperFirstRow(t, tb)
	idle(4)
	aud := s.Controller().Driver().(controlplane.Auditor)
	if rep, err := aud.AuditCalc(false); err != nil || rep.Corrupted != 1 {
		t.Fatalf("after the idle round: audit %+v, %v; want the tampered row still corrupted", rep, err)
	}
	rep, err := s.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AuditRan || rep.Audit.Corrupted != 1 || !rep.Audit.Repaired || rep.Audit.RepairWrites == 0 {
		t.Fatalf("round 5 audit = %+v (ran %v), want the corrupted row found and repaired", rep.Audit, rep.AuditRan)
	}
	if rep, err := aud.AuditCalc(false); err != nil || !rep.Clean() {
		t.Errorf("after the repair: audit %+v, %v; want clean", rep, err)
	}
}
