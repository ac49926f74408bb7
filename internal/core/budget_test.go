package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/arith"
)

// calcTwin is one system under test, reduced to what the incremental/full
// differentials drive and compare: its operand feed, its control round, its
// budget knob and the calculation rows it holds.
type calcTwin struct {
	observe     func(vs []uint64)
	sync        func() (SyncReport, error)
	setBudget   func(n int) error
	fingerprint func() string
	rows, quota func() int
}

// twinConfig is the differentials' system shape: width 16, 128 calculation
// entries, incremental or not.
func twinConfig(disableIncremental bool) Config {
	cfg := DefaultConfig(16)
	cfg.MonitorEntries = 8
	cfg.MaxMonitorEntries = 32
	cfg.CalcEntries = 128
	cfg.DisableIncremental = disableIncremental
	return cfg
}

func unaryTwin(t testing.TB, cfg Config) calcTwin {
	s, err := NewUnary(cfg, arith.OpSquare)
	if err != nil {
		t.Fatal(err)
	}
	return calcTwin{
		observe:     s.ObserveAll,
		sync:        s.Sync,
		setBudget:   s.SetCalcBudget,
		fingerprint: s.Engine().Table().Fingerprint,
		rows:        s.Engine().Table().Len,
		quota:       s.CalcBudget,
	}
}

// binaryTwin feeds the y operand a rotated copy of the x samples, so both
// tries move.
func binaryTwin(t testing.TB, cfg Config) calcTwin {
	s, err := NewBinary(cfg, arith.OpMul)
	if err != nil {
		t.Fatal(err)
	}
	mask := uint64(1)<<cfg.Width - 1
	return calcTwin{
		observe: func(vs []uint64) {
			ys := make([]uint64, len(vs))
			for i, v := range vs {
				ys[i] = (v + mask/3) & mask
			}
			s.ObserveAll(vs, ys)
		},
		sync:        s.Sync,
		setBudget:   s.SetCalcBudget,
		fingerprint: s.Engine().Table().Fingerprint,
		rows:        s.Engine().Table().Len,
		quota:       s.CalcBudget,
	}
}

// tenantTwin mounts a unary system on a shared registry with room for twice
// its quota; its budget moves through Tenant.SetBudget.
func tenantTwin(t testing.TB, cfg Config) calcTwin {
	reg, err := NewRegistry(SharedConfig{Name: "shared.calc", TotalEntries: 2 * cfg.CalcEntries})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := reg.MountUnary("sq", cfg, arith.OpSquare)
	if err != nil {
		t.Fatal(err)
	}
	return calcTwin{
		observe:     tn.Unary().ObserveAll,
		sync:        tn.Sync,
		setBudget:   tn.SetBudget,
		fingerprint: tn.Slice().Fingerprint,
		rows:        tn.Slice().Len,
		quota:       tn.Slice().Capacity,
	}
}

// syncTwins runs one round on an incremental system and its full twin and
// fails unless both degrade alike and hold the same calculation rows, no
// more of them than the quota allows. It returns the incremental report.
func syncTwins(t testing.TB, what string, inc, full calcTwin) SyncReport {
	t.Helper()
	ri, err := inc.sync()
	if err != nil {
		t.Fatalf("%s: incremental Sync: %v", what, err)
	}
	rf, err := full.sync()
	if err != nil {
		t.Fatalf("%s: full Sync: %v", what, err)
	}
	if ri.Degraded != rf.Degraded {
		t.Fatalf("%s: degraded flags diverge: incremental=%v full=%v", what, ri.Degraded, rf.Degraded)
	}
	if inc.fingerprint() != full.fingerprint() {
		t.Fatalf("%s: calculation tables diverge: incremental holds %d rows, full %d",
			what, inc.rows(), full.rows())
	}
	if n, q := inc.rows(), inc.quota(); n > q {
		t.Fatalf("%s: table holds %d rows under a quota of %d", what, n, q)
	}
	return ri
}

// TestBudgetMoveOnUnchangedTrie: a budget move is an Algorithm 3 input like
// the trie, so a round after one must repopulate even when no hit has moved
// since the last commit. Each case feeds traffic, runs two idle rounds so
// the tries' ChangeSeqs stop moving, then halves the budget.
func TestBudgetMoveOnUnchangedTrie(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(testing.TB, Config) calcTwin
	}{
		{"unary", unaryTwin},
		{"binary", binaryTwin},
		{"tenant", tenantTwin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inc, full := tc.build(t, twinConfig(false)), tc.build(t, twinConfig(true))
			vs := drawRound(rand.New(rand.NewSource(3)), 0, 2000)
			inc.observe(vs)
			full.observe(vs)
			syncTwins(t, "traffic", inc, full)
			syncTwins(t, "idle 1", inc, full)
			if rep := syncTwins(t, "idle 2", inc, full); rep.Computed != 0 || rep.Reused == 0 {
				t.Fatalf("idle 2: computed %d, reused %d; want a reused build", rep.Computed, rep.Reused)
			}
			for _, s := range []calcTwin{inc, full} {
				if err := s.setBudget(64); err != nil {
					t.Fatal(err)
				}
			}
			if rep := syncTwins(t, "shrink", inc, full); rep.Computed == 0 {
				t.Fatal("shrink: the round reused the build made for the old budget")
			}
		})
	}
}

// fuzzRounds caps the rounds one fuzz input drives.
const fuzzRounds = 24

// FuzzIncrementalMatchesFull decodes each input byte b into one round of
// kind b%3 with argument a = b/3 (0..85): a traffic burst centred at a/86 of
// the domain, an idle round, or a budget move to 16 + a·112/85 entries.
// Unary and binary incremental systems must hold their full twins' tables,
// and degrade alike, after every round.
func FuzzIncrementalMatchesFull(f *testing.F) {
	const (
		burst = iota
		idle
		budget
	)
	round := func(kind, arg int) byte { return byte(arg*3 + kind) }
	f.Add([]byte{round(burst, 10), round(idle, 0), round(idle, 0), round(budget, 40)})
	f.Add([]byte{round(burst, 10), round(burst, 11), round(budget, 85), round(burst, 60),
		round(idle, 0), round(idle, 0), round(budget, 0), round(idle, 0), round(budget, 85)})
	f.Add([]byte{round(budget, 20), round(idle, 0), round(burst, 70), round(budget, 20)})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzRounds {
			data = data[:fuzzRounds]
		}
		pairs := [][2]calcTwin{
			{unaryTwin(t, twinConfig(false)), unaryTwin(t, twinConfig(true))},
			{binaryTwin(t, twinConfig(false)), binaryTwin(t, twinConfig(true))},
		}
		for i, b := range data {
			kind, arg := int(b%3), int(b/3)
			var vs []uint64
			if kind == burst {
				rng := rand.New(rand.NewSource(int64(i)))
				centre := float64(arg) * (1 << 16) / 86
				vs = make([]uint64, 600)
				for j := range vs {
					v := centre + 400*rng.NormFloat64()
					vs[j] = uint64(min(max(v, 0), 1<<16-1))
				}
			}
			for _, p := range pairs {
				for _, s := range p {
					switch kind {
					case burst:
						s.observe(vs)
					case budget:
						if err := s.setBudget(16 + arg*112/85); err != nil {
							t.Fatal(err)
						}
					}
				}
				syncTwins(t, fmt.Sprintf("round %d", i), p[0], p[1])
			}
		}
	})
}
