package tenant

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/ada-repro/ada/internal/tcam"
)

func mustPartition(t *testing.T, total int, widths ...int) *Partition {
	t.Helper()
	cfg := Config{Name: "shared", TotalEntries: total}
	if len(widths) > 0 {
		cfg.OperandWidths = widths
	}
	p, err := NewPartition(cfg)
	if err != nil {
		t.Fatalf("NewPartition: %v", err)
	}
	return p
}

// lookupOne resolves one tenant-local key tuple as a batch of one through
// the slice's LookupIndexBatch and returns the winning snapshot entry.
func lookupOne(s *Slice, keys ...uint64) (*tcam.Entry, bool) {
	ords, pay := s.LookupIndexBatch(keys, nil)
	if len(ords) != 1 {
		return nil, false
	}
	e := pay.Entry(ords[0])
	return e, e != nil
}

func row(v uint64, data any) tcam.Row {
	return tcam.Row{Fields: []tcam.Field{{Value: v, Mask: 0xff}}, Data: data}
}

func TestSliceIsolation(t *testing.T) {
	p := mustPartition(t, 16, 8, 8)
	a, err := p.Open("a", []int{8}, 8)
	if err != nil {
		t.Fatalf("Open a: %v", err)
	}
	b, err := p.Open("b", []int{8}, 8)
	if err != nil {
		t.Fatalf("Open b: %v", err)
	}
	if _, err := a.ApplyRowsAtomic([]tcam.Row{row(7, "from-a")}); err != nil {
		t.Fatalf("a commit: %v", err)
	}
	if _, err := b.ApplyRowsAtomic([]tcam.Row{row(7, "from-b")}); err != nil {
		t.Fatalf("b commit: %v", err)
	}
	// Same key, different tenants, different results.
	ea, ok := lookupOne(a, 7)
	if !ok || ea.Data != "from-a" {
		t.Fatalf("lookupOne(a, 7) = %v, %v", ea, ok)
	}
	eb, ok := lookupOne(b, 7)
	if !ok || eb.Data != "from-b" {
		t.Fatalf("lookupOne(b, 7) = %v, %v", eb, ok)
	}
	// A miss in one slice never leaks into the other's rows.
	if _, ok := lookupOne(b, 9); ok {
		t.Fatal("lookupOne(b, 9) hit; want miss")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Disjoint priority bands.
	aLo, aHi := a.Band()
	bLo, bHi := b.Band()
	if aHi > bLo && bHi > aLo {
		t.Fatalf("bands overlap: a [%d,%d) b [%d,%d)", aLo, aHi, bLo, bHi)
	}
}

func TestSliceUnusedOperandFieldsWildcarded(t *testing.T) {
	p := mustPartition(t, 8, 8, 8)
	s, err := p.Open("unary", []int{8}, 8)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := s.ApplyRowsAtomic([]tcam.Row{row(3, uint64(9))}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if e, ok := lookupOne(s, 3); !ok || e.Data != uint64(9) {
		t.Fatalf("lookup(3) = %v, %v", e, ok)
	}
	ords, pay := s.LookupIndexBatch([]uint64{3, 4}, nil)
	if v, ok := pay.Value(ords[0]); !ok || v != 9 || ords[1] >= 0 {
		t.Fatalf("LookupIndexBatch = %v (value %d, %v)", ords, v, ok)
	}
}

// TestSliceMatchesPrivateTable drives a slice and a private table through
// identical randomized reconciliation sequences and demands bit-identical
// fingerprints, lengths, and write counts — the store-level half of the
// differential guarantee (the system-level half lives in internal/core).
func TestSliceMatchesPrivateTable(t *testing.T) {
	p := mustPartition(t, 64, 8, 8)
	s, err := p.Open("x", []int{8}, 48)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// An unrelated tenant churns the same physical table throughout.
	noise, err := p.Open("noise", []int{8}, 16)
	if err != nil {
		t.Fatalf("Open noise: %v", err)
	}
	mirror := tcam.MustNew("mirror", 48, 8)

	rng := rand.New(rand.NewSource(11))
	pop := func(max int) []tcam.Row {
		n := rng.Intn(max)
		rows := make([]tcam.Row, 0, n)
		seen := map[uint64]bool{}
		for len(rows) < n {
			v := uint64(rng.Intn(64))
			if seen[v] {
				continue
			}
			seen[v] = true
			rows = append(rows, row(v, v*3))
		}
		return rows
	}
	for i := 0; i < 300; i++ {
		if rng.Intn(3) == 0 {
			if _, err := noise.ApplyRowsAtomic(pop(16)); err != nil {
				t.Fatalf("step %d: noise commit: %v", i, err)
			}
		}
		rows := pop(20)
		w1, err1 := s.ApplyRowsAtomic(rows)
		w2, err2 := mirror.ApplyRowsAtomic(rows)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("step %d: slice err %v, mirror err %v", i, err1, err2)
		}
		if w1 != w2 {
			t.Fatalf("step %d: slice writes %d, mirror writes %d", i, w1, w2)
		}
		if s.Fingerprint() != mirror.Fingerprint() {
			t.Fatalf("step %d: fingerprints diverge\nslice:\n%s\nmirror:\n%s", i, s.Fingerprint(), mirror.Fingerprint())
		}
		if s.Len() != mirror.Len() {
			t.Fatalf("step %d: len %d vs %d", i, s.Len(), mirror.Len())
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestSliceApplyDeltaMatchesPrivateTable(t *testing.T) {
	p := mustPartition(t, 32, 8, 8)
	s, err := p.Open("x", []int{8}, 32)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mirror := tcam.MustNew("mirror", 32, 8)
	seed := []tcam.Row{row(1, "a"), row(2, "b"), row(3, "c")}
	if _, err := s.ApplyRowsAtomic(seed); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.ApplyRowsAtomic(seed); err != nil {
		t.Fatal(err)
	}
	up := []tcam.Row{row(2, "B"), row(4, "d")}
	del := []tcam.Row{row(1, nil)}
	w1, err1 := s.ApplyDelta(up, del)
	w2, err2 := mirror.ApplyDelta(up, del)
	if err1 != nil || err2 != nil {
		t.Fatalf("deltas: %v, %v", err1, err2)
	}
	if w1 != w2 {
		t.Fatalf("writes %d vs %d", w1, w2)
	}
	if s.Fingerprint() != mirror.Fingerprint() {
		t.Fatalf("fingerprints diverge")
	}
	// Conflicting delete fails identically and leaves both unchanged.
	_, err1 = s.ApplyDelta(nil, []tcam.Row{row(9, nil)})
	_, err2 = mirror.ApplyDelta(nil, []tcam.Row{row(9, nil)})
	if !errors.Is(err1, tcam.ErrDeltaConflict) || !errors.Is(err2, tcam.ErrDeltaConflict) {
		t.Fatalf("conflict errors: %v, %v", err1, err2)
	}
	if s.Fingerprint() != mirror.Fingerprint() {
		t.Fatalf("fingerprints diverge after failed delta")
	}
}

func TestQuotaLedgerShrinkBeforeGrow(t *testing.T) {
	p := mustPartition(t, 10, 8, 8)
	a, err := p.Open("a", []int{8}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Open("b", []int{8}, 4); err != nil {
		t.Fatal(err)
	}
	rows := make([]tcam.Row, 6)
	for i := range rows {
		rows[i] = row(uint64(i), i)
	}
	if _, err := a.ApplyRowsAtomic(rows); err != nil {
		t.Fatal(err)
	}
	// Shrink a's quota: accepted immediately, but its 6 installed entries
	// stay reserved, so b cannot grow yet.
	if err := p.SetQuota("a", 2); err != nil {
		t.Fatalf("shrink a: %v", err)
	}
	if err := p.SetQuota("b", 8); !errors.Is(err, ErrQuota) {
		t.Fatalf("premature grow of b = %v, want ErrQuota", err)
	}
	// a commits within its new quota, releasing the entries…
	if _, err := a.ApplyRowsAtomic(rows[:2]); err != nil {
		t.Fatalf("a recommit: %v", err)
	}
	// …and the grow succeeds.
	if err := p.SetQuota("b", 8); err != nil {
		t.Fatalf("grow b after release: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSliceOverQuotaReportsHeadroom(t *testing.T) {
	p := mustPartition(t, 16, 8, 8)
	s, err := p.Open("a", []int{8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyRowsAtomic([]tcam.Row{row(1, 1), row(2, 2)}); err != nil {
		t.Fatal(err)
	}
	rows := make([]tcam.Row, 5)
	for i := range rows {
		rows[i] = row(uint64(i), i)
	}
	_, err = s.ApplyRowsAtomic(rows)
	var ce *tcam.CapacityError
	if !errors.As(err, &ce) {
		t.Fatalf("over-quota commit error = %v, want CapacityError", err)
	}
	if !errors.Is(err, tcam.ErrCapacity) {
		t.Fatalf("CapacityError does not unwrap to ErrCapacity")
	}
	if ce.Headroom() != 1 || ce.Requested != 5 || ce.Capacity != 3 {
		t.Fatalf("CapacityError = %+v (headroom %d)", ce, ce.Headroom())
	}
	// The failed commit left the slice and the physical table untouched.
	if s.Len() != 2 {
		t.Fatalf("slice len = %d after refused commit", s.Len())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSliceScopedWriteHooks(t *testing.T) {
	p := mustPartition(t, 16, 8, 8)
	a, err := p.Open("a", []int{8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Open("b", []int{8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	var aOps, global int
	a.SetWriteHook(func(tcam.WriteOp) error { aOps++; return nil })
	p.SetWriteHook(func(tcam.WriteOp) error { global++; return nil })
	if _, err := a.ApplyRowsAtomic([]tcam.Row{row(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ApplyRowsAtomic([]tcam.Row{row(1, 1), row(2, 2)}); err != nil {
		t.Fatal(err)
	}
	if aOps != 1 {
		t.Fatalf("a's hook saw %d ops, want 1 (b's commits must not reach it)", aOps)
	}
	if global != 3 {
		t.Fatalf("global hook saw %d ops, want 3", global)
	}
	// A slice-scoped failure rolls back only that slice's commit.
	a.SetWriteHook(func(tcam.WriteOp) error { return errors.New("boom") })
	if _, err := a.ApplyRowsAtomic([]tcam.Row{row(5, 5)}); err == nil {
		t.Fatal("faulted commit succeeded")
	}
	if a.Len() != 1 || b.Len() != 2 {
		t.Fatalf("post-fault lens a=%d b=%d", a.Len(), b.Len())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// fakeMember is a Member whose populate is simulated by setting installed
// size = budget at the next "round". Its pressure decays hyperbolically with
// budget (mass/budget), the shape a mass-proportional allocator produces, so
// the arbiter's marginal-gain waterfill has a real gradient to follow.
type fakeMember struct {
	name   string
	p      *Partition
	s      *Slice
	mass   float64
	budget int
}

func (f *fakeMember) TenantName() string { return f.name }
func (f *fakeMember) Budget() int        { return f.budget }
func (f *fakeMember) SetBudget(n int) error {
	if err := f.p.SetQuota(f.name, n); err != nil {
		return err
	}
	f.budget = n
	return nil
}
func (f *fakeMember) Pressure(budget int) (Signal, error) {
	p := f.mass / float64(budget)
	return Signal{Pressure: p, Marginal: p}, nil
}

func (f *fakeMember) commit(t *testing.T) {
	t.Helper()
	rows := make([]tcam.Row, f.budget)
	for i := range rows {
		rows[i] = row(uint64(i), i)
	}
	if _, err := f.s.ApplyRowsAtomic(rows); err != nil {
		t.Fatalf("%s commit: %v", f.name, err)
	}
}

func TestArbiterMovesBudgetTowardPressure(t *testing.T) {
	p := mustPartition(t, 96, 8, 8)
	mk := func(name string, quota int, mass float64) *fakeMember {
		s, err := p.Open(name, []int{8}, quota)
		if err != nil {
			t.Fatal(err)
		}
		return &fakeMember{name: name, p: p, s: s, mass: mass, budget: quota}
	}
	hot := mk("hot", 32, 900)
	warm := mk("warm", 32, 90)
	cold := mk("cold", 32, 10)
	members := []Member{hot, warm, cold}
	arb := NewArbiter(p, ArbiterConfig{Every: 2, Floor: 8})

	for round := 1; round <= 8; round++ {
		for _, m := range []*fakeMember{hot, warm, cold} {
			m.commit(t)
		}
		rep, err := arb.RoundDone(members)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if rep.Rebalanced && rep.Pressures["hot"].Pressure <= rep.Pressures["cold"].Pressure {
			t.Fatalf("round %d: pressures = %v", round, rep.Pressures)
		}
	}
	if hot.budget <= 32 {
		t.Fatalf("hot tenant budget = %d, want growth above 32", hot.budget)
	}
	if cold.budget >= 32 {
		t.Fatalf("cold tenant budget = %d, want shrink below 32", cold.budget)
	}
	if cold.budget < 8 {
		t.Fatalf("cold tenant budget = %d violates floor 8", cold.budget)
	}
	if total := hot.budget + warm.budget + cold.budget; total > 96 {
		t.Fatalf("budgets sum to %d > 96", total)
	}
}

func TestArbiterDisabledIsStatic(t *testing.T) {
	p := mustPartition(t, 48, 8, 8)
	a, err := p.Open("a", []int{8}, 24)
	if err != nil {
		t.Fatal(err)
	}
	_ = a
	m := &fakeMember{name: "a", p: p, s: a, mass: 100, budget: 24}
	arb := NewArbiter(p, ArbiterConfig{Every: 0})
	for i := 0; i < 5; i++ {
		rep, err := arb.RoundDone([]Member{m})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rebalanced || len(rep.Moves) != 0 {
			t.Fatalf("static arbiter rebalanced: %+v", rep)
		}
	}
	if m.budget != 24 {
		t.Fatalf("budget drifted to %d under disabled arbiter", m.budget)
	}
}

func TestOpenRejectsOversubscription(t *testing.T) {
	p := mustPartition(t, 10, 8, 8)
	if _, err := p.Open("a", []int{8}, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Open("b", []int{8}, 6); !errors.Is(err, ErrQuota) {
		t.Fatalf("oversubscribing Open = %v, want ErrQuota", err)
	}
	if _, err := p.Open("a", []int{8}, 2); !errors.Is(err, ErrTenant) {
		t.Fatalf("duplicate Open = %v, want ErrTenant", err)
	}
}

func TestBinarySlice(t *testing.T) {
	p := mustPartition(t, 16, 8, 8)
	s, err := p.Open("mul", []int{8, 8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := tcam.Row{Fields: []tcam.Field{{Value: 3, Mask: 0xff}, {Value: 4, Mask: 0xff}}, Data: uint64(12)}
	if _, err := s.ApplyRowsAtomic([]tcam.Row{r}); err != nil {
		t.Fatal(err)
	}
	if e, ok := lookupOne(s, 3, 4); !ok || e.Data != uint64(12) {
		t.Fatalf("lookup(3,4) = %v, %v", e, ok)
	}
	if _, ok := lookupOne(s, 4, 3); ok {
		t.Fatal("lookup(4,3) hit")
	}
	ords, pay := s.LookupIndexBatch([]uint64{3, 4, 0, 0}, nil)
	if pay.Entry(ords[0]) == nil || ords[1] >= 0 {
		t.Fatalf("LookupIndexBatch = %v", ords)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSliceFingerprintMatchesRowKey(t *testing.T) {
	// The slice fingerprint must be byte-identical to a private table's for
	// the same rows — the differential tests depend on it.
	rows := []tcam.Row{row(1, uint64(10)), row(250, uint64(20))}
	p := mustPartition(t, 8, 8, 8)
	s, err := p.Open("a", []int{8}, 8)
	if err != nil {
		t.Fatal(err)
	}
	mirror := tcam.MustNew("m", 8, 8)
	if _, err := s.ApplyRowsAtomic(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.ApplyRowsAtomic(rows); err != nil {
		t.Fatal(err)
	}
	if s.Fingerprint() != mirror.Fingerprint() {
		t.Fatalf("fingerprint mismatch:\n%q\nvs\n%q", s.Fingerprint(), mirror.Fingerprint())
	}
	if s.Fingerprint() == "" {
		t.Fatal("empty fingerprint")
	}
}
