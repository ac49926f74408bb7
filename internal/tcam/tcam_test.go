package tcam

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
)

// LookupAll returns every matching entry in resolution order. This is the
// reference linear scan the compiled index is differentially tested against;
// it bypasses the index and takes the table lock.
func (t *Table) LookupAll(keys ...uint64) []*Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(keys) != len(t.fieldWidths) {
		return nil
	}
	var out []*Entry
	for _, e := range t.ordered {
		if matchAll(e.Fields, keys) {
			out = append(out, e)
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New("t", 4); err == nil {
		t.Error("no fields: want error")
	}
	if _, err := New("t", 4, 0); err == nil {
		t.Error("zero width: want error")
	}
	if _, err := New("t", 4, 65); err == nil {
		t.Error("width 65: want error")
	}
	if _, err := New("t", 4, 32, 32); err != nil {
		t.Errorf("two 32-bit fields: %v", err)
	}
}

func TestInsertLookupLPM(t *testing.T) {
	tb := MustNew("calc", 8, 3)
	// Figure 4b population: 00x, 010, 011, 1xx.
	for _, s := range []string{"00x", "010", "011", "1xx"} {
		p, err := bitstr.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.InsertPrefix(p, 0, s); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		key  uint64
		want string
	}{
		{0, "00x"}, {1, "00x"}, {2, "010"}, {3, "011"},
		{4, "1xx"}, {5, "1xx"}, {6, "1xx"}, {7, "1xx"},
	}
	for _, tt := range tests {
		e, ok := lookupOne(tb, tt.key)
		if !ok {
			t.Fatalf("lookup(%d): miss", tt.key)
		}
		if e.Data.(string) != tt.want {
			t.Errorf("lookup(%d) = %v, want %v", tt.key, e.Data, tt.want)
		}
	}
}

func TestLPMPreferredOverShorter(t *testing.T) {
	tb := MustNew("calc", 0, 4)
	root, _ := bitstr.Root(4)
	if _, err := tb.InsertPrefix(root, 100, "default"); err != nil {
		t.Fatal(err)
	}
	p := bitstr.MustNew(0b0100, 2, 4) // 01xx
	if _, err := tb.InsertPrefix(p, 0, "specific"); err != nil {
		t.Fatal(err)
	}
	// Despite lower priority, the longer prefix must win (paper: LPM
	// resolution).
	e, ok := lookupOne(tb, 5)
	if !ok || e.Data.(string) != "specific" {
		t.Fatalf("lookup(5) = %v, want specific", e)
	}
	e, ok = lookupOne(tb, 9)
	if !ok || e.Data.(string) != "default" {
		t.Fatalf("lookup(9) = %v, want default", e)
	}
}

func TestPriorityBreaksSigBitTies(t *testing.T) {
	tb := MustNew("calc", 0, 4)
	p := bitstr.MustNew(0b0100, 2, 4)
	if _, err := tb.InsertPrefix(p, 1, "low"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InsertPrefix(p, 9, "high"); err != nil {
		t.Fatal(err)
	}
	e, ok := lookupOne(tb, 5)
	if !ok || e.Data.(string) != "high" {
		t.Fatalf("Lookup = %v, want high-priority entry", e)
	}
}

func TestInsertionOrderBreaksFullTies(t *testing.T) {
	tb := MustNew("calc", 0, 4)
	p := bitstr.MustNew(0b0100, 2, 4)
	first, err := tb.InsertPrefix(p, 0, "first")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InsertPrefix(p, 0, "second"); err != nil {
		t.Fatal(err)
	}
	e, ok := lookupOne(tb, 5)
	if !ok || e.ID != first {
		t.Fatalf("Lookup = id %d, want first-installed %d", e.ID, first)
	}
}

func TestCapacity(t *testing.T) {
	tb := MustNew("small", 2, 8)
	p, _ := bitstr.Root(8)
	if _, err := tb.InsertPrefix(p, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InsertPrefix(p, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InsertPrefix(p, 0, nil); !errors.Is(err, ErrCapacity) {
		t.Fatalf("third insert error = %v, want ErrCapacity", err)
	}
	if tb.Occupancy() != 1.0 {
		t.Errorf("Occupancy = %v, want 1", tb.Occupancy())
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	tb := MustNew("t", 4, 8)
	p := bitstr.MustNew(0x40, 2, 8)
	id, err := tb.InsertPrefix(p, 0, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.UpdateData(id, "b"); err != nil {
		t.Fatal(err)
	}
	e, ok := lookupOne(tb, 0x41)
	if !ok || e.Data.(string) != "b" {
		t.Fatalf("after update: %v", e)
	}
	if err := tb.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := lookupOne(tb, 0x41); ok {
		t.Error("lookup after delete: want miss")
	}
	if err := tb.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete error = %v, want ErrNotFound", err)
	}
	if err := tb.UpdateData(999, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("update missing error = %v, want ErrNotFound", err)
	}
}

func TestTwoFieldMatch(t *testing.T) {
	tb := MustNew("mult", 0, 4, 4)
	x := bitstr.MustNew(0b0100, 2, 4) // 01xx: 4..7
	y := bitstr.MustNew(0b1000, 1, 4) // 1xxx: 8..15
	if _, err := tb.Insert([]Field{FieldFromPrefix(x), FieldFromPrefix(y)}, 0, "xy"); err != nil {
		t.Fatal(err)
	}
	if e, ok := lookupOne(tb, 5, 9); !ok || e.Data.(string) != "xy" {
		t.Fatalf("lookup(5,9) = %v", e)
	}
	if _, ok := lookupOne(tb, 5, 3); ok {
		t.Error("lookup(5,3): want miss")
	}
	if _, ok := lookupOne(tb, 5); ok {
		t.Error("wrong arity lookup: want miss")
	}
}

func TestFieldValidation(t *testing.T) {
	tb := MustNew("t", 0, 4)
	if _, err := tb.Insert([]Field{{Value: 0x1F, Mask: 0x1F}}, 0, nil); !errors.Is(err, ErrFieldWidth) {
		t.Errorf("oversized field error = %v, want ErrFieldWidth", err)
	}
	if _, err := tb.Insert([]Field{{Value: 0b11, Mask: 0b10}}, 0, nil); !errors.Is(err, ErrFieldWidth) {
		t.Errorf("value outside mask error = %v, want ErrFieldWidth", err)
	}
	if _, err := tb.Insert(nil, 0, nil); !errors.Is(err, ErrFieldCount) {
		t.Errorf("nil fields error = %v, want ErrFieldCount", err)
	}
}

func TestStats(t *testing.T) {
	tb := MustNew("t", 0, 3)
	p, _ := bitstr.Parse("1xx")
	id, _ := tb.InsertPrefix(p, 0, nil)
	lookupOne(tb, 5) // lookups are not counted
	_ = tb.UpdateData(id, "x")
	_ = tb.Delete(id)
	s := tb.Stats()
	want := Stats{Inserts: 1, Deletes: 1, Updates: 1}
	if s != want {
		t.Errorf("Stats = %+v, want %+v", s, want)
	}
	tb.ResetStats()
	if tb.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}

func TestClearCountsDeletes(t *testing.T) {
	tb := MustNew("t", 0, 3)
	p, _ := bitstr.Parse("1xx")
	for i := 0; i < 3; i++ {
		if _, err := tb.InsertPrefix(p, i, nil); err != nil {
			t.Fatal(err)
		}
	}
	tb.Clear()
	if tb.Len() != 0 {
		t.Error("Clear left entries")
	}
	if got := tb.Stats().Deletes; got != 3 {
		t.Errorf("Deletes after Clear = %d, want 3", got)
	}
}

// Reference implementation: linear scan picking max (sig, priority, -seq).
func referenceLookup(entries []*Entry, keys []uint64) *Entry {
	var best *Entry
	for _, e := range entries {
		if !matchAll(e.Fields, keys) {
			continue
		}
		if best == nil || less(e, best) {
			best = e
		}
	}
	return best
}

// Property: Lookup agrees with a brute-force reference over random tables.
func TestQuickLookupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(16)
		tb := MustNew("q", 0, width)
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			sig := rng.Intn(width + 1)
			var m uint64
			if width >= 64 {
				m = ^uint64(0)
			} else {
				m = (uint64(1) << uint(width)) - 1
			}
			p, err := bitstr.New(rng.Uint64()&m, sig, width)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tb.InsertPrefix(p, rng.Intn(4), i); err != nil {
				t.Fatal(err)
			}
		}
		for probe := 0; probe < 50; probe++ {
			var m uint64
			if width >= 64 {
				m = ^uint64(0)
			} else {
				m = (uint64(1) << uint(width)) - 1
			}
			key := rng.Uint64() & m
			got, ok := lookupOne(tb, key)
			want := referenceLookup(tb.Entries(), []uint64{key})
			if (want == nil) != !ok {
				t.Fatalf("width %d key %d: ok=%v want %v", width, key, ok, want != nil)
			}
			if want != nil && got.ID != want.ID {
				t.Fatalf("width %d key %d: got entry %d (sig %d), want %d (sig %d)",
					width, key, got.ID, got.SigBits(), want.ID, want.SigBits())
			}
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	tb := MustNew("c", 0, 16)
	p, _ := bitstr.Root(16)
	if _, err := tb.InsertPrefix(p, 0, uint64(0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				switch rng.Intn(3) {
				case 0:
					lookupOne(tb, rng.Uint64()&0xFFFF)
				case 1:
					q, err := bitstr.New(rng.Uint64()&0xFF00, 8, 16)
					if err == nil {
						_, _ = tb.InsertPrefix(q, 0, nil)
					}
				default:
					tb.Len()
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestLookupAllOrder(t *testing.T) {
	tb := MustNew("t", 0, 4)
	root, _ := bitstr.Root(4)
	deep := bitstr.MustNew(0b0100, 2, 4)
	if _, err := tb.InsertPrefix(root, 0, "root"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InsertPrefix(deep, 0, "deep"); err != nil {
		t.Fatal(err)
	}
	all := tb.LookupAll(5)
	if len(all) != 2 || all[0].Data.(string) != "deep" || all[1].Data.(string) != "root" {
		t.Fatalf("LookupAll order wrong: %v", all)
	}
}
