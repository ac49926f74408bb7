package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunLookupBenchSmall(t *testing.T) {
	cfg := LookupBenchConfig{
		Sizes:   []int{16, 64},
		Probes:  2000,
		Workers: []int{1, 2},
		Width:   10,
		Seed:    3,
	}
	rows, err := RunLookupBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Sizes) {
		t.Fatalf("rows = %d, want %d", len(rows), len(cfg.Sizes))
	}
	for _, r := range rows {
		if r.ScanNs <= 0 || r.IndexedNs <= 0 || r.BatchNs <= 0 {
			t.Errorf("entries=%d: non-positive timing %+v", r.Entries, r)
		}
		if len(r.Parallel) != len(cfg.Workers) {
			t.Errorf("entries=%d: parallel points = %d, want %d", r.Entries, len(r.Parallel), len(cfg.Workers))
		}
	}
	if RenderLookupBench(rows) == "" {
		t.Error("empty render")
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteBenchJSON(path, rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []LookupBenchRow
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back) != len(rows) {
		t.Errorf("round-trip rows = %d, want %d", len(back), len(rows))
	}
}

func TestLookupBenchTableRejectsBadSize(t *testing.T) {
	if _, err := lookupBenchTable(10, 100); err == nil {
		t.Error("non-power-of-two size: want error")
	}
	if _, err := lookupBenchTable(4, 32); err == nil {
		t.Error("size over domain: want error")
	}
}
