package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/ada-repro/ada/internal/netsim"
	"github.com/ada-repro/ada/internal/stats"
	"github.com/ada-repro/ada/internal/tcam"
)

// LookupBenchConfig parameterises the data-plane lookup microbenchmark: the
// compiled per-generation index, reached through LookupIndexBatch as batches
// of one and as one full batch, against the reference linear scan, plus the
// parallel replay path the experiments use.
type LookupBenchConfig struct {
	// Sizes are the table entry counts swept (powers of two — each size
	// installs a full-domain prefix cover of that many leaves).
	Sizes []int
	// Probes is the lookup count per measurement.
	Probes int
	// Workers are the goroutine counts for the parallel measurement.
	Workers []int
	// Width is the operand width in bits.
	Width int
	// Seed drives probe key generation.
	Seed int64
}

// DefaultLookupBenchConfig sweeps 128, 1024, and 8192 entries — the issue's
// acceptance sizes — with enough probes for stable nanosecond averages.
func DefaultLookupBenchConfig() LookupBenchConfig {
	return LookupBenchConfig{
		Sizes:   []int{128, 1024, 8192},
		Probes:  200000,
		Workers: []int{1, 2, 4},
		Width:   16,
		Seed:    41,
	}
}

// LookupParallelPoint is one worker count's wall-clock cost per lookup.
type LookupParallelPoint struct {
	// Workers is the goroutine count.
	Workers int `json:"workers"`
	// Ns is wall-clock nanoseconds per lookup across all workers; with
	// linear scaling it drops as 1/Workers.
	Ns float64 `json:"ns_per_lookup"`
}

// LookupBenchRow is one table size's measurements.
type LookupBenchRow struct {
	// Entries is the installed entry count.
	Entries int `json:"entries"`
	// ScanNs is the reference linear scan (LookupAll) cost per lookup.
	ScanNs float64 `json:"scan_ns"`
	// IndexedNs is the compiled-index cost per key resolved as a batch of
	// one through LookupIndexBatch.
	IndexedNs float64 `json:"indexed_ns"`
	// BatchNs is the cost per key of one LookupIndexBatch call over the
	// whole probe stream (one snapshot per batch).
	BatchNs float64 `json:"batch_ns"`
	// Speedup is ScanNs / IndexedNs.
	Speedup float64 `json:"speedup"`
	// Parallel is the concurrent-lookup scaling curve.
	Parallel []LookupParallelPoint `json:"parallel"`
}

// lookupBenchTable installs a full binary cover of the width-bit domain with
// `size` leaves (size must be a power of two ≤ 2^width), so every probe hits.
func lookupBenchTable(width, size int) (*tcam.Table, error) {
	t, err := tcam.New("lookupbench", 0, width)
	if err != nil {
		return nil, err
	}
	depth := 0
	for 1<<depth < size {
		depth++
	}
	if 1<<depth != size || depth > width {
		return nil, fmt.Errorf("lookupbench: size %d is not a power of two within %d bits", size, width)
	}
	full := ^uint64(0) >> (64 - uint(width))
	mask := full &^ (full >> uint(depth)) // top `depth` bits exact
	rows := make([]tcam.Row, size)
	for i := 0; i < size; i++ {
		rows[i] = tcam.Row{
			Fields: []tcam.Field{{Value: uint64(i) << uint(width-depth), Mask: mask}},
			Data:   uint64(i),
		}
	}
	if _, err := t.ApplyRowsAtomic(rows); err != nil {
		return nil, err
	}
	return t, nil
}

// RunLookupBench measures the lookup paths at each configured size. It is a
// wall-clock microbenchmark: absolute numbers vary by machine, but the
// scan-vs-index ordering and the parallel scaling trend are the deliverables.
func RunLookupBench(cfg LookupBenchConfig) ([]LookupBenchRow, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	domain := uint64(1) << uint(cfg.Width)
	keys := make([]uint64, cfg.Probes)
	for i := range keys {
		keys[i] = rng.Uint64() % domain
	}

	rows := make([]LookupBenchRow, 0, len(cfg.Sizes))
	for _, size := range cfg.Sizes {
		t, err := lookupBenchTable(cfg.Width, size)
		if err != nil {
			return nil, err
		}
		dst, _ := t.LookupIndexBatch(keys[:1], nil) // compile the index outside the timed region

		// Reference linear scan. LookupAll deliberately bypasses the
		// index; cap the probe count so 8k entries stays sub-second.
		scanProbes := cfg.Probes
		if max := 2_000_000 / size; scanProbes > max {
			scanProbes = max
		}
		if scanProbes < 1 {
			scanProbes = 1
		}
		start := time.Now()
		for _, k := range keys[:scanProbes] {
			if es := t.LookupAll(k); len(es) == 0 {
				return nil, fmt.Errorf("lookupbench: scan miss on full cover (key %d)", k)
			}
		}
		scanNs := float64(time.Since(start).Nanoseconds()) / float64(scanProbes)

		// Compiled index, one key per call.
		start = time.Now()
		for i := range keys {
			if dst, _ = t.LookupIndexBatch(keys[i:i+1], dst); dst[0] < 0 {
				return nil, fmt.Errorf("lookupbench: indexed miss on full cover (key %d)", keys[i])
			}
		}
		indexedNs := float64(time.Since(start).Nanoseconds()) / float64(len(keys))

		// Batch path: one compiled snapshot per batch.
		start = time.Now()
		ords, _ := t.LookupIndexBatch(keys, nil)
		batchNs := float64(time.Since(start).Nanoseconds()) / float64(len(keys))
		for _, ord := range ords {
			if ord < 0 {
				return nil, fmt.Errorf("lookupbench: batch miss on full cover")
			}
		}

		// Parallel replay: shard the same probe stream across workers, each
		// resolving its keys one per call.
		parallel := make([]LookupParallelPoint, 0, len(cfg.Workers))
		for _, w := range cfg.Workers {
			start = time.Now()
			netsim.Replay(w, len(keys), func(_, lo, hi int) {
				var dst []int32
				for i := lo; i < hi; i++ {
					dst, _ = t.LookupIndexBatch(keys[i:i+1], dst)
				}
			})
			parallel = append(parallel, LookupParallelPoint{
				Workers: w,
				Ns:      float64(time.Since(start).Nanoseconds()) / float64(len(keys)),
			})
		}

		rows = append(rows, LookupBenchRow{
			Entries:   size,
			ScanNs:    scanNs,
			IndexedNs: indexedNs,
			BatchNs:   batchNs,
			Speedup:   scanNs / indexedNs,
			Parallel:  parallel,
		})
	}
	return rows, nil
}

// WriteLookupBenchJSON writes the rows as an indented JSON baseline (the
// committed BENCH_lookup.json artefact).
func WriteLookupBenchJSON(path string, rows []LookupBenchRow) error {
	return WriteBenchJSON(path, rows)
}

// RenderLookupBench formats the rows.
func RenderLookupBench(rows []LookupBenchRow) string {
	t := stats.NewTable("Lookup microbenchmark: compiled index vs reference linear scan (ns per lookup)",
		"entries", "scan", "batch of 1", "full batch", "speedup", "parallel (workers:ns)")
	for _, r := range rows {
		par := ""
		for i, p := range r.Parallel {
			if i > 0 {
				par += "  "
			}
			par += fmt.Sprintf("%d:%.0f", p.Workers, p.Ns)
		}
		t.AddF(r.Entries, fmt.Sprintf("%.0f", r.ScanNs), fmt.Sprintf("%.0f", r.IndexedNs),
			fmt.Sprintf("%.0f", r.BatchNs), fmt.Sprintf("%.1fx", r.Speedup), par)
	}
	return t.String()
}
