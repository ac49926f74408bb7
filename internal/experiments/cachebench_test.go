package experiments

import "testing"

// shortCacheBenchConfig trims the sweep and the differential so the
// acceptance run fits CI: the built-in bitwise equivalence checks (cached
// results vs uncached, fingerprints, monitor registers) still run in full,
// only the measured stream and round count shrink.
func shortCacheBenchConfig() CacheBenchConfig {
	cfg := DefaultCacheBenchConfig()
	cfg.Width = 17
	cfg.CalcEntries = 8192 // building the full 2^17 population dwarfs CI eval time
	cfg.Samples = 40_000
	cfg.Batch = 512
	cfg.ZipfS = []float64{0.6, 1.1}
	cfg.CacheEntries = []int{4096}
	cfg.DiffRounds = 60
	cfg.DiffRestartAt = 30
	return cfg
}

// TestCacheBenchAcceptance runs the lookup-cache experiment end to end.
// Every run is also a correctness gate: each sweep cell cross-checks cached
// eval output bitwise against the uncached path before timing, and the
// differential soak drives a cached and an uncached system through identical
// churn, faults, audits, and a crash/restart, failing on any divergence in
// results, miss counts, calculation fingerprints, or monitor registers. It
// asserts only machine-independent properties: the wall-clock speedup floor
// at the headline cell is enforced by `adabench cache` (make bench-cache),
// which exits non-zero below it.
func TestCacheBenchAcceptance(t *testing.T) {
	cfg := DefaultCacheBenchConfig()
	if testing.Short() {
		cfg = shortCacheBenchConfig()
	}
	res, err := RunCacheBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderCacheBench(res))
	if want := len(cfg.ZipfS) * len(cfg.CacheEntries); len(res.Points) != want {
		t.Fatalf("got %d points, want %d", len(res.Points), want)
	}
	for _, p := range res.Points {
		if p.UncachedSamplesSec <= 0 || p.CachedSamplesSec <= 0 {
			t.Errorf("s=%.1f cache=%d: non-positive throughput %+v", p.ZipfS, p.CacheEntries, p)
		}
		if p.HitRate < 0 || p.HitRate > 1 {
			t.Errorf("s=%.1f cache=%d: hit rate %.3f out of range", p.ZipfS, p.CacheEntries, p.HitRate)
		}
		if !raceEnabled && p.CachedAllocsBatch >= 2 {
			t.Errorf("s=%.1f cache=%d: cached path allocates %.1f/batch, want <2",
				p.ZipfS, p.CacheEntries, p.CachedAllocsBatch)
		}
	}
	if res.HeadlineSpeedup <= 0 {
		t.Errorf("headline cell (s=%.1f, %d entries) missing from sweep",
			cfg.HeadlineZipfS, cfg.HeadlineCacheEntries)
	}

	d := res.Differential
	if d.Rounds != cfg.DiffRounds {
		t.Errorf("differential ran %d rounds, want %d", d.Rounds, cfg.DiffRounds)
	}
	if d.SamplesCompared == 0 {
		t.Error("differential compared no samples")
	}
	if d.Invalidations == 0 {
		t.Error("differential caused no cache invalidations — churn not exercised")
	}
	if d.Audits == 0 {
		t.Error("differential ran no audits")
	}
	if cfg.DiffRestartAt > 0 && !d.Restarted {
		t.Error("differential skipped the crash/restart")
	}
}
