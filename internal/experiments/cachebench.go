package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/faults"
	"github.com/ada-repro/ada/internal/population"
	"github.com/ada-repro/ada/internal/stats"
)

// CacheBenchConfig parameterises the lookup-cache experiment: a Zipf-skew ×
// cache-size throughput sweep of the cached data-plane eval path against the
// uncached one, plus a long differential that pins the cached path
// bit-identical to the uncached path across hundreds of control rounds with
// distribution churn, injected driver faults, audits, tier re-placement,
// and a crash/restart.
type CacheBenchConfig struct {
	// Width is the sweep's operand width in bits. The default 17 is the
	// narrowest width in the predecessor-search regime (the dense LUT
	// fast path stops at 16 bits) — the regime any real >16-bit operand
	// domain runs in, and the one the cache exists for.
	Width int
	// CalcEntries is the sweep's calculation population size. The default
	// 2^17 gives every 17-bit key its own range: an exact population whose
	// uncached lookup pays the full log2(N) predecessor walk.
	CalcEntries int
	// Samples and Batch shape each measurement cell.
	Samples int
	Batch   int
	// ZipfS is the skew sweep (0 = uniform).
	ZipfS []float64
	// CacheEntries is the cache-size sweep.
	CacheEntries []int
	// HeadlineZipfS/HeadlineCacheEntries name the acceptance cell: the
	// sweep must contain it, and its speedup is reported separately.
	HeadlineZipfS        float64
	HeadlineCacheEntries int
	// DiffRounds is the differential's control-round count; DiffWidth and
	// DiffCalcEntries shape its (smaller) system. DiffRestartAt
	// crash-restarts both systems at that round; DiffFaultSpec injects
	// identical seeded driver faults into both.
	DiffRounds      int
	DiffWidth       int
	DiffCalcEntries int
	DiffRestartAt   int
	DiffFaultSpec   string
	// Seed drives stream generation.
	Seed int64
}

// DefaultCacheBenchConfig is the committed BENCH_cache.json configuration.
func DefaultCacheBenchConfig() CacheBenchConfig {
	return CacheBenchConfig{
		Width:                17,
		CalcEntries:          131072,
		Samples:              400_000,
		Batch:                4096,
		ZipfS:                []float64{0.6, 0.8, 1.0, 1.1, 1.2, 1.4},
		CacheEntries:         []int{1024, 4096, 16384},
		HeadlineZipfS:        1.1,
		HeadlineCacheEntries: 4096,
		DiffRounds:           500,
		DiffWidth:            16,
		DiffCalcEntries:      64,
		DiffRestartAt:        250,
		DiffFaultSpec:        "seed=29,write=0.03",
		Seed:                 47,
	}
}

// CachePoint is one (skew, cache size) cell of the sweep.
type CachePoint struct {
	ZipfS        float64 `json:"zipf_s"`
	CacheEntries int     `json:"cache_entries"`
	// UncachedSamplesSec and CachedSamplesSec are single-thread eval
	// throughputs over the same stream.
	UncachedSamplesSec float64 `json:"uncached_samples_per_sec"`
	CachedSamplesSec   float64 `json:"cached_samples_per_sec"`
	Speedup            float64 `json:"speedup"`
	// HitRate is cache hits over cache traffic, per sample occurrence.
	HitRate float64 `json:"hit_rate"`
	// Allocation rates per batch for both paths (steady state; 0 expected).
	UncachedAllocsBatch float64 `json:"uncached_allocs_per_batch"`
	CachedAllocsBatch   float64 `json:"cached_allocs_per_batch"`
}

// DedupPoint is one skew row of the standalone intra-batch dedup
// measurement: the same stream evaluated with only the fold/scatter pass
// armed (no cache), against the same uncached reference.
type DedupPoint struct {
	ZipfS           float64 `json:"zipf_s"`
	DedupSamplesSec float64 `json:"dedup_samples_per_sec"`
	Speedup         float64 `json:"speedup"`
	// UniquePerBatch is the fold factor: mean distinct keys per
	// Batch-sample batch.
	UniquePerBatch float64 `json:"unique_per_batch"`
}

// CacheDiffResult summarises the differential soak.
type CacheDiffResult struct {
	Rounds          int    `json:"rounds"`
	SamplesCompared uint64 `json:"samples_compared"`
	DegradedRounds  int    `json:"degraded_rounds"`
	Audits          int    `json:"audits"`
	Restarted       bool   `json:"restarted"`
	CacheHits       uint64 `json:"cache_hits"`
	CacheMisses     uint64 `json:"cache_misses"`
	Invalidations   uint64 `json:"invalidations"`
}

// CacheBenchResult is the committed BENCH_cache.json artefact.
type CacheBenchResult struct {
	Width       int          `json:"width"`
	CalcEntries int          `json:"calc_entries"`
	Samples     int          `json:"samples"`
	Batch       int          `json:"batch"`
	Points      []CachePoint `json:"points"`
	Dedup       []DedupPoint `json:"dedup"`
	// HeadlineSpeedup is the acceptance cell's cached/uncached ratio
	// (Zipf s = HeadlineZipfS with HeadlineCacheEntries slots).
	HeadlineZipfS        float64         `json:"headline_zipf_s"`
	HeadlineCacheEntries int             `json:"headline_cache_entries"`
	HeadlineSpeedup      float64         `json:"headline_speedup"`
	Differential         CacheDiffResult `json:"differential"`
}

// RunCacheBench runs the sweep and the differential. Like the other
// benchmarks, every run is also a correctness gate: each sweep cell
// cross-checks cached results against uncached before timing, and a
// differential failure fails the run.
func RunCacheBench(cfg CacheBenchConfig) (CacheBenchResult, error) {
	res := CacheBenchResult{
		Width:                cfg.Width,
		CalcEntries:          cfg.CalcEntries,
		Samples:              cfg.Samples,
		Batch:                cfg.Batch,
		HeadlineZipfS:        cfg.HeadlineZipfS,
		HeadlineCacheEntries: cfg.HeadlineCacheEntries,
	}

	// One engine serves the whole sweep: the population is static during
	// measurement (the differential covers the mutating case).
	domainMax := uint64(1)<<uint(cfg.Width) - 1
	entries, err := population.NaiveUnaryRange(arith.OpSqrt.Func(), cfg.Width, cfg.CalcEntries, 0, domainMax, population.Midpoint)
	if err != nil {
		return res, err
	}
	eng, err := arith.NewUnaryEngine("cachebench", cfg.Width, 0, entries)
	if err != nil {
		return res, err
	}

	batches := batchCount(cfg.Samples, cfg.Batch)
	for _, s := range cfg.ZipfS {
		// One stream per skew, shared by every cache size and all paths.
		rng := rand.New(rand.NewSource(cfg.Seed))
		xs := make([]uint64, cfg.Samples)
		newZipf(rng.Float64, cfg.Width, s).Fill(xs)
		want, wantM := eng.EvalBatch(xs) // bitwise reference for every path

		// Each configuration runs in its own closure over its own Scratch;
		// verifyStream is the per-path correctness gate (and cache/buffer
		// warmer): bitwise results and miss counts against the reference.
		mkRun := func(sc *arith.Scratch) func() {
			var dst []uint64
			return func() {
				for lo := 0; lo < len(xs); lo += cfg.Batch {
					hi := min(lo+cfg.Batch, len(xs))
					dst, _ = eng.EvalBatchInto(dst, xs[lo:hi], sc)
				}
			}
		}
		verifyStream := func(name string, sc *arith.Scratch) error {
			var dst []uint64
			gotM := 0
			got := make([]uint64, 0, len(xs))
			for lo := 0; lo < len(xs); lo += cfg.Batch {
				hi := min(lo+cfg.Batch, len(xs))
				var m int
				dst, m = eng.EvalBatchInto(dst, xs[lo:hi], sc)
				got = append(got, dst...)
				gotM += m
			}
			if gotM != wantM {
				return fmt.Errorf("cachebench: s=%.2f %s: misses %d, want %d", s, name, gotM, wantM)
			}
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("cachebench: s=%.2f %s: result[%d] = %d, want %d", s, name, i, got[i], want[i])
				}
			}
			return nil
		}

		// The uncached reference throughput for this stream.
		var plainSc arith.Scratch
		if err := verifyStream("uncached", &plainSc); err != nil {
			return res, err
		}
		uncachedSec, uncachedAllocs := measureMedian(cfg.Samples, batches, mkRun(&plainSc))

		// The standalone dedup fold (no cache), plus the fold factor
		// counted directly from the stream.
		var dedupSc arith.Scratch
		dedupSc.EnableDedup()
		if err := verifyStream("dedup", &dedupSc); err != nil {
			return res, err
		}
		dedupSec, _ := measureMedian(cfg.Samples, batches, mkRun(&dedupSc))
		res.Dedup = append(res.Dedup, DedupPoint{
			ZipfS:           s,
			DedupSamplesSec: dedupSec,
			Speedup:         dedupSec / uncachedSec,
			UniquePerBatch:  uniquePerBatch(xs, cfg.Batch),
		})

		for _, ce := range cfg.CacheEntries {
			var sc arith.Scratch
			sc.EnableCache(eng.Store(), ce)
			if err := verifyStream(fmt.Sprintf("cache=%d", ce), &sc); err != nil {
				return res, err
			}
			before := sc.CacheStats()
			cachedSec, cachedAllocs := measureMedian(cfg.Samples, batches, mkRun(&sc))
			after := sc.CacheStats()
			traffic := (after.Hits - before.Hits) + (after.Misses - before.Misses)
			pt := CachePoint{
				ZipfS:               s,
				CacheEntries:        ce,
				UncachedSamplesSec:  uncachedSec,
				CachedSamplesSec:    cachedSec,
				Speedup:             cachedSec / uncachedSec,
				UncachedAllocsBatch: uncachedAllocs,
				CachedAllocsBatch:   cachedAllocs,
			}
			if traffic > 0 {
				pt.HitRate = float64(after.Hits-before.Hits) / float64(traffic)
			}
			res.Points = append(res.Points, pt)
			if s == cfg.HeadlineZipfS && ce == cfg.HeadlineCacheEntries {
				res.HeadlineSpeedup = pt.Speedup
			}
		}
	}

	diff, err := runCacheDifferential(cfg)
	if err != nil {
		return res, err
	}
	res.Differential = diff
	return res, nil
}

// measure times fn over the stream and reports samples/sec plus heap
// allocations per batch.
func measure(samples, batches int, fn func()) (samplesSec, allocsBatch float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	samplesSec = float64(samples) / elapsed.Seconds()
	allocsBatch = float64(after.Mallocs-before.Mallocs) / float64(batches)
	return samplesSec, allocsBatch
}

func batchCount(n, batch int) int {
	if batch <= 0 {
		return 1
	}
	return (n + batch - 1) / batch
}

// measureMedian runs measure three times and reports the median throughput
// — single-core hosts drift enough between trials (scheduler preemption,
// frequency scaling) that one sample can swing a ratio by ±15% — together
// with the worst-case allocation rate across trials.
func measureMedian(samples, batches int, fn func()) (samplesSec, allocsBatch float64) {
	var secs [3]float64
	for i := range secs {
		sec, allocs := measure(samples, batches, fn)
		secs[i] = sec
		if allocs > allocsBatch {
			allocsBatch = allocs
		}
	}
	lo, hi := min(secs[0], secs[1]), max(secs[0], secs[1])
	switch {
	case secs[2] < lo:
		samplesSec = lo
	case secs[2] > hi:
		samplesSec = hi
	default:
		samplesSec = secs[2]
	}
	return samplesSec, allocsBatch
}

// uniquePerBatch counts the mean number of distinct keys per batch — the
// dedup fold factor of the stream.
func uniquePerBatch(xs []uint64, batch int) float64 {
	if batch <= 0 || len(xs) == 0 {
		return 0
	}
	seen := make(map[uint64]struct{}, batch)
	total := 0
	for lo := 0; lo < len(xs); lo += batch {
		hi := min(lo+batch, len(xs))
		clear(seen)
		for _, k := range xs[lo:hi] {
			seen[k] = struct{}{}
		}
		total += len(seen)
	}
	return float64(total) / float64(batchCount(len(xs), batch))
}

// runCacheDifferential drives two identically-configured systems — one with
// the lookup cache armed, one without — through DiffRounds control rounds
// over identical phase-shifting Zipf streams, with identical injected
// driver faults, periodic read-back audits, tiered tier re-placement, and
// one mid-soak crash/restart of both. After every batch the eval outputs
// must match bitwise; after every round the calculation fingerprints and
// monitor register snapshots must match exactly — the "monitoring stays
// exact" guarantee.
func runCacheDifferential(cfg CacheBenchConfig) (CacheDiffResult, error) {
	diff := CacheDiffResult{Rounds: cfg.DiffRounds}

	mk := func(cacheEntries int) (*core.UnarySystem, *faults.Injector, error) {
		tcfg := core.DefaultConfig(cfg.DiffWidth)
		tcfg.CalcEntries = cfg.DiffCalcEntries
		tcfg.CalcCapacity = 2 * cfg.DiffCalcEntries
		tcfg.TieredTCAMEntries = cfg.DiffCalcEntries / 2
		tcfg.AuditEvery = 7
		tcfg.EnableJournal = true
		tcfg.LookupCacheEntries = cacheEntries
		var inj *faults.Injector
		if cfg.DiffFaultSpec != "" {
			prof, err := faults.ParseProfile(cfg.DiffFaultSpec)
			if err != nil {
				return nil, nil, err
			}
			if inj, err = faults.New(prof); err != nil {
				return nil, nil, err
			}
			tcfg.WrapDriver = inj.Wrap
		}
		sys, err := core.NewUnary(tcfg, arith.OpSquare)
		if err != nil {
			return nil, nil, err
		}
		return sys, inj, nil
	}
	cached, injC, err := mk(cfg.HeadlineCacheEntries)
	if err != nil {
		return diff, err
	}
	plain, injP, err := mk(0)
	if err != nil {
		return diff, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	max := uint64(1)<<uint(cfg.DiffWidth) - 1
	zs := newZipf(rng.Float64, cfg.DiffWidth, 1.1)
	xs := make([]uint64, 512)
	var scC, scP arith.Scratch
	var dstC, dstP []uint64
	for round := 0; round < cfg.DiffRounds; round++ {
		// Distribution churn: the Zipf hot set shifts by a new offset
		// every 20 rounds, forcing repopulation (and with it generation
		// bumps, delta commits, rollback-on-fault, and re-placement).
		peak := (uint64(round/20) * 0x9E37) & max
		for b := 0; b < 4; b++ {
			for i := range xs {
				xs[i] = (peak + zs.Next()) & max
			}
			var mC, mP int
			dstC, mC = cached.ObserveEvalAll(dstC, xs, &scC)
			dstP, mP = plain.ObserveEvalAll(dstP, xs, &scP)
			if mC != mP {
				return diff, fmt.Errorf("cachebench differential: round %d: cached misses %d, plain %d", round, mC, mP)
			}
			for i := range dstP {
				if dstC[i] != dstP[i] {
					return diff, fmt.Errorf("cachebench differential: round %d sample %d: cached %d, plain %d", round, i, dstC[i], dstP[i])
				}
			}
			diff.SamplesCompared += uint64(len(xs))
		}

		if cfg.DiffRestartAt > 0 && round == cfg.DiffRestartAt {
			// Crash/restart both systems inside a fault-free maintenance
			// window, exactly like the serve soak does.
			for _, inj := range []*faults.Injector{injC, injP} {
				if inj != nil {
					inj.SetArmed(false)
				}
			}
			if _, err := cached.Restart(); err != nil {
				return diff, fmt.Errorf("cached restart: %w", err)
			}
			if _, err := plain.Restart(); err != nil {
				return diff, fmt.Errorf("plain restart: %w", err)
			}
			for _, inj := range []*faults.Injector{injC, injP} {
				if inj != nil {
					inj.SetArmed(true)
				}
			}
			diff.Restarted = true
		}

		repC, err := cached.Sync()
		if err != nil {
			return diff, err
		}
		repP, err := plain.Sync()
		if err != nil {
			return diff, err
		}
		if repC.Degraded != repP.Degraded {
			return diff, fmt.Errorf("cachebench differential: round %d: degraded %v vs %v", round, repC.Degraded, repP.Degraded)
		}
		if repC.Degraded {
			diff.DegradedRounds++
		}
		if repC.AuditRan {
			diff.Audits++
		}

		// Post-round state equality: same installed population, same
		// monitor registers. The monitor snapshot is the histogram drift
		// detection and tier placement read — bit-identical by contract.
		fpC := cached.Engine().Store().Fingerprint()
		fpP := plain.Engine().Store().Fingerprint()
		if fpC != fpP {
			return diff, fmt.Errorf("cachebench differential: round %d: calc fingerprints diverged", round)
		}
		snapC := cached.Controller().Monitor().Snapshot()
		snapP := plain.Controller().Monitor().Snapshot()
		if len(snapC) != len(snapP) {
			return diff, fmt.Errorf("cachebench differential: round %d: register counts diverged", round)
		}
		for i := range snapC {
			if snapC[i] != snapP[i] {
				return diff, fmt.Errorf("cachebench differential: round %d: register %d: cached %d, plain %d", round, i, snapC[i], snapP[i])
			}
		}
	}
	st := scC.CacheStats()
	diff.CacheHits = st.Hits
	diff.CacheMisses = st.Misses
	diff.Invalidations = st.Invalidations
	if diff.Invalidations == 0 {
		return diff, fmt.Errorf("cachebench differential: %d rounds caused no invalidations — the churn did not exercise the cache", cfg.DiffRounds)
	}
	return diff, nil
}

// RenderCacheBench formats the result.
func RenderCacheBench(res CacheBenchResult) string {
	t := stats.NewTable(
		fmt.Sprintf("Lookup cache: cached vs uncached single-thread eval (width %d, %d entries, batch %d)",
			res.Width, res.CalcEntries, res.Batch),
		"zipf s", "cache", "uncached", "cached", "speedup", "hit rate", "allocs/batch")
	for _, p := range res.Points {
		t.AddF(fmt.Sprintf("%.1f", p.ZipfS), p.CacheEntries,
			fmt.Sprintf("%.2fM", p.UncachedSamplesSec/1e6),
			fmt.Sprintf("%.2fM", p.CachedSamplesSec/1e6),
			fmt.Sprintf("%.2fx", p.Speedup),
			fmt.Sprintf("%.1f%%", 100*p.HitRate),
			fmt.Sprintf("%.1f→%.1f", p.UncachedAllocsBatch, p.CachedAllocsBatch))
	}
	out := t.String()
	dd := stats.NewTable("Intra-batch dedup fold alone (no cache)",
		"zipf s", "dedup", "speedup", "uniq/batch")
	for _, p := range res.Dedup {
		dd.AddF(fmt.Sprintf("%.1f", p.ZipfS),
			fmt.Sprintf("%.2fM", p.DedupSamplesSec/1e6),
			fmt.Sprintf("%.2fx", p.Speedup),
			fmt.Sprintf("%.0f", p.UniquePerBatch))
	}
	out += "\n" + dd.String()
	d := res.Differential
	out += fmt.Sprintf("\nheadline: %.2fx at zipf s=%.1f with %d-entry cache\n",
		res.HeadlineSpeedup, res.HeadlineZipfS, res.HeadlineCacheEntries)
	out += fmt.Sprintf("differential: %d rounds, %d samples compared bit-identical, %d degraded, %d audits, restart=%v, %d invalidations\n",
		d.Rounds, d.SamplesCompared, d.DegradedRounds, d.Audits, d.Restarted, d.Invalidations)
	return out
}
