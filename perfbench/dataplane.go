package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
)

// dataplane-zipf: a closed loop of dpWorkers workers, each with its own
// Scratch and result buffer, feeding 1024-sample Zipf batches to one unary
// square system on a large tiered population with the lookup cache armed. A
// Sync runs only between phases.
const (
	dpWidth        = 17
	dpCalcEntries  = 4096
	dpTCAMEntries  = 256
	dpCacheEntries = 4096 // adaserve's default
	dpZipfS        = 1.1
	dpBatch        = 1024
	dpWorkers      = 2    // nproc of the reference machine
	dpPhaseBatches = 1536 // per worker between two Syncs
	dpPoolBatches  = 192  // distinct batches per worker and phase, cycled
	dpPoolPhases   = 4    // distinct phases of input before the stream repeats
	// dpErrBatchEvery scores every dpErrBatchEvery-th batch only: a run
	// evaluates over half a million batches.
	dpErrBatchEvery = 64
	// dpBatchesPerSec sizes each worker's latency and error buffers before
	// timing starts: about twice the rate one worker reaches on the
	// reference machine. A faster run grows them instead.
	dpBatchesPerSec = 20000
	// tcam_writes_per_round is the mean over the first dpWriteRounds rounds
	// only. Rounds are deterministic, and nearly all writes happen in the
	// first few, while the population converges; a mean over every round
	// would divide them by how many rounds fit in the run, which depends on
	// the host.
	dpWriteRounds = 16 * dpPoolPhases
	// Keys are scattered over the upper half of the domain, away from the
	// small operands where x² has no useful relative error bound, and
	// phase p shifts them by p·dpPhaseShift, moving part of the hot set into
	// neighbouring rows between Syncs.
	dpPhaseShift = 13
)

type dpWorker struct {
	pool    [][]uint64
	sc      arith.Scratch
	dst     []uint64
	lastXs  []uint64
	lats    durations
	errs    []errSample
	misses  int
	batches int
	log     *spanLog
}

func runDataplane(opt options) (*runResult, error) {
	r := newResult()
	rng := rand.New(rand.NewSource(opt.seed))
	z := newZipf(rng, dpWidth-1, dpZipfS)
	workers := make([]*dpWorker, dpWorkers)
	var all [][]uint64
	for w := range workers {
		wk := &dpWorker{pool: make([][]uint64, dpPoolPhases*dpPoolBatches)}
		for i := range wk.pool {
			b := make([]uint64, dpBatch)
			for j := range b {
				b[j] = z.next(uint64(i/dpPoolBatches)*dpPhaseShift) | 1<<(dpWidth-1)
			}
			wk.pool[i] = b
		}
		all = append(all, wk.pool...)
		n := int(opt.duration.Seconds() * dpBatchesPerSec)
		wk.lats = make(durations, 0, n)
		wk.errs = make([]errSample, 0, n/dpErrBatchEvery*dpBatch/errSampleStride)
		workers[w] = wk
	}
	r.inputs = inputProps{UniqueRatio: uniqueRatio(all), HotShare: hotShare(all, dpCacheEntries)}
	phaseInputs := make([][]uint64, dpPoolPhases)
	for p := range phaseInputs {
		for _, wk := range workers {
			for _, b := range wk.pool[p*dpPoolBatches : (p+1)*dpPoolBatches] {
				phaseInputs[p] = append(phaseInputs[p], b...)
			}
		}
	}
	r.inputs.RoundTV = meanRoundTV(phaseInputs, dpWidth)

	cfg := core.DefaultConfig(dpWidth)
	cfg.CalcEntries = dpCalcEntries
	cfg.TieredTCAMEntries = dpTCAMEntries
	cfg.LookupCacheEntries = dpCacheEntries
	if opt.tr != nil {
		cfg.WrapDriver = opt.tr.wrapDriver("unary")
	}
	sys, err := setupTimer(r, opt.setups, func() (*core.UnarySystem, error) {
		workers[0].sc = arith.Scratch{}
		s, err := core.NewUnary(cfg, arith.OpSquare)
		if err != nil {
			return nil, err
		}
		workers[0].dst, _ = s.ObserveEvalAll(workers[0].dst, workers[0].pool[0], &workers[0].sc)
		return s, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	mon, eng := sys.Controller().Monitor(), sys.Engine()
	var bench *spanLog
	if opt.tr != nil {
		bench = opt.tr.log("bench")
		for i, wk := range workers {
			wk.log = opt.tr.log(fmt.Sprintf("worker%d", i))
		}
	}

	// batch evaluates one batch; traced, it splits ObserveEvalAll into its
	// two public calls with the same Scratch arming.
	batch := func(wk *dpWorker, xs []uint64) {
		start := time.Now()
		var miss int
		if wk.log == nil {
			wk.dst, miss = sys.ObserveEvalAll(wk.dst, xs, &wk.sc)
		} else {
			mon.ObserveAll(xs)
			wk.log.add(spanObserve, start)
			evalStart := time.Now()
			wk.sc.EnableCache(eng.Store(), dpCacheEntries)
			wk.sc.EnableDedup()
			wk.dst, miss = eng.EvalBatchInto(wk.dst, xs, &wk.sc)
			wk.log.add(spanEval, evalStart)
		}
		wk.lats = append(wk.lats, time.Since(start))
		wk.misses += miss
		wk.batches++
		wk.lastXs = xs
		if wk.batches%dpErrBatchEvery == 0 {
			for i := 0; i < len(xs); i += errSampleStride {
				wk.errs = append(wk.errs, errSample{x: xs[i], got: wk.dst[i]})
			}
		}
	}

	var (
		rounds       durations
		stats        roundStats
		dataWall     time.Duration
		windowWrites int
	)
	mem0, cpu0 := readMem(), cpuTime()
	deadline := time.Now().Add(opt.duration)
	for phase := 0; time.Now().Before(deadline); phase++ {
		phaseStart := time.Now()
		var wg sync.WaitGroup
		for _, wk := range workers {
			wg.Add(1)
			go func(wk *dpWorker) {
				defer wg.Done()
				pool := wk.pool[(phase%dpPoolPhases)*dpPoolBatches:][:dpPoolBatches]
				for k := 0; k < dpPhaseBatches; k++ {
					batch(wk, pool[k%dpPoolBatches])
				}
			}(wk)
		}
		wg.Wait()
		dataWall += time.Since(phaseStart)
		last := workers[0].lastXs
		checkAgainstEval(r, workers[0].dst, func(i int) (uint64, error) { return eng.Eval(last[i]) })

		start := time.Now()
		rep, err := sys.Sync()
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, time.Since(start))
		if bench != nil {
			bench.add(spanUnarySync, start)
		}
		stats.add(rep)
		stats.n++
		if phase < dpWriteRounds {
			windowWrites += rep.TCAMWrites
		}
		if opt.fingerprints {
			r.fingerprints = append(r.fingerprints, eng.Store().Fingerprint())
		}
	}
	cpu := cpuTime() - cpu0
	mem1 := readMem()

	var (
		lats    durations
		errs    []errSample
		samples int
		batches int
		misses  int
		cache   struct{ hits, misses, inv uint64 }
	)
	for _, wk := range workers {
		lats = append(lats, wk.lats...)
		errs = append(errs, wk.errs...)
		batches += wk.batches
		misses += wk.misses
		st := wk.sc.CacheStats()
		cache.hits += st.Hits
		cache.misses += st.Misses
		cache.inv += st.Invalidations
	}
	samples = batches * dpBatch
	r.attempted = batches + len(rounds)
	r.e2e["samples_per_s"] = float64(samples) / dataWall.Seconds()
	r.counts["samples_per_s"] = samples
	fillLatency(r, "batch", lats, "us")
	fillLatency(r, "round", rounds, "ms")
	fillErrors(r, relErrorsUnary(arith.OpSquare, errs))
	r.e2e["cpu_ns_per_sample"] = float64(cpu) / float64(samples)
	r.e2e["live_heap_mb"] = heapDelta(func() {
		sys, mon, eng = nil, nil, nil
		for _, wk := range workers {
			wk.sc = arith.Scratch{}
		}
	})
	stats.fill(r)
	if len(rounds) >= dpWriteRounds { // shorter runs keep the mean over all rounds
		r.e2e["tcam_writes_per_round"] = float64(windowWrites) / dpWriteRounds
		r.counts["tcam_writes_per_round"] = dpWriteRounds
	}

	r.layer["arith.misses"] = float64(misses)
	if cache.hits+cache.misses > 0 {
		r.layer["arith.cache_hit_ratio"] = float64(cache.hits) / float64(cache.hits+cache.misses)
	}
	r.layer["arith.cache_invalidations"] = float64(cache.inv)
	r.layer["runtime.allocs_per_batch"] = float64(mem1.mallocs-mem0.mallocs) / float64(batches)
	r.layer["runtime.gc_pause_ms"] = float64(mem1.pauseNs-mem0.pauseNs) / 1e6
	if misses > 0 {
		r.failed += misses
		r.problem("%d calculation misses", misses)
	}
	if opt.tr != nil {
		spans := opt.tr.all()
		r.layer["monitor.observe_ns_per_sample"] = float64(sumDur(filter(spans, spanObserve))) / float64(samples)
		r.layer["arith.eval_ns_per_sample"] = float64(sumDur(filter(spans, spanEval))) / float64(samples)
		r.layer["controlplane.self_us"] = addDriverLayers(r, filter(spans, spanUnarySync), spans, "unary")
		r.layer["controlplane.round_mean_us"] = us(rounds.mean())
	}
	return r, nil
}

// addDriverLayers adds the per-round means of the driver spans inside rounds
// owned by owner, and returns the rounds' mean self time in µs (duration
// minus the union of their driver spans).
func addDriverLayers(r *runResult, rounds, spans []span, owner string) float64 {
	b := breakDown(rounds, spans, owner)
	for _, name := range driverSpans {
		r.layer[name+"_us"] += b.perKind[name]
	}
	return b.self
}

// checkAgainstEval compares sampled batch results with single-key Eval of
// the same positions on the same population.
func checkAgainstEval(r *runResult, got []uint64, eval func(i int) (uint64, error)) {
	for i := 0; i < len(got); i += errSampleStride {
		want, err := eval(i)
		if err != nil || want != got[i] {
			r.problem("batch result %d at position %d, single-key Eval %d (%v)", got[i], i, want, err)
			return
		}
	}
}
