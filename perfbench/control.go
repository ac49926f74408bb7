package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
)

// control-drift: one unary square system (tiered, journaled, audited) and one
// binary multiply system, driven round by round while the operand peaks move
// every round. Only a few thousand samples run between rounds and the lookup
// cache is off.
const (
	cdUnaryWidth    = 16
	cdUnaryCalc     = 1024
	cdUnaryTCAM     = 128
	cdAuditEvery    = 8
	cdBinaryWidth   = 8
	cdBinaryCalc    = 1024
	cdBatch         = 1024
	cdUnaryBatches  = 4 // per round
	cdBinaryBatches = 2 // per round
	cdPoolRounds    = 192
	// cdErrEvery scores the results of every cdErrEvery-th round only, so
	// the scored samples fit buffers allocated before timing starts; it is
	// coprime with cdPoolRounds, so every pooled round gets scored.
	cdErrEvery = 5
	// live_heap_mb is the mean growth of the live heap since before set-up
	// over readings after every cdHeapEvery-th round up to cdHeapAtRound:
	// the journal grows every round, so fixed rounds keep the figure
	// independent of how many rounds fit in the run. The readings' forced
	// collections are kept out of the measured wall and CPU time.
	cdHeapEvery   = 32
	cdHeapAtRound = 128
)

// cdPeak is a deterministic peak path: the centre of a triangular operand
// distribution sweeping a sine between 30% and 80% of the domain (clear of
// the tiny operands whose relative error no table budget bounds).
func cdPeak(round, period int, max uint64, phase float64) uint64 {
	f := 0.55 + 0.25*math.Sin(2*math.Pi*float64(round)/float64(period)+phase)
	return uint64(f * float64(max))
}

type cdRound struct {
	u      [][]uint64
	bx, by [][]uint64
}

func cdInputs(seed int64) []cdRound {
	rng := rand.New(rand.NewSource(seed))
	umax := uint64(1)<<cdUnaryWidth - 1
	bmax := uint64(1)<<cdBinaryWidth - 1
	gen := func(n int, peak, half, max uint64) []uint64 {
		b := make([]uint64, n)
		for i := range b {
			b[i] = triangular(rng, peak, half, max)
		}
		return b
	}
	pool := make([]cdRound, cdPoolRounds)
	for r := range pool {
		pu := cdPeak(r, 64, umax, 0)
		px, py := cdPeak(r, 48, bmax, 0), cdPeak(r, 96, bmax, math.Pi/2)
		for i := 0; i < cdUnaryBatches; i++ {
			pool[r].u = append(pool[r].u, gen(cdBatch, pu, umax/16, umax))
		}
		for i := 0; i < cdBinaryBatches; i++ {
			pool[r].bx = append(pool[r].bx, gen(cdBatch, px, bmax/8, bmax))
			pool[r].by = append(pool[r].by, gen(cdBatch, py, bmax/8, bmax))
		}
	}
	return pool
}

type cdSystems struct {
	u *core.UnarySystem
	b *core.BinarySystem
}

func runControl(opt options) (*runResult, error) {
	r := newResult()
	pool := cdInputs(opt.seed)
	var ubatches, perRound [][]uint64
	for _, p := range pool {
		ubatches = append(ubatches, p.u...)
		var all []uint64
		for _, b := range p.u {
			all = append(all, b...)
		}
		perRound = append(perRound, all)
	}
	r.inputs = inputProps{
		UniqueRatio: uniqueRatio(ubatches),
		HotShare:    hotShare(ubatches, dpCacheEntries),
		RoundTV:     meanRoundTV(perRound, cdUnaryWidth),
	}

	ucfg := core.DefaultConfig(cdUnaryWidth)
	ucfg.CalcEntries = cdUnaryCalc
	ucfg.TieredTCAMEntries = cdUnaryTCAM
	ucfg.EnableJournal = true
	ucfg.AuditEvery = cdAuditEvery
	bcfg := core.DefaultConfig(cdBinaryWidth)
	bcfg.CalcEntries = cdBinaryCalc
	if opt.tr != nil {
		ucfg.WrapDriver = opt.tr.wrapDriver("unary")
		bcfg.WrapDriver = opt.tr.wrapDriver("binary")
	}
	var (
		usc, bsc   arith.Scratch
		udst, bdst []uint64
	)
	// The sample buffers get their final capacity before the heap baseline
	// is read, so neither live_heap_mb nor the collector's work in the timed
	// loop includes them. A round takes milliseconds, so a run fits in
	// maxRounds; a faster one grows the buffers instead.
	maxRounds := int(opt.duration/time.Millisecond) + 1
	lats := make(durations, 0, maxRounds*cdUnaryBatches)
	rounds := make(durations, 0, maxRounds)
	scored := maxRounds/cdErrEvery + 1
	uerrs := make([]errSample, 0, scored*cdUnaryBatches*cdBatch/errSampleStride)
	berrs := make([]errSample, 0, scored*cdBinaryBatches*cdBatch/errSampleStride)
	heapBase := liveHeapMiB()
	sys, err := setupTimer(r, opt.setups, func() (cdSystems, error) {
		u, err := core.NewUnary(ucfg, arith.OpSquare)
		if err != nil {
			return cdSystems{}, err
		}
		b, err := core.NewBinary(bcfg, arith.OpMul)
		if err != nil {
			return cdSystems{}, err
		}
		udst, _ = u.ObserveEvalAll(udst, pool[0].u[0], &usc)
		bdst, _ = b.ObserveEvalAll(bdst, pool[0].bx[0], pool[0].by[0], &bsc)
		return cdSystems{u, b}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	u, b := sys.u, sys.b
	umon, ueng := u.Controller().Monitor(), u.Engine()
	bmonX, bmonY, beng := b.ControllerX().Monitor(), b.ControllerY().Monitor(), b.Engine()
	var bench *spanLog
	if opt.tr != nil {
		bench = opt.tr.log("bench")
	}

	var (
		stats           roundStats
		samples, misses int
		batches         int
		heap            float64
		score           bool // score this round's results
	)
	// Traced, each ObserveEvalAll is split into its monitor and arith calls.
	evalUnary := func(xs []uint64) {
		start := time.Now()
		var miss int
		if bench == nil {
			udst, miss = u.ObserveEvalAll(udst, xs, &usc)
		} else {
			umon.ObserveAll(xs)
			bench.add(spanObserve, start)
			evalStart := time.Now()
			udst, miss = ueng.EvalBatchInto(udst, xs, &usc)
			bench.add(spanEval, evalStart)
		}
		lats = append(lats, time.Since(start))
		misses += miss
		for i := 0; score && i < len(xs); i += errSampleStride {
			uerrs = append(uerrs, errSample{x: xs[i], got: udst[i]})
		}
	}
	evalBinary := func(xs, ys []uint64) {
		var miss int
		if bench == nil {
			bdst, miss = b.ObserveEvalAll(bdst, xs, ys, &bsc)
		} else {
			start := time.Now()
			bmonX.ObserveAll(xs)
			bmonY.ObserveAll(ys)
			bench.add(spanObserve, start)
			evalStart := time.Now()
			bdst, miss = beng.EvalBatchInto(bdst, xs, ys, &bsc)
			bench.add(spanEval, evalStart)
		}
		misses += miss
		for i := 0; score && i < len(xs); i += errSampleStride {
			berrs = append(berrs, errSample{x: xs[i], y: ys[i], got: bdst[i]})
		}
	}

	var paused, pausedCPU time.Duration // spent reading the heap
	mem0, cpu0 := readMem(), cpuTime()
	start := time.Now()
	for round := 0; time.Since(start)-paused < opt.duration; round++ {
		in := pool[round%cdPoolRounds]
		score = round%cdErrEvery == 0
		for _, xs := range in.u {
			evalUnary(xs)
			samples += len(xs)
			batches++
		}
		for i := range in.bx {
			evalBinary(in.bx[i], in.by[i])
			samples += len(in.bx[i])
			batches++
		}
		ux, bx, by := in.u[len(in.u)-1], in.bx[len(in.bx)-1], in.by[len(in.by)-1]
		checkAgainstEval(r, udst, func(i int) (uint64, error) { return ueng.Eval(ux[i]) })
		checkAgainstEval(r, bdst, func(i int) (uint64, error) { return beng.Eval(bx[i], by[i]) })

		stepStart := time.Now()
		repU, err := u.Sync()
		if err != nil {
			return nil, err
		}
		if bench != nil {
			bench.add(spanUnarySync, stepStart)
		}
		binStart := time.Now()
		repB, err := b.Sync()
		if err != nil {
			return nil, err
		}
		if bench != nil {
			bench.add(spanBinarySync, binStart)
		}
		rounds = append(rounds, time.Since(stepStart))
		stats.add(repU)
		stats.add(repB)
		stats.n++
		if opt.fingerprints {
			r.fingerprints = append(r.fingerprints,
				ueng.Store().Fingerprint()+"/"+beng.Store().Fingerprint())
		}
		if round < cdHeapAtRound && (round+1)%cdHeapEvery == 0 {
			pauseStart, pauseCPU := time.Now(), cpuTime()
			heap += (liveHeapMiB() - heapBase) / (cdHeapAtRound / cdHeapEvery)
			paused += time.Since(pauseStart)
			pausedCPU += cpuTime() - pauseCPU
		}
	}
	wall := time.Since(start) - paused
	cpu := cpuTime() - cpu0 - pausedCPU
	mem1 := readMem()
	if len(rounds) < cdHeapAtRound { // a run too short for every reading
		heap = liveHeapMiB() - heapBase
	}
	runtime.KeepAlive(sys)
	runtime.KeepAlive(pool)

	r.attempted = batches + 2*len(rounds)
	r.e2e["samples_per_s"] = float64(samples) / wall.Seconds()
	r.counts["samples_per_s"] = samples
	fillLatency(r, "batch", lats, "us")
	fillLatency(r, "round", rounds, "ms")
	fillErrors(r, append(relErrorsUnary(arith.OpSquare, uerrs), relErrorsBinary(arith.OpMul, berrs)...))
	r.e2e["cpu_ns_per_sample"] = float64(cpu) / float64(samples)
	r.e2e["live_heap_mb"] = heap
	stats.fill(r)
	if stats.audits == 0 && stats.n > cdAuditEvery {
		r.problem("no periodic audit ran in %d rounds", stats.n)
	}
	r.layer["arith.misses"] = float64(misses)
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
		r.layer["core.binary_self_us"] = addDriverLayers(r, filter(spans, spanBinarySync), spans, "binary")
		r.layer["controlplane.round_mean_us"] = us(rounds.mean())
	}
	return r, nil
}
