package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/serve"
)

// serve-mixed: a core.Registry with smUnary unary and smBinary binary tenants
// on adaserve's defaults behind a serve.Server with smShards shards. One
// generator goroutine offers an open-loop fixed batch rate; the pacer ticks
// on its own goroutine on a virtual clock, so drift rounds commit while the
// shards are looking up.
const (
	smWidth       = 16
	smCalcEntries = 64   // adaserve's -calc default
	smCache       = 4096 // adaserve's -lookup-cache default
	smBatch       = 64   // adaserve's -batch default
	smShards      = 2    // nproc of the reference machine
	// smQueueDepth replaces adaserve's -queue default of 64 batches per
	// shard: in open loop, a shard stalled for 30 ms by the host or the
	// collector sheds at 64, and the workload must not fail.
	smQueueDepth = 512
	// The offered load is adaserve's -rate default, 200 batches per tenant
	// per second of service time, paced by its -tick default of 100 ms.
	// The run compresses service time 2.5-fold: the pacer ticks every
	// smTickWall of wall time and advances the virtual clock by
	// smTickVirtual, and the generator offers smRate = 8 tenants · 200 ·
	// 2.5 batches per second of wall time. Each tick thus sees the 20
	// batches per tenant an adaserve tick sees, and pacing that spans over
	// a minute of service time fits in one run.
	smTickVirtual = 100 * time.Millisecond
	smTickWall    = smTickVirtual * 2 / 5
	smRate        = 4000
	smBurst       = 4 * time.Millisecond
	// smBurstBatches = smRate · smBurst.
	smBurstBatches = 16
	// smPollPause is the sleep between two polls for a burst's completion.
	smPollPause = 20 * time.Microsecond
	// smWindowBursts is the length of the alternating quiet and probe
	// windows (see runServe): half a second.
	smWindowBursts = 125
	// Each tenant's operand peak moves every smPhaseBatches of its batches,
	// cycling through smPhases positions; tenants move at staggered times.
	smPhaseBatches = 512
	smPhases       = 8
	smScoreEvery   = 16
)

type smTenant struct {
	name   string
	unary  arith.UnaryOp
	binary arith.BinaryOp
	// pool[phase][i] are the phase's batches; ys only for binary tenants.
	xs, ys [][][]uint64
}

// smOps are the tenants' operations. recip and div are left out: on these
// operands their exact results are small integers, so relative errors come
// in steps of 1/2 and 1, and err_p99 would jump between them.
var smOps = []struct {
	unary  arith.UnaryOp
	binary arith.BinaryOp
}{
	{unary: arith.OpSquare}, {unary: arith.OpSqrt}, {unary: arith.OpDouble},
	{unary: arith.OpLog2}, {unary: arith.OpSquare}, {unary: arith.OpSqrt},
	{binary: arith.OpMul}, {binary: arith.OpMul},
}

// smPeak places tenant t's triangular peak for phase p inside [3/16, 13/16]
// of the domain, so the ±1/8 spread (a quarter of the domain) stays clear of
// zero divisors.
func smPeak(t, p int, salt float64, max uint64) uint64 {
	f := float64(t)*0.29 + float64(p)*0.375 + salt
	f -= float64(int(f))
	return uint64((0.1875 + 0.625*f) * float64(max))
}

func smInputs(seed int64) []*smTenant {
	rng := rand.New(rand.NewSource(seed))
	max := uint64(1)<<smWidth - 1
	gen := func(peak uint64) []uint64 {
		b := make([]uint64, smBatch)
		for i := range b {
			b[i] = triangular(rng, peak, max/8, max)
		}
		return b
	}
	ts := make([]*smTenant, len(smOps))
	for t, op := range smOps {
		tn := &smTenant{name: fmt.Sprintf("t%02d", t), unary: op.unary, binary: op.binary,
			xs: make([][][]uint64, smPhases), ys: make([][][]uint64, smPhases)}
		for p := 0; p < smPhases; p++ {
			for i := 0; i < smPhaseBatches; i++ {
				tn.xs[p] = append(tn.xs[p], gen(smPeak(t, p, 0, max)))
				if op.binary != 0 {
					tn.ys[p] = append(tn.ys[p], gen(smPeak(t, p, 0.5, max)))
				}
			}
		}
		ts[t] = tn
	}
	return ts
}

func smProps(ts []*smTenant) inputProps {
	var p inputProps
	for _, t := range ts {
		var all [][]uint64
		var phases [][]uint64
		for _, ph := range t.xs {
			all = append(all, ph...)
			var flat []uint64
			for _, b := range ph {
				flat = append(flat, b...)
			}
			phases = append(phases, flat)
		}
		p.UniqueRatio += uniqueRatio(all)
		p.HotShare += hotShare(all, smCache)
		p.RoundTV += meanRoundTV(phases, smWidth)
	}
	n := float64(len(ts))
	p.UniqueRatio /= n
	p.HotShare /= n
	p.RoundTV /= n
	return p
}

// smServer is one built service: registry, server and the virtual clock.
type smServer struct {
	reg  *core.Registry
	srv  *serve.Server
	vnow *atomic.Int64
}

func smBuild(ts []*smTenant, tr *tracer) (*smServer, error) {
	reg, err := core.NewRegistry(core.SharedConfig{Name: "perfbench", TotalEntries: len(ts) * smCalcEntries})
	if err != nil {
		return nil, err
	}
	for _, t := range ts {
		cfg := core.DefaultConfig(smWidth)
		cfg.CalcEntries = smCalcEntries
		cfg.LookupCacheEntries = smCache
		if tr != nil {
			cfg.WrapDriver = tr.wrapDriver(t.name)
		}
		if t.binary != 0 {
			_, err = reg.MountBinary(t.name, cfg, t.binary)
		} else {
			_, err = reg.MountUnary(t.name, cfg, t.unary)
		}
		if err != nil {
			return nil, err
		}
	}
	var cluster serve.Cluster = reg
	if tr != nil {
		cluster = &timedCluster{inner: reg, log: tr.log("cluster")}
	}
	vnow := new(atomic.Int64)
	base := time.Unix(1_700_000_000, 0)
	srv, err := serve.NewServer(cluster, serve.Config{
		Shards:     smShards,
		QueueDepth: smQueueDepth,
		Now:        func() time.Time { return base.Add(time.Duration(vnow.Load())) },
	})
	if err != nil {
		return nil, err
	}
	for _, t := range ts {
		if err := srv.Attach(t.name); err != nil {
			srv.Close()
			return nil, err
		}
		// The first batch is evaluated directly through the tenant's
		// system, which compiles its lookup indexes; going through a shard
		// would also time the wake-up of an idle thread.
		tn, _ := reg.Tenant(t.name)
		var sc arith.Scratch
		if t.binary != 0 {
			tn.Binary().ObserveEvalAll(nil, t.xs[0][0], t.ys[0][0], &sc)
		} else {
			tn.Unary().ObserveEvalAll(nil, t.xs[0][0], &sc)
		}
	}
	return &smServer{reg: reg, srv: srv, vnow: vnow}, nil
}

func runServe(opt options) (*runResult, error) {
	r := newResult()
	ts := smInputs(opt.seed)
	r.inputs = smProps(ts)
	goroutines := runtime.NumGoroutine()
	s, err := setupTimer(r, opt.setups, func() (*smServer, error) { return smBuild(ts, opt.tr) },
		func(s *smServer) { s.srv.Close() })
	if err != nil {
		return nil, err
	}
	srv := s.srv
	counters := make([]*serve.Counter, len(ts))
	accepted := make([]uint64, len(ts))
	handles := make([]*core.Tenant, len(ts))
	for i, t := range ts {
		counters[i] = s.srv.Metrics().Counter("ada_serve_batches_total", "Ingest batches processed.", "tenant", t.name)
		handles[i], _ = s.reg.Tenant(t.name)
	}
	depth := make([]*serve.Gauge, smShards)
	for i := range depth {
		depth[i] = srv.Metrics().Gauge("ada_serve_queue_depth", "Batches queued per ingest shard.", "shard", fmt.Sprint(i))
	}
	var genLog, pacerLog *spanLog
	if opt.tr != nil {
		genLog, pacerLog = opt.tr.log("generator"), opt.tr.log("pacer")
	}

	// Pacer: one Tick per smTickWall, the virtual clock advancing
	// smTickVirtual per tick.
	var (
		roundTicks, idleTicks durations
		stats                 roundStats
		tickErrs              []error
		maxDepth              float64
	)
	stop := make(chan struct{})
	var pacer sync.WaitGroup
	pacer.Add(1)
	go func() {
		defer pacer.Done()
		tick := time.NewTicker(smTickWall)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			s.vnow.Add(int64(smTickVirtual))
			start := time.Now()
			rep, err := srv.Tick(context.Background())
			d := time.Since(start)
			if pacerLog != nil {
				pacerLog.add(spanTick, start)
			}
			if err != nil {
				tickErrs = append(tickErrs, err)
				continue
			}
			if len(rep.Reports) == 0 {
				idleTicks = append(idleTicks, d)
			} else {
				roundTicks = append(roundTicks, d)
			}
			for _, sr := range rep.Reports {
				stats.add(sr)
				stats.n++
			}
			for _, g := range depth {
				maxDepth = max(maxDepth, g.Value())
			}
		}
	}()

	// Generator: the offered load is smRate batches per second, sent as one
	// burst of smBurstBatches every smBurst (Go's timers wake no sooner than
	// about a millisecond on small machines, so finer pacing would measure
	// the timer). Burst j is due at start + j·smBurst; how late each burst was
	// sent against its due time is reported separately.
	//
	// The run alternates quiet and probe windows of smWindowBursts bursts,
	// starting quiet. In a quiet window the generator only sends and
	// sleeps: the process CPU of the quiet windows over the samples they
	// offered is cpu_ns_per_sample. In a probe window the generator also
	// waits for each burst to complete, polling the per-tenant
	// processed-batch counters, and times each batch from its Ingest call
	// (bursts leave up to a timer tick after they are due, which would
	// swamp the latencies; serve.gen_late_p99_us reports it); it also
	// scores the live population's error there. Polling costs CPU and may
	// slow the shards, so only probe windows time batches and only quiet
	// windows count CPU; serve.probe_service_shift_pct compares the shards'
	// mean service time per batch in the two.
	const quiet, probe = 0, 1
	var (
		lats          = make(durations, 0, int(opt.duration/smBurst)*smBurstBatches/2+smBurstBatches)
		late          = make(durations, 0, int(opt.duration/smBurst)+1)
		pending       = make([]smPending, 0, smBurstBatches)
		uErrs         = map[arith.UnaryOp][]errSample{}
		bErrs         = map[arith.BinaryOp][]errSample{}
		shed, ingErrs int
		sent          int
		probeTimeouts int
		win           [2]struct {
			cpu     time.Duration
			samples int
			svc     float64 // shard service seconds
			svcN    uint64  // batches serviced
		}
		winCPU  time.Duration
		winSvc  float64
		winSvcN uint64
	)
	svcHist := srv.Metrics().Histogram("ada_serve_batch_seconds", "Ingest batch processing latency.")
	closeWindow := func(kind int) {
		cpu, svc, n := cpuTime(), svcHist.Sum(), svcHist.Count()
		win[kind].cpu += cpu - winCPU
		win[kind].svc += svc - winSvc
		win[kind].svcN += n - winSvcN
		winCPU, winSvc, winSvcN = cpu, svc, n
	}
	mem0 := readMem()
	winCPU, winSvc, winSvcN = cpuTime(), svcHist.Sum(), svcHist.Count()
	start := time.Now()
	deadline := start.Add(opt.duration)
	j := 0
	for ; ; j++ {
		due := start.Add(time.Duration(j) * smBurst)
		if !due.Before(deadline) {
			break
		}
		kind := (j / smWindowBursts) % 2
		if j > 0 && j%smWindowBursts == 0 {
			closeWindow(1 - kind)
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sendStart := time.Now()
		late = append(late, sendStart.Sub(due))
		for b := 0; b < smBurstBatches; b++ {
			i := j*smBurstBatches + b
			ti := i % len(ts)
			t := ts[ti]
			seq := i/len(ts) + ti*smPhaseBatches/len(ts)
			phase := (seq / smPhaseBatches) % smPhases
			k := seq % smPhaseBatches
			xs := t.xs[phase][k]
			ingStart := time.Now()
			var ok bool
			var err error
			if t.binary != 0 {
				ok, err = srv.IngestPairs(t.name, xs, t.ys[phase][k])
			} else {
				ok, err = srv.Ingest(t.name, xs)
			}
			if genLog != nil {
				genLog.add(spanIngest, ingStart)
			}
			sent++
			switch {
			case err != nil:
				ingErrs++
				r.problem("ingest %s: %v", t.name, err)
			case !ok:
				shed++
			default:
				accepted[ti]++
				win[kind].samples += smBatch
				if kind == probe {
					pending = append(pending, smPending{counters[ti], accepted[ti], ingStart})
				}
			}
			// Score the live population on this phase's traffic every
			// smScoreEvery batches through the phase's second half, once
			// it has had rounds to adapt.
			if kind == probe && k >= smPhaseBatches/2 && k%smScoreEvery == 0 {
				if t.binary != 0 {
					got, _ := handles[ti].Binary().Engine().EvalBatch(xs, t.ys[phase][k])
					for n := range xs {
						bErrs[t.binary] = append(bErrs[t.binary], errSample{x: xs[n], y: t.ys[phase][k][n], got: got[n]})
					}
				} else {
					got, _ := handles[ti].Unary().Engine().EvalBatch(xs)
					for n := range xs {
						uErrs[t.unary] = append(uErrs[t.unary], errSample{x: xs[n], got: got[n]})
					}
				}
			}
		}
		if kind == probe {
			var timedOut bool
			lats, pending, timedOut = awaitBurst(lats, pending, time.Second)
			if timedOut {
				probeTimeouts++
			}
		}
	}
	closeWindow((max(j, 1) - 1) / smWindowBursts % 2)
	wall := time.Since(start)
	mem1 := readMem()
	close(stop)
	pacer.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		r.problem("drain: %v", err)
	}
	snap := srv.Metrics().Snapshot()
	r.e2e["live_heap_mb"] = heapDelta(func() {
		srv.Close()
		s, srv, handles, counters, depth, svcHist = nil, nil, nil, nil, nil, nil
	})
	if !goroutinesBackTo(goroutines, time.Second) {
		r.problem("goroutines leaked after Server.Close: %d > %d", runtime.NumGoroutine(), goroutines)
	}

	var processed uint64
	for i := range ts {
		processed += accepted[i]
	}
	samples := float64(processed) * smBatch
	r.attempted = sent + len(roundTicks) + len(idleTicks)
	r.failed = shed + ingErrs + len(tickErrs) + probeTimeouts
	for _, err := range tickErrs {
		r.problem("tick: %v", err)
	}
	if shed > 0 {
		r.problem("%d batches shed", shed)
	}
	if probeTimeouts > 0 {
		r.problem("%d bursts did not complete within 1s", probeTimeouts)
	}
	r.e2e["samples_per_s"] = samples / wall.Seconds()
	r.counts["samples_per_s"] = int(samples)
	fillLatency(r, "batch", lats, "us")
	fillLatency(r, "round", roundTicks, "ms")
	var scored []float64
	for op, ss := range uErrs {
		scored = append(scored, relErrorsUnary(op, ss)...)
	}
	for op, ss := range bErrs {
		scored = append(scored, relErrorsBinary(op, ss)...)
	}
	fillErrors(r, scored)
	r.e2e["cpu_ns_per_sample"] = float64(win[quiet].cpu) / float64(win[quiet].samples)
	r.counts["cpu_ns_per_sample"] = win[quiet].samples
	if win[quiet].svcN > 0 && win[probe].svcN > 0 {
		q := win[quiet].svc / float64(win[quiet].svcN)
		p := win[probe].svc / float64(win[probe].svcN)
		r.layer["serve.probe_service_shift_pct"] = 100 * (p - q) / q
	}
	stats.fill(r)

	misses := sumSeries(snap, "ada_serve_misses_total{", "")
	if misses > 0 {
		r.failed += int(misses)
		r.problem("%v calculation misses", misses)
	}
	r.layer["arith.misses"] = misses
	r.layer["runtime.allocs_per_batch"] = float64(mem1.mallocs-mem0.mallocs) / float64(sent)
	r.layer["runtime.gc_pause_ms"] = float64(mem1.pauseNs-mem0.pauseNs) / 1e6
	r.layer["serve.tick_idle_us"] = us(idleTicks.mean())
	r.layer["serve.shed_ratio"] = float64(shed) / float64(sent)
	r.layer["serve.queue_depth_max"] = maxDepth
	hits := sumSeries(snap, "ada_lookup_cache_hits_total{", "")
	if all := hits + sumSeries(snap, "ada_lookup_cache_misses_total{", ""); all > 0 {
		r.layer["serve.cache_hit_ratio"] = hits / all
	}
	for _, cause := range []string{serve.CauseDrift, serve.CauseSLO, serve.CauseStaleness} {
		r.layer["serve.rounds_"+cause] = sumSeries(snap, "ada_serve_rounds_total{", `cause="`+cause+`"`)
	}
	r.layer["serve.rounds_suppressed"] = sumSeries(snap, "ada_serve_rounds_suppressed_total{", "")
	r.layer["serve.gen_late_p99_us"] = us(late.quantile(0.99))
	r.counts["serve.gen_late_p99_us"] = len(late)
	if opt.tr != nil {
		smLayers(r, opt.tr.all())
	}
	return r, nil
}

// smLayers derives the serve per-layer metrics from the traced pass's spans.
func smLayers(r *runResult, spans []span) {
	r.layer["serve.ingest_ns"] = float64(meanDur(filter(spans, spanIngest)))
	syncs := filter(spans, spanSyncTenant)
	r.layer["serve.sync_ms"] = ms(meanDur(syncs))
	drv := driverOnly(spans)
	var tickSelf, fanout, tenantSelf time.Duration
	var syncingTicks, tenantRounds int
	for _, tick := range filter(spans, spanTick) {
		inner := within(syncs, tick, "")
		if len(inner) == 0 {
			continue
		}
		syncingTicks++
		tickSelf += selfTime(tick, inner)
	}
	kinds := map[string]time.Duration{}
	for _, sy := range syncs {
		// Each tenant's round spans its first to last driver call; the
		// sync's self time against those rounds is the fan-out and arbiter
		// work (plus binary tenants' joint populate after their last call).
		byTenant := map[string][]span{}
		for _, d := range within(drv, sy, "") {
			byTenant[d.owner] = append(byTenant[d.owner], d)
			kinds[d.name] += d.dur()
		}
		var extents []span
		for _, name := range sortedKeys(byTenant) {
			ds := byTenant[name]
			ext := span{name: "tenant_round", owner: name, start: ds[0].start, end: ds[0].end}
			for _, d := range ds {
				ext.start = min(ext.start, d.start)
				ext.end = max(ext.end, d.end)
			}
			extents = append(extents, ext)
			tenantSelf += selfTime(ext, ds)
			tenantRounds++
		}
		fanout += selfTime(sy, extents)
	}
	if syncingTicks > 0 {
		r.layer["serve.tick_self_us"] = us(tickSelf) / float64(syncingTicks)
	}
	if n := float64(len(syncs)); n > 0 {
		r.layer["core.sync_fanout_us"] = us(fanout) / n
		for _, name := range driverSpans {
			r.layer[name+"_us"] = us(kinds[name]) / n
		}
		r.layer["controlplane.round_mean_us"] = us(sumDur(syncs)) / n
	}
	if tenantRounds > 0 {
		r.layer["controlplane.self_us"] = us(tenantSelf) / float64(tenantRounds)
	}
}

// smPending is one sent batch awaiting completion: done when its tenant's
// processed-batch counter reaches target.
type smPending struct {
	counter *serve.Counter
	target  uint64
	sent    time.Time
}

// awaitBurst polls until every pending batch has completed, appending each
// one's latency as it is seen; it gives up after timeout. It returns the
// latencies and the emptied pending buffer. Between passes it sleeps for
// smPollPause in the kernel: Go's own timers round a sleep up to the next
// millisecond on small machines, and spinning would take the CPU (on a
// shared core, half of it) from the shards it times.
func awaitBurst(lats durations, pending []smPending, timeout time.Duration) (durations, []smPending, bool) {
	pollPause := syscall.NsecToTimespec(int64(smPollPause))
	limit := time.Now().Add(timeout)
	for len(pending) > 0 {
		now := time.Now()
		if now.After(limit) {
			return lats, pending[:0], true
		}
		left := pending[:0]
		for _, p := range pending {
			if p.counter.Value() >= p.target {
				lats = append(lats, now.Sub(p.sent))
			} else {
				left = append(left, p)
			}
		}
		pending = left
		if len(pending) > 0 {
			syscall.Nanosleep(&pollPause, nil)
		}
	}
	return lats, pending, false
}

// goroutinesBackTo waits until the goroutine count drops to n.
func goroutinesBackTo(n int, timeout time.Duration) bool {
	limit := time.Now().Add(timeout)
	for runtime.NumGoroutine() > n {
		if time.Now().After(limit) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// sumSeries adds every snapshot series whose key starts with prefix and
// contains label.
func sumSeries(snap map[string]float64, prefix, label string) float64 {
	var s float64
	for k, v := range snap {
		if strings.HasPrefix(k, prefix) && strings.Contains(k, label) {
			s += v
		}
	}
	return s
}
