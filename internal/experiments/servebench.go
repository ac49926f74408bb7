package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/faults"
	"github.com/ada-repro/ada/internal/serve"
	"github.com/ada-repro/ada/internal/stats"
)

// ServeBenchConfig parameterises the service-mode soak: two identical
// seeded workloads — phase-shifting operand distributions over churning
// tenants, with injected driver faults and a mid-soak crash/restart — run
// once under the drift-paced adaptive pacer (plus error SLO and rolling
// TCAM write budget) and once under the paper's fixed repopulation cadence,
// so the round counts, TCAM write totals, and error percentiles are
// directly comparable.
type ServeBenchConfig struct {
	// Width, MonitorEntries, CalcEntries shape each tenant system.
	Width          int
	MonitorEntries int
	CalcEntries    int
	// Tenants share one physical table; Shards is the ingest worker count.
	Tenants int
	Shards  int
	// Ticks is the soak length in pacer ticks; TickPeriod the simulated
	// clock step between them (the soak injects its own clock, so wall
	// time does not gate the run).
	Ticks      int
	TickPeriod time.Duration
	// BatchesPerTick batches of BatchSize operands stream into each
	// attached tenant every tick.
	BatchesPerTick int
	BatchSize      int
	// PhaseLen is the tick count between operand-distribution shifts —
	// the drift events the adaptive pacer must catch.
	PhaseLen int
	// DriftTrigger is the adaptive mode's TV-distance trigger.
	DriftTrigger float64
	// AdaptiveStaleTicks bounds the adaptive mode's staleness backstop;
	// FixedEveryTicks is the baseline's repopulation cadence.
	AdaptiveStaleTicks int
	FixedEveryTicks    int
	// ErrorSLO and WriteBudget/BudgetWindowTicks arm the adaptive mode's
	// SLO bypass and rolling TCAM write budget (the fixed baseline runs
	// without either, as the paper's repopulation loop does).
	ErrorSLO          float64
	WriteBudget       int
	BudgetWindowTicks int
	// ChurnEvery detaches one tenant every ChurnEvery ticks and reattaches
	// it half a churn period later (0 disables churn).
	ChurnEvery int
	// RestartAt crash-restarts tenant 0's journaled controller at that
	// tick (0 disables).
	RestartAt int
	// FaultSpec wraps every tenant driver in a seeded fault injector
	// (empty disables).
	FaultSpec string
	// AllocWindowBatches sizes the steady-state allocation probe: after
	// the soak, this many pure-ingest batches run between two
	// runtime.ReadMemStats readings.
	AllocWindowBatches int
	// LookupCacheEntries arms each tenant's data-plane scratch with a
	// hot-key lookup cache of this many slots (0 = uncached); the serve
	// registry then exports the ada_lookup_cache_* counters.
	LookupCacheEntries int
	// Seed drives the workload generator; both modes replay the same
	// stream.
	Seed int64
}

// DefaultServeBenchConfig is the committed BENCH_serve.json configuration.
func DefaultServeBenchConfig() ServeBenchConfig {
	return ServeBenchConfig{
		Width:              12,
		MonitorEntries:     12,
		CalcEntries:        48,
		Tenants:            6,
		Shards:             4,
		Ticks:              240,
		TickPeriod:         100 * time.Millisecond,
		BatchesPerTick:     4,
		BatchSize:          64,
		PhaseLen:           40,
		DriftTrigger:       0.15,
		AdaptiveStaleTicks: 60,
		FixedEveryTicks:    8,
		ErrorSLO:           0.05,
		WriteBudget:        600,
		BudgetWindowTicks:  20,
		ChurnEvery:         37,
		RestartAt:          125,
		FaultSpec:          "seed=11,write=0.02,latency=50us",
		AllocWindowBatches: 4096,
		LookupCacheEntries: 4096,
		Seed:               1,
	}
}

// ServeBenchMode is one soak's outcome.
type ServeBenchMode struct {
	Mode              string         `json:"mode"`
	Ticks             int            `json:"ticks"`
	Batches           uint64         `json:"batches"`
	Lookups           uint64         `json:"lookups"`
	Rounds            int            `json:"rounds"`
	RoundsByCause     map[string]int `json:"rounds_by_cause"`
	SuppressedSpacing int            `json:"suppressed_spacing"`
	SuppressedBudget  int            `json:"suppressed_budget"`
	TCAMWrites        int            `json:"tcam_writes"`
	// MaxWindowWrites is the largest TCAM write total inside any rolling
	// budget window of the soak, all causes included.
	MaxWindowWrites int `json:"max_window_writes"`
	// MeteredWindowWrites is the budget-compliance measurement: the
	// largest rolling-window total over only the writes the budget
	// actually governs — non-SLO rounds after the warm-up window (SLO
	// rounds bypass the budget by design, and first rounds are admitted
	// before any cost estimate exists).
	MeteredWindowWrites int     `json:"metered_window_writes"`
	ErrP50              float64 `json:"err_p50"`
	ErrP99              float64 `json:"err_p99"`
	// MaxRoundGapTicks is the longest any attached tenant went without a
	// round — the bounded-staleness measurement.
	MaxRoundGapTicks int  `json:"max_round_gap_ticks"`
	DegradedRounds   int  `json:"degraded_rounds"`
	Restarted        bool `json:"restarted"`
	ChurnCycles      int  `json:"churn_cycles"`
	// AllocsPerBatch is the steady-state ingest allocation rate measured
	// over the post-soak pure-ingest window.
	AllocsPerBatch float64 `json:"allocs_per_batch"`
	// The cache counters sum the ada_lookup_cache_* metrics across tenants
	// at soak end.
	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	CacheBypassed      uint64 `json:"cache_bypassed"`
	CacheInvalidations uint64 `json:"cache_invalidations"`
	// LeakedGoroutines is the post-Close goroutine delta against the
	// pre-soak baseline (after settling).
	LeakedGoroutines int `json:"leaked_goroutines"`
}

// ServeBenchResult pairs the two soaks.
type ServeBenchResult struct {
	Tenants  int            `json:"tenants"`
	Ticks    int            `json:"ticks"`
	Adaptive ServeBenchMode `json:"adaptive"`
	Fixed    ServeBenchMode `json:"fixed"`
	// WriteRatio is fixed TCAM writes over adaptive TCAM writes: above 1
	// means drift pacing saved switch writes.
	WriteRatio float64 `json:"write_ratio"`
}

// RunServeBench runs the adaptive and fixed-cadence soaks over identical
// streams and pairs the outcomes.
func RunServeBench(cfg ServeBenchConfig) (ServeBenchResult, error) {
	adaptive, err := runServeMode(cfg, true)
	if err != nil {
		return ServeBenchResult{}, fmt.Errorf("adaptive soak: %w", err)
	}
	fixed, err := runServeMode(cfg, false)
	if err != nil {
		return ServeBenchResult{}, fmt.Errorf("fixed soak: %w", err)
	}
	res := ServeBenchResult{
		Tenants:  cfg.Tenants,
		Ticks:    cfg.Ticks,
		Adaptive: adaptive,
		Fixed:    fixed,
	}
	if adaptive.TCAMWrites > 0 {
		res.WriteRatio = float64(fixed.TCAMWrites) / float64(adaptive.TCAMWrites)
	}
	return res, nil
}

// phasePeak returns the operand distribution's centre for a tick: it
// cycles through thirds of the domain, one move per phase.
func phasePeak(cfg ServeBenchConfig, tick int, max uint64) uint64 {
	phase := tick / cfg.PhaseLen
	switch phase % 3 {
	case 0:
		return max / 8
	case 1:
		return max / 2
	default:
		return max - max/8
	}
}

func runServeMode(cfg ServeBenchConfig, adaptive bool) (ServeBenchMode, error) {
	modeName := "fixed"
	if adaptive {
		modeName = "adaptive"
	}
	mode := ServeBenchMode{
		Mode:          modeName,
		Ticks:         cfg.Ticks,
		RoundsByCause: make(map[string]int),
	}
	baseGoroutines := runtime.NumGoroutine()

	reg, err := core.NewRegistry(core.SharedConfig{
		Name:         "servebench-" + modeName,
		TotalEntries: cfg.Tenants * cfg.CalcEntries,
	})
	if err != nil {
		return mode, err
	}
	var prof faults.Profile
	if cfg.FaultSpec != "" {
		if prof, err = faults.ParseProfile(cfg.FaultSpec); err != nil {
			return mode, err
		}
	}
	names := make([]string, cfg.Tenants)
	injectors := make([]*faults.Injector, cfg.Tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
		tcfg := core.DefaultConfig(cfg.Width)
		tcfg.MonitorEntries = cfg.MonitorEntries
		tcfg.CalcEntries = cfg.CalcEntries
		tcfg.LookupCacheEntries = cfg.LookupCacheEntries
		tcfg.EnableJournal = true // the mid-soak Restart needs a journal
		if cfg.FaultSpec != "" {
			p := prof
			p.Seed = prof.Seed + int64(i)*101
			inj, err := faults.New(p)
			if err != nil {
				return mode, err
			}
			injectors[i] = inj
			tcfg.WrapDriver = inj.Wrap
		}
		if _, err := reg.MountUnary(names[i], tcfg, arith.OpSquare); err != nil {
			return mode, err
		}
	}

	// The soak injects its own clock so MinRoundSpacing, staleness, and
	// the budget window all advance one TickPeriod per tick regardless of
	// how fast the host runs the loop.
	now := time.Unix(1_700_000_000, 0)
	scfg := serve.Config{
		Shards:          cfg.Shards,
		QueueDepth:      2 * cfg.Tenants * cfg.BatchesPerTick,
		MinRoundSpacing: cfg.TickPeriod,
		TickEvery:       cfg.TickPeriod,
		Now:             func() time.Time { return now },
	}
	if adaptive {
		scfg.Drift = serve.DriftConfig{Trigger: cfg.DriftTrigger}
		scfg.MaxRoundStaleness = time.Duration(cfg.AdaptiveStaleTicks) * cfg.TickPeriod
		scfg.ErrorSLO = cfg.ErrorSLO
		scfg.WriteBudget = cfg.WriteBudget
		scfg.WriteBudgetWindow = time.Duration(cfg.BudgetWindowTicks) * cfg.TickPeriod
	} else {
		// Trigger above 1 disarms drift entirely; the staleness backstop
		// then fires every FixedEveryTicks — the paper's fixed cadence.
		scfg.Drift = serve.DriftConfig{Trigger: 2}
		scfg.MaxRoundStaleness = time.Duration(cfg.FixedEveryTicks) * cfg.TickPeriod
	}
	srv, err := serve.NewServer(reg, scfg)
	if err != nil {
		return mode, err
	}
	defer srv.Close()
	attached := make(map[string]bool, cfg.Tenants)
	for _, name := range names {
		if err := srv.Attach(name); err != nil {
			return mode, err
		}
		attached[name] = true
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.Seed))
	max := uint64(1)<<uint(cfg.Width) - 1
	spread := max/16 + 1
	xs := make([]uint64, cfg.BatchSize)
	fill := func(peak uint64) {
		for j := range xs {
			d := int64(rng.Uint64()%spread) - int64(rng.Uint64()%spread)
			v := int64(peak) + d
			if v < 0 {
				v = 0
			}
			if v > int64(max) {
				v = int64(max)
			}
			xs[j] = uint64(v)
		}
	}

	lastRoundTick := make(map[string]int, cfg.Tenants)
	writesPerTick := make([]int, cfg.Ticks)
	meteredPerTick := make([]int, cfg.Ticks)
	var errSamples []float64
	churnTarget := -1
	for t := 0; t < cfg.Ticks; t++ {
		// Churn: detach one tenant, reattach it half a period later. The
		// same deterministic pattern runs in both modes, so the streams
		// stay comparable.
		if cfg.ChurnEvery > 0 && t > 0 {
			if t%cfg.ChurnEvery == 0 {
				churnTarget = (t / cfg.ChurnEvery) % cfg.Tenants
				if err := srv.Detach(names[churnTarget]); err != nil {
					return mode, err
				}
				attached[names[churnTarget]] = false
			}
			if t%cfg.ChurnEvery == cfg.ChurnEvery/2 && churnTarget >= 0 {
				if err := srv.Attach(names[churnTarget]); err != nil {
					return mode, err
				}
				attached[names[churnTarget]] = true
				lastRoundTick[names[churnTarget]] = t
				mode.ChurnCycles++
				churnTarget = -1
			}
		}
		if cfg.RestartAt > 0 && t == cfg.RestartAt {
			// The crash/restart is a maintenance-window recovery: the
			// injector is held off while the journal replays, then rearmed
			// for the rest of the soak.
			if injectors[0] != nil {
				injectors[0].SetArmed(false)
			}
			tn, _ := reg.Tenant(names[0])
			if _, err := tn.Unary().Restart(); err != nil {
				return mode, fmt.Errorf("tick %d restart: %w", t, err)
			}
			if injectors[0] != nil {
				injectors[0].SetArmed(true)
			}
			mode.Restarted = true
		}

		peak := phasePeak(cfg, t, max)
		for _, name := range names {
			if !attached[name] {
				continue
			}
			for b := 0; b < cfg.BatchesPerTick; b++ {
				fill(peak)
				if _, err := srv.Ingest(name, xs); err != nil {
					return mode, fmt.Errorf("tick %d ingest %s: %w", t, name, err)
				}
			}
		}
		if err := srv.Drain(ctx); err != nil {
			return mode, err
		}

		now = now.Add(cfg.TickPeriod)
		rep, err := srv.Tick(ctx)
		if err != nil {
			return mode, fmt.Errorf("tick %d: %w", t, err)
		}
		for name, cause := range rep.Rounds {
			mode.Rounds++
			mode.RoundsByCause[cause]++
			if gap := t - lastRoundTick[name]; gap > mode.MaxRoundGapTicks {
				mode.MaxRoundGapTicks = gap
			}
			lastRoundTick[name] = t
		}
		for _, reason := range rep.Suppressed {
			if reason == serve.SuppressBudget {
				mode.SuppressedBudget++
			} else {
				mode.SuppressedSpacing++
			}
		}
		for name, r := range rep.Reports {
			writesPerTick[t] += r.TCAMWrites
			if rep.Rounds[name] != serve.CauseSLO {
				meteredPerTick[t] += r.TCAMWrites
			}
			if r.Degraded {
				mode.DegradedRounds++
			}
		}
		snap := srv.Metrics().Snapshot()
		for _, name := range names {
			if attached[name] {
				errSamples = append(errSamples,
					snap[fmt.Sprintf(`ada_serve_error_estimate{tenant="%s"}`, name)])
			}
		}
	}
	// Close out the staleness measurement: a tenant still waiting at the
	// end has an open gap the max must include.
	for _, name := range names {
		if attached[name] {
			if gap := cfg.Ticks - 1 - lastRoundTick[name]; gap > mode.MaxRoundGapTicks {
				mode.MaxRoundGapTicks = gap
			}
		}
	}

	// Steady-state allocation probe: pure ingest, no control rounds, no
	// metric snapshots — the zero-allocation hot path claim under test.
	var live []string
	for _, name := range names {
		if attached[name] {
			live = append(live, name)
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for b := 0; b < cfg.AllocWindowBatches; b++ {
		fill(phasePeak(cfg, cfg.Ticks-1, max))
		if _, err := srv.Ingest(live[b%len(live)], xs); err != nil {
			return mode, err
		}
		if b%32 == 31 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	if err := srv.Drain(ctx); err != nil {
		return mode, err
	}
	runtime.ReadMemStats(&m1)
	mode.AllocsPerBatch = float64(m1.Mallocs-m0.Mallocs) / float64(cfg.AllocWindowBatches)

	snap := srv.Metrics().Snapshot()
	for _, name := range names {
		mode.Lookups += uint64(snap[fmt.Sprintf(`ada_serve_lookups_total{tenant="%s"}`, name)])
		mode.TCAMWrites += int(snap[fmt.Sprintf(`ada_serve_tcam_writes_total{tenant="%s"}`, name)])
		mode.CacheHits += uint64(snap[fmt.Sprintf(`ada_lookup_cache_hits_total{tenant="%s"}`, name)])
		mode.CacheMisses += uint64(snap[fmt.Sprintf(`ada_lookup_cache_misses_total{tenant="%s"}`, name)])
		mode.CacheBypassed += uint64(snap[fmt.Sprintf(`ada_lookup_cache_bypassed_total{tenant="%s"}`, name)])
		mode.CacheInvalidations += uint64(snap[fmt.Sprintf(`ada_lookup_cache_invalidations_total{tenant="%s"}`, name)])
	}
	mode.Batches = uint64(snap["ada_serve_batch_seconds_count"])
	mode.MaxWindowWrites = maxWindowSum(writesPerTick, cfg.BudgetWindowTicks)
	if warm := cfg.BudgetWindowTicks; warm < len(meteredPerTick) {
		mode.MeteredWindowWrites = maxWindowSum(meteredPerTick[warm:], cfg.BudgetWindowTicks)
	}
	mode.ErrP50 = percentile(errSamples, 0.50)
	mode.ErrP99 = percentile(errSamples, 0.99)

	srv.Close()
	mode.LeakedGoroutines = settleGoroutines(baseGoroutines)
	return mode, nil
}

// maxWindowSum is the largest sum over any window-length run of ticks.
func maxWindowSum(perTick []int, window int) int {
	if window <= 0 || window > len(perTick) {
		window = len(perTick)
	}
	sum := 0
	for i := 0; i < window; i++ {
		sum += perTick[i]
	}
	max := sum
	for i := window; i < len(perTick); i++ {
		sum += perTick[i] - perTick[i-window]
		if sum > max {
			max = sum
		}
	}
	return max
}

func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

// settleGoroutines waits for the post-Close goroutine count to fall back
// to the pre-soak baseline and returns the residue (0 when clean).
func settleGoroutines(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// RenderServeBench formats the paired soaks.
func RenderServeBench(res ServeBenchResult) string {
	t := stats.NewTable(
		fmt.Sprintf("Service-mode soak: drift-paced pacer vs fixed cadence (%d tenants, %d ticks, identical streams)",
			res.Tenants, res.Ticks),
		"mode", "rounds", "drift/slo/stale", "suppressed", "tcam writes", "max window",
		"err p50", "err p99", "max gap", "degraded", "allocs/batch", "leaked")
	for _, m := range []ServeBenchMode{res.Adaptive, res.Fixed} {
		t.AddF(m.Mode, m.Rounds,
			fmt.Sprintf("%d/%d/%d", m.RoundsByCause[serve.CauseDrift],
				m.RoundsByCause[serve.CauseSLO], m.RoundsByCause[serve.CauseStaleness]),
			m.SuppressedSpacing+m.SuppressedBudget,
			m.TCAMWrites, m.MaxWindowWrites,
			fmt.Sprintf("%.4f", m.ErrP50), fmt.Sprintf("%.4f", m.ErrP99),
			m.MaxRoundGapTicks, m.DegradedRounds,
			fmt.Sprintf("%.3f", m.AllocsPerBatch), m.LeakedGoroutines)
	}
	out := t.String()
	out += fmt.Sprintf("\nfixed cadence spent %.2fx the adaptive pacer's TCAM writes for err p99 %.4f vs %.4f\n",
		res.WriteRatio, res.Fixed.ErrP99, res.Adaptive.ErrP99)
	if tot := res.Adaptive.CacheHits + res.Adaptive.CacheMisses; tot > 0 {
		out += fmt.Sprintf("lookup cache: %.1f%% hit rate, %d lookups bypassed, %d invalidations (adaptive soak)\n",
			100*float64(res.Adaptive.CacheHits)/float64(tot), res.Adaptive.CacheBypassed, res.Adaptive.CacheInvalidations)
	}
	return out
}
