// Package serve is ADA's long-running service mode: a daemon loop that
// keeps accepting data-plane traffic while pacing control rounds by
// observed need instead of a fixed cadence.
//
// Ingest is sharded: every attached tenant is pinned to one worker shard,
// batches enqueue on a bounded per-shard queue, and the shard goroutine
// drives the system's batched hot path (ObserveEvalAll) with reused
// buffers, so steady-state ingest is allocation-free. Enqueue never blocks
// — a full queue sheds the batch and counts the drop, and a sustained drop
// ratio flips the server into degraded mode (visible on /healthz) until
// the backlog clears.
//
// The pacer (Tick) snapshots each tenant's hit registers, scores drift
// against the histogram the last committed round consumed
// (monitor.HitDistance through a Schmitt trigger), estimates the tenant's
// live relative error from the monitoring trie's leaves weighted by that
// same histogram, and decides which tenants get a control round this tick.
// Round triggers are ordered slo > drift > staleness; a minimum round
// spacing hard-suppresses, and a rolling TCAM write budget suppresses
// everything except SLO violations (the budget's reserve case). Triggered
// tenants sync through one Cluster.SyncTenants call — the externally-paced
// seam core.Registry and fabric.Fabric both implement.
//
// Every decision is counted in a Prometheus-style metrics registry served
// over HTTP (/metrics, /healthz) and available programmatically via
// Snapshot.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/tcam"
)

var (
	// ErrUnknownTenant reports ingest or attach against a tenant name the
	// server (or its cluster) does not know.
	ErrUnknownTenant = errors.New("serve: unknown tenant")
	// ErrAttached reports a second Attach of the same tenant.
	ErrAttached = errors.New("serve: tenant already attached")
	// ErrClosed reports use of a closed server.
	ErrClosed = errors.New("serve: server closed")
	// ErrArity reports unary ingest into a binary tenant or vice versa.
	ErrArity = errors.New("serve: operand arity mismatch")
)

// Round-trigger causes and suppression reasons (metric label values).
const (
	CauseDrift     = "drift"
	CauseSLO       = "slo"
	CauseStaleness = "staleness"

	SuppressSpacing = "spacing"
	SuppressBudget  = "budget"
)

// Cluster is the control-plane seam the server paces: a named-subset sync
// plus tenant lookup. core.Registry implements it directly and
// fabric.Fabric implements it switch-by-switch, so one server fronts
// either a single shared table or a whole fabric.
type Cluster interface {
	SyncTenants(ctx context.Context, names []string) (map[string]core.SyncReport, error)
	FindTenant(name string) (*core.Tenant, bool)
}

var _ Cluster = (*core.Registry)(nil)

// Config parameterises a Server. Zero fields take the stated defaults.
type Config struct {
	// Shards is the ingest worker count (default 4). Each attached tenant
	// is pinned to one shard, so a tenant's batches observe in order.
	Shards int
	// QueueDepth is the per-shard bounded queue length in batches
	// (default 64). A full queue sheds instead of blocking the caller.
	QueueDepth int
	// Drift tunes the per-tenant drift detectors.
	Drift DriftConfig
	// MinRoundSpacing is the hard floor between two control rounds of one
	// tenant (default 100ms). It outranks every trigger cause.
	MinRoundSpacing time.Duration
	// MaxRoundStaleness bounds how long a quiet tenant goes without a
	// round (default 10s; negative disables). With the drift trigger
	// disarmed (Trigger > 1) this degenerates to the paper's fixed
	// cadence — the baseline the soak benchmark compares against.
	MaxRoundStaleness time.Duration
	// ErrorSLO is the per-tenant mean relative error objective (0
	// disables). A tenant whose live error estimate exceeds it triggers a
	// round regardless of drift, and bypasses the write budget.
	ErrorSLO float64
	// WriteBudget caps TCAM row writes inside each WriteBudgetWindow (0 =
	// unlimited). Non-SLO rounds whose estimated cost does not fit the
	// window's remainder are suppressed until budget frees up.
	WriteBudget int
	// WriteBudgetWindow is the rolling budget window (default 10s).
	WriteBudgetWindow time.Duration
	// TickEvery is Run's pacer period (default 100ms).
	TickEvery time.Duration
	// DegradeAt is the per-tick ingest drop ratio that enters degraded
	// mode, RecoverAt the ratio that leaves it (defaults 0.5 and 0.05 —
	// the gap is flap hysteresis).
	DegradeAt, RecoverAt float64
	// Metrics receives the server's instruments (default: a fresh
	// registry). Share one to co-host several servers on one /metrics.
	Metrics *Registry
	// Now is the pacer's clock (default time.Now; tests inject one).
	Now func() time.Time
}

func (c *Config) normalise() error {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Shards < 1 {
		return fmt.Errorf("serve: shards %d", c.Shards)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("serve: queue depth %d", c.QueueDepth)
	}
	if err := c.Drift.normalise(); err != nil {
		return err
	}
	if c.MinRoundSpacing == 0 {
		c.MinRoundSpacing = 100 * time.Millisecond
	}
	if c.MaxRoundStaleness == 0 {
		c.MaxRoundStaleness = 10 * time.Second
	}
	if c.ErrorSLO < 0 {
		return fmt.Errorf("serve: error SLO %v", c.ErrorSLO)
	}
	if c.WriteBudget < 0 {
		return fmt.Errorf("serve: write budget %d", c.WriteBudget)
	}
	if c.WriteBudgetWindow == 0 {
		c.WriteBudgetWindow = 10 * time.Second
	}
	if c.TickEvery == 0 {
		c.TickEvery = 100 * time.Millisecond
	}
	if c.DegradeAt == 0 {
		c.DegradeAt = 0.5
	}
	if c.RecoverAt == 0 {
		c.RecoverAt = 0.05
	}
	if c.DegradeAt <= 0 || c.DegradeAt > 1 || c.RecoverAt < 0 || c.RecoverAt > c.DegradeAt {
		return fmt.Errorf("serve: degrade/recover thresholds %v/%v", c.DegradeAt, c.RecoverAt)
	}
	if c.Metrics == nil {
		c.Metrics = NewRegistry()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return nil
}

// batch is one pooled unit of ingest work.
type batch struct {
	ts *tenantState
	xs []uint64
	ys []uint64
}

// shard is one pinned ingest worker: a bounded queue plus enqueue/dequeue
// accounting (Drain waits for the two counters to meet).
type shard struct {
	ch        chan *batch
	enqueued  atomic.Uint64
	processed atomic.Uint64
	gDepth    *Gauge
}

// tenantState is the server's per-tenant record. The atomic-counter
// fields are shared with the shard workers; everything else is owned by
// the pacer (under the server's mu).
type tenantState struct {
	name   string
	tn     *core.Tenant
	binary bool
	shard  *shard

	det       *Detector
	snap      []uint64 // register snapshot; binary: X bins then Y bins
	snapY     []uint64 // Y-side scratch (binary only)
	nx        int      // X-bin count inside snap (binary only)
	lastRound time.Time
	errEst    float64
	costEWMA  float64 // smoothed TCAM writes per round (budget admission)

	// sc is the tenant's evaluation scratch. It lives on the tenant, not
	// the shard worker, because it may carry a hot-key lookup cache bound
	// to this tenant's calculation store (core.Config.LookupCacheEntries);
	// a tenant is pinned to exactly one shard goroutine, so only that
	// worker ever touches it. cacheSeen is the last cache-stat snapshot
	// pushed to the counters (delta accounting after each batch).
	sc        arith.Scratch
	cacheSeen tcam.CacheStats

	cBatches, cLookups, cMisses, cDropped *Counter
	cWrites, cDegradedRounds              *Counter
	cCacheHits, cCacheMisses, cCacheInv   *Counter
	cCacheBypassed                        *Counter
	gErr, gDist                           *Gauge
	cRounds, cSuppressed                  map[string]*Counter
	cAudit                                map[string]*Counter
}

// Server is the service-mode front end. Ingest* methods are safe for
// arbitrary concurrent use; Attach/Detach/Tick/Run/Close serialise on the
// server's internal lock.
type Server struct {
	cfg     Config
	cluster Cluster
	metrics *Registry

	mu        sync.Mutex // pacer + attach/detach state
	tenants   atomic.Pointer[map[string]*tenantState]
	shards    []*shard
	nextShard int
	window    writeWindow

	pool   sync.Pool
	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup

	degraded    atomic.Bool
	winAccepted atomic.Uint64
	winDropped  atomic.Uint64

	hBatch              *Histogram
	gDegraded, gTenants *Gauge
	gBudgetRemaining    *Gauge
	cTicks              *Counter
	cDroppedUnknown     *Counter
}

// NewServer builds a server over cluster and starts its ingest shards.
func NewServer(cluster Cluster, cfg Config) (*Server, error) {
	if cluster == nil {
		return nil, errors.New("serve: nil cluster")
	}
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		cluster: cluster,
		metrics: cfg.Metrics,
		window:  writeWindow{limit: cfg.WriteBudget, span: cfg.WriteBudgetWindow},
		done:    make(chan struct{}),
	}
	s.pool.New = func() any { return &batch{} }
	empty := make(map[string]*tenantState)
	s.tenants.Store(&empty)

	m := s.metrics
	s.hBatch = m.Histogram("ada_serve_batch_seconds", "Ingest batch processing latency.")
	s.gDegraded = m.Gauge("ada_serve_degraded", "1 while ingest is shedding in degraded mode.")
	s.gTenants = m.Gauge("ada_serve_tenants", "Attached tenants.")
	s.gBudgetRemaining = m.Gauge("ada_serve_write_budget_remaining", "TCAM writes left in the rolling budget window (-1 = unlimited.)")
	s.cTicks = m.Counter("ada_serve_ticks_total", "Pacer evaluations.")
	s.cDroppedUnknown = m.Counter("ada_serve_unknown_tenant_total", "Ingest calls naming no attached tenant.")
	if cfg.WriteBudget == 0 {
		s.gBudgetRemaining.Set(-1)
	} else {
		s.gBudgetRemaining.Set(float64(cfg.WriteBudget))
	}

	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sh := &shard{
			ch:     make(chan *batch, cfg.QueueDepth),
			gDepth: m.Gauge("ada_serve_queue_depth", "Batches queued per ingest shard.", "shard", fmt.Sprint(i)),
		}
		s.shards[i] = sh
		s.wg.Add(1)
		go s.worker(sh)
	}
	return s, nil
}

// Metrics exposes the server's registry (for HTTP mounting or snapshots).
func (s *Server) Metrics() *Registry { return s.metrics }

// Degraded reports whether ingest is currently in degraded (shedding)
// mode. Safe for concurrent use; /healthz serves 503 while it is set.
func (s *Server) Degraded() bool { return s.degraded.Load() }

// Attach registers a cluster tenant for ingest and pacing, pinning it to
// the next shard round-robin. The tenant starts with no drift baseline and
// a zero last-round time, so its first round fires as soon as the pacer
// sees enough samples (or immediately on staleness).
func (s *Server) Attach(name string) error {
	if s.closed.Load() {
		return ErrClosed
	}
	tn, ok := s.cluster.FindTenant(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	det, err := NewDetector(s.cfg.Drift)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.tenants.Load()
	if _, ok := old[name]; ok {
		return fmt.Errorf("%w: %q", ErrAttached, name)
	}
	m := s.metrics
	ts := &tenantState{
		name:     name,
		tn:       tn,
		binary:   tn.Binary() != nil,
		shard:    s.shards[s.nextShard%len(s.shards)],
		det:      det,
		cBatches: m.Counter("ada_serve_batches_total", "Ingest batches processed.", "tenant", name),
		cLookups: m.Counter("ada_serve_lookups_total", "Data-plane lookups served.", "tenant", name),
		cMisses:  m.Counter("ada_serve_misses_total", "Lookups that missed the calculation table.", "tenant", name),
		cDropped: m.Counter("ada_serve_dropped_batches_total", "Ingest batches shed by admission control.", "tenant", name),
		cWrites:  m.Counter("ada_serve_tcam_writes_total", "TCAM row writes issued by control rounds.", "tenant", name),
		cCacheHits: m.Counter("ada_lookup_cache_hits_total",
			"Calculation lookups served from the hot-key result cache.", "tenant", name),
		cCacheMisses: m.Counter("ada_lookup_cache_misses_total",
			"Calculation lookups forwarded to the TCAM search.", "tenant", name),
		cCacheInv: m.Counter("ada_lookup_cache_invalidations_total",
			"Wholesale cache resets on snapshot-generation changes.", "tenant", name),
		cCacheBypassed: m.Counter("ada_lookup_cache_bypassed_total",
			"Calculation lookups forwarded unprobed while the cache stood aside.", "tenant", name),
		cDegradedRounds: m.Counter("ada_serve_degraded_rounds_total",
			"Control rounds that came back degraded.", "tenant", name),
		gErr:  m.Gauge("ada_serve_error_estimate", "Live mean relative error estimate.", "tenant", name),
		gDist: m.Gauge("ada_serve_drift_distance", "Hit-distribution drift vs the last round's histogram.", "tenant", name),
		cRounds: map[string]*Counter{
			CauseDrift:     m.Counter("ada_serve_rounds_total", "Control rounds triggered, by cause.", "tenant", name, "cause", CauseDrift),
			CauseSLO:       m.Counter("ada_serve_rounds_total", "Control rounds triggered, by cause.", "tenant", name, "cause", CauseSLO),
			CauseStaleness: m.Counter("ada_serve_rounds_total", "Control rounds triggered, by cause.", "tenant", name, "cause", CauseStaleness),
		},
		cSuppressed: map[string]*Counter{
			SuppressSpacing: m.Counter("ada_serve_rounds_suppressed_total", "Round triggers suppressed, by reason.", "tenant", name, "reason", SuppressSpacing),
			SuppressBudget:  m.Counter("ada_serve_rounds_suppressed_total", "Round triggers suppressed, by reason.", "tenant", name, "reason", SuppressBudget),
		},
		cAudit: map[string]*Counter{
			"clean":    m.Counter("ada_serve_audits_total", "Read-back audit verdicts.", "tenant", name, "verdict", "clean"),
			"repaired": m.Counter("ada_serve_audits_total", "Read-back audit verdicts.", "tenant", name, "verdict", "repaired"),
			"dirty":    m.Counter("ada_serve_audits_total", "Read-back audit verdicts.", "tenant", name, "verdict", "dirty"),
		},
	}
	s.nextShard++
	next := make(map[string]*tenantState, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = ts
	s.tenants.Store(&next)
	s.gTenants.Set(float64(len(next)))
	return nil
}

// Detach removes a tenant from ingest and pacing. In-flight batches still
// drain through its system; subsequent Ingest calls get ErrUnknownTenant.
// The tenant's metric series survive (counters are cumulative).
func (s *Server) Detach(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.tenants.Load()
	if _, ok := old[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	next := make(map[string]*tenantState, len(old))
	for k, v := range old {
		if k != name {
			next[k] = v
		}
	}
	s.tenants.Store(&next)
	s.gTenants.Set(float64(len(next)))
	return nil
}

// getBatch and putBatch recycle batch carriers; put clears the tenant
// pointer so a pooled batch never pins a detached tenant's state.
func (s *Server) getBatch() *batch { return s.pool.Get().(*batch) }

func (s *Server) putBatch(b *batch) {
	b.ts = nil
	s.pool.Put(b)
}

// Ingest offers one unary operand batch. It copies xs into a pooled
// carrier and enqueues without blocking: false means the shard queue was
// full and the batch was shed (admission control), an error means the
// tenant is unknown, of the wrong arity, or the server is closed. The
// happy path allocates nothing in steady state.
func (s *Server) Ingest(tenantName string, xs []uint64) (bool, error) {
	if s.closed.Load() {
		return false, ErrClosed
	}
	ts, ok := (*s.tenants.Load())[tenantName]
	if !ok {
		s.cDroppedUnknown.Inc()
		return false, fmt.Errorf("%w: %q", ErrUnknownTenant, tenantName)
	}
	if ts.binary {
		return false, fmt.Errorf("%w: %q is binary, use IngestPairs", ErrArity, tenantName)
	}
	b := s.getBatch()
	b.ts = ts
	b.xs = append(b.xs[:0], xs...)
	return s.enqueue(ts, b)
}

// IngestPairs offers one binary operand-pair batch (xs[i] with ys[i]).
func (s *Server) IngestPairs(tenantName string, xs, ys []uint64) (bool, error) {
	if s.closed.Load() {
		return false, ErrClosed
	}
	if len(xs) != len(ys) {
		return false, fmt.Errorf("%w: %d xs vs %d ys", ErrArity, len(xs), len(ys))
	}
	ts, ok := (*s.tenants.Load())[tenantName]
	if !ok {
		s.cDroppedUnknown.Inc()
		return false, fmt.Errorf("%w: %q", ErrUnknownTenant, tenantName)
	}
	if !ts.binary {
		return false, fmt.Errorf("%w: %q is unary, use Ingest", ErrArity, tenantName)
	}
	b := s.getBatch()
	b.ts = ts
	b.xs = append(b.xs[:0], xs...)
	b.ys = append(b.ys[:0], ys...)
	return s.enqueue(ts, b)
}

func (s *Server) enqueue(ts *tenantState, b *batch) (bool, error) {
	select {
	case ts.shard.ch <- b:
		ts.shard.enqueued.Add(1)
		s.winAccepted.Add(1)
		return true, nil
	default:
		s.putBatch(b)
		ts.cDropped.Inc()
		s.winDropped.Add(1)
		return false, nil
	}
}

// worker is one shard's pinned goroutine: it owns a result buffer, and
// each batch evaluates through its tenant's own scratch (and lookup cache,
// when armed), so every batch runs the system's allocation-free hot path.
// On Close it drains what is already queued, then exits.
func (s *Server) worker(sh *shard) {
	defer s.wg.Done()
	var dst []uint64
	process := func(b *batch) {
		start := time.Now()
		var misses int
		n := len(b.xs)
		if b.ts.binary {
			dst, misses = b.ts.tn.Binary().ObserveEvalAll(dst, b.xs, b.ys, &b.ts.sc)
		} else {
			dst, misses = b.ts.tn.Unary().ObserveEvalAll(dst, b.xs, &b.ts.sc)
		}
		b.ts.cBatches.Inc()
		b.ts.cLookups.Add(uint64(n))
		if misses > 0 {
			b.ts.cMisses.Add(uint64(misses))
		}
		if st := b.ts.sc.CacheStats(); st != b.ts.cacheSeen {
			b.ts.cCacheHits.Add(st.Hits - b.ts.cacheSeen.Hits)
			b.ts.cCacheMisses.Add(st.Misses - b.ts.cacheSeen.Misses)
			b.ts.cCacheInv.Add(st.Invalidations - b.ts.cacheSeen.Invalidations)
			b.ts.cCacheBypassed.Add(st.Bypassed - b.ts.cacheSeen.Bypassed)
			b.ts.cacheSeen = st
		}
		s.hBatch.Observe(time.Since(start).Seconds())
		s.putBatch(b)
		sh.processed.Add(1)
	}
	for {
		select {
		case <-s.done:
			for {
				select {
				case b := <-sh.ch:
					process(b)
				default:
					return
				}
			}
		case b := <-sh.ch:
			process(b)
		}
	}
}

// Drain blocks until every enqueued batch has been processed (or ctx
// ends). Benchmarks call it between the load phase and measurement so
// queue depth never skews a reading.
func (s *Server) Drain(ctx context.Context) error {
	for {
		idle := true
		for _, sh := range s.shards {
			if sh.processed.Load() != sh.enqueued.Load() {
				idle = false
				break
			}
		}
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// TickReport summarises one pacer evaluation.
type TickReport struct {
	// Tenants is the attached-tenant count evaluated.
	Tenants int
	// Rounds maps each synced tenant to its trigger cause.
	Rounds map[string]string
	// Suppressed maps each wanted-but-denied tenant to the reason.
	Suppressed map[string]string
	// Reports carries the control-round reports of the synced tenants.
	Reports map[string]core.SyncReport
}

// Tick runs one pacer evaluation: refresh admission state, score every
// tenant's drift and error, arbitrate triggers against spacing and the
// write budget, and sync the chosen subset in one Cluster call. Run calls
// it on a timer; tests and benchmarks call it directly with their own
// clock.
func (s *Server) Tick(ctx context.Context) (TickReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cTicks.Inc()
	s.refreshAdmissionLocked()
	now := s.cfg.Now()

	tenants := *s.tenants.Load()
	rep := TickReport{
		Tenants:    len(tenants),
		Rounds:     make(map[string]string),
		Suppressed: make(map[string]string),
	}
	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic arbitration order

	var due []string
	for _, name := range names {
		ts := tenants[name]
		s.observeTenantLocked(ts)
		cause := s.triggerCauseLocked(ts, now)
		if cause == "" {
			continue
		}
		if now.Sub(ts.lastRound) < s.cfg.MinRoundSpacing {
			ts.cSuppressed[SuppressSpacing].Inc()
			rep.Suppressed[name] = SuppressSpacing
			continue
		}
		if cause != CauseSLO && s.cfg.WriteBudget > 0 {
			if est := int(ts.costEWMA + 0.5); est > s.window.remaining(now) {
				ts.cSuppressed[SuppressBudget].Inc()
				rep.Suppressed[name] = SuppressBudget
				continue
			}
		}
		rep.Rounds[name] = cause
		due = append(due, name)
	}
	if len(due) > 0 {
		reports, err := s.cluster.SyncTenants(ctx, due)
		if err != nil {
			return rep, err
		}
		rep.Reports = reports
		for _, name := range due {
			s.settleRoundLocked(tenants[name], now, rep.Rounds[name], reports[name])
		}
	}
	if s.cfg.WriteBudget > 0 {
		s.gBudgetRemaining.Set(float64(s.window.remaining(now)))
	}
	return rep, nil
}

// observeTenantLocked refreshes one tenant's drift and error instruments
// from a fresh register snapshot.
func (s *Server) observeTenantLocked(ts *tenantState) {
	if ts.binary {
		b := ts.tn.Binary()
		monX, monY := b.ControllerX().Monitor(), b.ControllerY().Monitor()
		nx := monX.NumBins()
		ts.snapY = monY.SnapshotInto(sizeUint64(ts.snapY, monY.NumBins()))
		ts.snap = monX.SnapshotInto(sizeUint64(ts.snap, nx))
		ts.nx = nx
		ts.snap = append(ts.snap, ts.snapY...)
	} else {
		mon := ts.tn.Unary().Controller().Monitor()
		ts.snap = mon.SnapshotInto(sizeUint64(ts.snap, mon.NumBins()))
	}
	dist, _ := ts.det.Eval(ts.snap)
	ts.gDist.Set(dist)
	ts.errEst = estimateError(ts)
	ts.gErr.Set(ts.errEst)
}

// triggerCauseLocked returns why ts wants a round this tick ("" = it does
// not). Precedence: SLO violation, then drift, then staleness — the order
// matters because SLO-caused rounds bypass the write budget.
func (s *Server) triggerCauseLocked(ts *tenantState, now time.Time) string {
	if s.cfg.ErrorSLO > 0 && ts.errEst > s.cfg.ErrorSLO {
		return CauseSLO
	}
	if ts.det.High() {
		return CauseDrift
	}
	if s.cfg.MaxRoundStaleness > 0 && now.Sub(ts.lastRound) >= s.cfg.MaxRoundStaleness {
		return CauseStaleness
	}
	return ""
}

// settleRoundLocked folds one committed round into the tenant's pacer
// state: budget spend, cost smoothing, audit verdicts, and the drift
// baseline (rebased to the histogram this round consumed, or invalidated
// when the round moved the monitoring layout).
func (s *Server) settleRoundLocked(ts *tenantState, now time.Time, cause string, rep core.SyncReport) {
	ts.lastRound = now
	ts.cRounds[cause].Inc()
	ts.cWrites.Add(uint64(rep.TCAMWrites))
	s.window.add(now, rep.TCAMWrites)
	if ts.costEWMA == 0 {
		ts.costEWMA = float64(rep.TCAMWrites)
	} else {
		ts.costEWMA = 0.7*ts.costEWMA + 0.3*float64(rep.TCAMWrites)
	}
	if rep.AuditRan {
		switch {
		case rep.Audit.Mismatched() == 0:
			ts.cAudit["clean"].Inc()
		case rep.Audit.Repaired:
			ts.cAudit["repaired"].Inc()
		default:
			ts.cAudit["dirty"].Inc()
		}
	}
	if rep.Degraded {
		// The round did not commit: keep the baseline so the drift level
		// stays high and the retry fires once spacing allows.
		ts.cDegradedRounds.Inc()
		return
	}
	if rep.Expanded {
		// The bin count changed: the consumed histogram no longer describes
		// the new layout, so start over. (Rebalances alone keep the count —
		// the rebased baseline is then only boundary-shifted, which the next
		// committed round corrects; invalidating on every rebalance would
		// re-trigger forever when Algorithm 2 oscillates around a stationary
		// distribution.)
		ts.det.Invalidate()
	} else {
		ts.det.Rebase(ts.snap)
	}
}

// refreshAdmissionLocked publishes queue depths and runs the degraded-mode
// hysteresis over the drop ratio of the window since the previous tick.
func (s *Server) refreshAdmissionLocked() {
	for _, sh := range s.shards {
		sh.gDepth.Set(float64(len(sh.ch)))
	}
	acc, drp := s.winAccepted.Swap(0), s.winDropped.Swap(0)
	total := acc + drp
	if total == 0 {
		// No ingest attempts since the last tick: nothing is being shed,
		// so an idle server must not stay stuck in degraded mode.
		if s.degraded.Load() {
			s.degraded.Store(false)
			s.gDegraded.Set(0)
		}
		return
	}
	ratio := float64(drp) / float64(total)
	if !s.degraded.Load() && ratio >= s.cfg.DegradeAt {
		s.degraded.Store(true)
		s.gDegraded.Set(1)
	} else if s.degraded.Load() && ratio < s.cfg.RecoverAt {
		s.degraded.Store(false)
		s.gDegraded.Set(0)
	}
}

// Run drives Tick on the configured period until ctx ends (returning
// ctx.Err()) or a tick fails.
func (s *Server) Run(ctx context.Context) error {
	t := time.NewTicker(s.cfg.TickEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			if _, err := s.Tick(ctx); err != nil {
				return err
			}
		}
	}
}

// Close stops the ingest shards after draining already-queued batches and
// waits for them to exit. Idempotent; Ingest after Close returns
// ErrClosed.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.done)
	s.wg.Wait()
}

// estimateError is the pacer's live accuracy probe: evaluate the
// calculation engine at each monitoring bin's midpoint against the exact
// operation, and weight each bin's relative error by its share of the
// current hit histogram. The estimate therefore tracks the traffic — a
// population that was accurate for last round's distribution scores badly
// once the mass moves to bins it resolves coarsely.
func estimateError(ts *tenantState) float64 {
	if ts.binary {
		return estimateBinaryError(ts)
	}
	sys := ts.tn.Unary()
	ps := sys.Controller().Monitor().Prefixes()
	if len(ps) != len(ts.snap) {
		return ts.errEst // layout moved under us; keep the last estimate
	}
	f := sys.Op().Func()
	var num, den float64
	for i, p := range ps {
		w := float64(ts.snap[i])
		if w == 0 {
			continue
		}
		x := p.Midpoint()
		approx, err := sys.Engine().Eval(x)
		if err != nil {
			continue
		}
		num += w * relErr(approx, f(x))
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// estimateBinaryError crosses the two operand histograms: each (x bin, y
// bin) pair is weighted by the product of its marginal hit masses (the
// operands are observed independently, so the product is the best joint
// estimate the registers can give).
func estimateBinaryError(ts *tenantState) float64 {
	sys := ts.tn.Binary()
	psX := sys.ControllerX().Monitor().Prefixes()
	psY := sys.ControllerY().Monitor().Prefixes()
	if len(psX) != ts.nx || len(psX)+len(psY) != len(ts.snap) {
		return ts.errEst
	}
	hx, hy := ts.snap[:ts.nx], ts.snap[ts.nx:]
	f := sys.Op().Func()
	var num, den float64
	for i, px := range psX {
		wx := float64(hx[i])
		if wx == 0 {
			continue
		}
		x := px.Midpoint()
		for j, py := range psY {
			wy := float64(hy[j])
			if wy == 0 {
				continue
			}
			y := py.Midpoint()
			approx, err := sys.Engine().Eval(x, y)
			if err != nil {
				continue
			}
			w := wx * wy
			num += w * relErr(approx, f(x, y))
			den += w
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// relErr is the benchmark suite's relative-error convention:
// |approx − exact| / max(exact, 1).
func relErr(approx, exact uint64) float64 {
	var diff float64
	if approx > exact {
		diff = float64(approx - exact)
	} else {
		diff = float64(exact - approx)
	}
	return diff / math.Max(float64(exact), 1)
}

// sizeUint64 returns dst resized to n, reusing its array when possible.
func sizeUint64(dst []uint64, n int) []uint64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]uint64, n)
}

// writeWindow is the rolling TCAM write budget: spends are timestamped and
// expire once they fall out of the window, so the budget refills
// continuously instead of in cliff-edge epochs. Owned by the pacer.
type writeWindow struct {
	limit  int
	span   time.Duration
	events []writeEvent
	spent  int
}

type writeEvent struct {
	at time.Time
	n  int
}

func (w *writeWindow) add(now time.Time, n int) {
	if w.limit == 0 || n == 0 {
		return
	}
	w.events = append(w.events, writeEvent{at: now, n: n})
	w.spent += n
}

func (w *writeWindow) remaining(now time.Time) int {
	if w.limit == 0 {
		return math.MaxInt
	}
	cut := now.Add(-w.span)
	i := 0
	for i < len(w.events) && !w.events[i].at.After(cut) {
		w.spent -= w.events[i].n
		i++
	}
	if i > 0 {
		w.events = append(w.events[:0], w.events[i:]...)
	}
	if r := w.limit - w.spent; r > 0 {
		return r
	}
	return 0
}
