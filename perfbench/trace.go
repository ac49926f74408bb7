package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/serve"
	"github.com/ada-repro/ada/internal/trie"
)

// Span names. Driver spans wrap one call across the controlplane.Driver
// boundary; the rest wrap the benchmark's own calls into a layer.
const (
	spanReadRegisters  = "controlplane.read_registers"
	spanResetRegisters = "controlplane.reset_registers"
	spanInstall        = "controlplane.install_monitoring"
	spanPopulate       = "controlplane.populate"
	spanAudit          = "controlplane.audit"
	spanPlaceTiers     = "controlplane.place_tiers"

	spanUnarySync  = "core.unary_sync"
	spanBinarySync = "core.binary_sync"
	spanSyncTenant = "core.sync_tenants"
	spanObserve    = "monitor.observe_all"
	spanEval       = "arith.eval_batch_into"
	spanTick       = "serve.tick"
	spanIngest     = "serve.ingest"
)

// driverSpans lists the driver span names in report order.
var driverSpans = []string{spanReadRegisters, spanResetRegisters, spanInstall,
	spanPopulate, spanAudit, spanPlaceTiers}

// span is one timed call: name, owner (tenant or system label) and its
// interval relative to the tracer's epoch.
type span struct {
	name       string
	owner      string
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// spanLog is one single-writer span buffer (one controller's driver, one
// worker, the pacer): no locking on the hot path.
type spanLog struct {
	epoch time.Time
	owner string
	spans []span
}

// add records a span that started at start and ends now.
func (l *spanLog) add(name string, start time.Time) {
	l.spans = append(l.spans, span{name: name, owner: l.owner,
		start: start.Sub(l.epoch), end: time.Since(l.epoch)})
}

// tracer owns every span log of one traced run. Spans stay in memory until
// the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	logs  []*spanLog
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// log opens a new span buffer for one writer.
func (t *tracer) log(owner string) *spanLog {
	l := &spanLog{epoch: t.epoch, owner: owner}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// wrapDriver returns a core.Config.WrapDriver hook that times every call
// across each controller's driver boundary, one span buffer per controller.
func (t *tracer) wrapDriver(owner string) func(controlplane.Driver) controlplane.Driver {
	return func(d controlplane.Driver) controlplane.Driver {
		return newTimedDriver(d, t.log(owner))
	}
}

// all returns every span sorted by start time.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// write saves the spans as JSON lines: name, owner, start and end in ns since
// the epoch, and the index of the enclosing span (the one that caused it), -1
// for roots.
func (t *tracer) write(path string) error {
	spans := t.all()
	parents := enclosing(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range spans {
		line, _ := json.Marshal([]any{s.name, s.owner, int64(s.start), int64(s.end), parents[i]})
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// enclosing returns, for each span of a start-sorted list, the index of the
// innermost earlier span whose interval contains it (-1 when none).
func enclosing(spans []span) []int {
	parents := make([]int, len(spans))
	var stack []int
	for i, s := range spans {
		for len(stack) > 0 && spans[stack[len(stack)-1]].end < s.end {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			parents[i] = stack[len(stack)-1]
		} else {
			parents[i] = -1
		}
		stack = append(stack, i)
	}
	return parents
}

// union is the total length covered by the intervals (which may overlap:
// concurrent tenant rounds do).
func union(ivs [][2]time.Duration) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = iv
			continue
		}
		if iv[1] > cur[1] {
			cur[1] = iv[1]
		}
	}
	return total + cur[1] - cur[0]
}

// within returns the spans of list (start-sorted) that lie inside parent
// and, when owner is non-empty, belong to it.
func within(list []span, parent span, owner string) []span {
	i := sort.Search(len(list), func(i int) bool { return list[i].start >= parent.start })
	var out []span
	for ; i < len(list) && list[i].start <= parent.end; i++ {
		if list[i].end <= parent.end && (owner == "" || list[i].owner == owner) {
			out = append(out, list[i])
		}
	}
	return out
}

// selfTime is the parent's duration minus the union of its children's
// intervals.
func selfTime(parent span, children []span) time.Duration {
	ivs := make([][2]time.Duration, len(children))
	for i, c := range children {
		ivs[i] = [2]time.Duration{c.start, c.end}
	}
	return parent.dur() - union(ivs)
}

// filter returns the spans named name.
func filter(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// driverOnly returns the driver spans of a start-sorted list.
func driverOnly(spans []span) []span {
	var out []span
	for _, s := range spans {
		if strings.HasPrefix(s.name, "controlplane.") {
			out = append(out, s)
		}
	}
	return out
}

func sumDur(spans []span) time.Duration {
	var t time.Duration
	for _, s := range spans {
		t += s.dur()
	}
	return t
}

func meanDur(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	return sumDur(spans) / time.Duration(len(spans))
}

// timedDriver times every call across a controller's switch-driver
// boundary. It forwards the optional DeltaPopulator, TierPlacer and
// LatencyReporter interfaces with fallbacks that match what the controller
// does when the wrapped driver lacks them, so a timed round takes exactly the
// path an untimed one does. Auditor changes whether a round audits at all, so
// it is forwarded only when the wrapped driver implements it (see
// newTimedDriver).
type timedDriver struct {
	inner controlplane.Driver
	log   *spanLog
}

// timedAuditDriver is a timedDriver over a driver that implements Auditor.
type timedAuditDriver struct{ *timedDriver }

// newTimedDriver wraps inner, exposing Auditor only when inner does.
func newTimedDriver(inner controlplane.Driver, log *spanLog) controlplane.Driver {
	td := &timedDriver{inner: inner, log: log}
	if _, ok := inner.(controlplane.Auditor); ok {
		return timedAuditDriver{td}
	}
	return td
}

// Unwrap lets the controller find the in-process monitor behind the wrapper.
func (d *timedDriver) Unwrap() controlplane.Driver { return d.inner }

func (d *timedDriver) Width() int           { return d.inner.Width() }
func (d *timedDriver) MonitorCapacity() int { return d.inner.MonitorCapacity() }
func (d *timedDriver) NumBins() int         { return d.inner.NumBins() }

func (d *timedDriver) ReadRegisters() ([]uint64, error) {
	start := time.Now()
	snap, err := d.inner.ReadRegisters()
	d.log.add(spanReadRegisters, start)
	return snap, err
}

func (d *timedDriver) ResetRegisters() (int, error) {
	start := time.Now()
	n, err := d.inner.ResetRegisters()
	d.log.add(spanResetRegisters, start)
	return n, err
}

func (d *timedDriver) InstallMonitoring(prefixes []bitstr.Prefix) (int, error) {
	start := time.Now()
	n, err := d.inner.InstallMonitoring(prefixes)
	d.log.add(spanInstall, start)
	return n, err
}

func (d *timedDriver) PopulateCalc(tr *trie.Trie, budget int) (int, int, error) {
	start := time.Now()
	w, c, err := d.inner.PopulateCalc(tr, budget)
	d.log.add(spanPopulate, start)
	return w, c, err
}

// PopulateCalcDelta forwards to the wrapped driver's delta path, or falls
// back to PopulateCalc with zero reuse, as the controller itself would.
func (d *timedDriver) PopulateCalcDelta(tr *trie.Trie, budget int) (int, int, int, error) {
	start := time.Now()
	defer d.log.add(spanPopulate, start)
	if dp, ok := d.inner.(controlplane.DeltaPopulator); ok {
		return dp.PopulateCalcDelta(tr, budget)
	}
	w, c, err := d.inner.PopulateCalc(tr, budget)
	return w, c, 0, err
}

// PlaceTiers forwards to the wrapped driver, or reports no tiered store.
func (d *timedDriver) PlaceTiers(tr *trie.Trie) (controlplane.TierMoves, bool, error) {
	tp, ok := d.inner.(controlplane.TierPlacer)
	if !ok {
		return controlplane.TierMoves{}, false, nil
	}
	start := time.Now()
	defer d.log.add(spanPlaceTiers, start)
	return tp.PlaceTiers(tr)
}

// TakeInjectedLatency forwards to the wrapped driver, or reports none.
func (d *timedDriver) TakeInjectedLatency() time.Duration {
	if lr, ok := d.inner.(controlplane.LatencyReporter); ok {
		return lr.TakeInjectedLatency()
	}
	return 0
}

func (d timedAuditDriver) AuditCalc(repair bool) (controlplane.AuditReport, error) {
	start := time.Now()
	defer d.log.add(spanAudit, start)
	return d.inner.(controlplane.Auditor).AuditCalc(repair)
}

var (
	_ controlplane.DeltaPopulator  = (*timedDriver)(nil)
	_ controlplane.TierPlacer      = (*timedDriver)(nil)
	_ controlplane.LatencyReporter = (*timedDriver)(nil)
	_ controlplane.Auditor         = timedAuditDriver{}
)

// timedCluster times every SyncTenants call the pacer makes.
type timedCluster struct {
	inner serve.Cluster
	log   *spanLog
}

func (c *timedCluster) SyncTenants(ctx context.Context, names []string) (map[string]core.SyncReport, error) {
	start := time.Now()
	defer c.log.add(spanSyncTenant, start)
	return c.inner.SyncTenants(ctx, names)
}

func (c *timedCluster) FindTenant(name string) (*core.Tenant, bool) {
	return c.inner.FindTenant(name)
}

var _ serve.Cluster = (*timedCluster)(nil)

// driverBreakdown sums, per round span, the driver spans inside it by name
// and the round's self time (duration minus the union of its driver spans).
// Results are means per round in microseconds.
type driverBreakdown struct {
	perKind map[string]float64
	self    float64
}

func breakDown(rounds []span, spans []span, owner string) driverBreakdown {
	b := driverBreakdown{perKind: make(map[string]float64)}
	drivers := driverOnly(spans)
	if len(rounds) == 0 {
		return b
	}
	for _, r := range rounds {
		kids := within(drivers, r, owner)
		for _, k := range kids {
			b.perKind[k.name] += us(k.dur())
		}
		b.self += us(selfTime(r, kids))
	}
	n := float64(len(rounds))
	for k := range b.perKind {
		b.perKind[k] /= n
	}
	b.self /= n
	return b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
