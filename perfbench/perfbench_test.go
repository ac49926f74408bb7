package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/controlplane"
	"github.com/ada-repro/ada/internal/core"
	"github.com/ada-repro/ada/internal/faults"
	"github.com/ada-repro/ada/internal/serve"
)

// TestSmoke runs every workload briefly, untraced and traced, through the
// command's entry point: every correctness check must pass and every
// metric must be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a few seconds")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				code, err := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", trace}, &out)
				if code != 0 || err != nil {
					t.Fatalf("exit %d, err %v\n%s", code, err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var s summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if !s.Correct || s.Failed != 0 || s.Attempted < 1 || len(s.Metrics) != len(defs) {
					t.Fatalf("result %+v", s)
				}
				for _, d := range defs {
					m, ok := s.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %+v in code", i, w, workloads[i])
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in code", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// minimalDriver exposes only the Driver interface of what it wraps: none of
// the optional extensions.
type minimalDriver struct{ controlplane.Driver }

// TestTimedDriverForwarding checks that the timing wrapper exposes every
// optional interface the wrapped driver implements, and that a system whose
// drivers are timed takes exactly the path of an untimed one: identical
// round reports and calculation tables, round after round, with and without
// injected faults and optional extensions.
func TestTimedDriverForwarding(t *testing.T) {
	wrappers := map[string]func() func(controlplane.Driver) controlplane.Driver{
		"direct": func() func(controlplane.Driver) controlplane.Driver { return nil },
		"minimal": func() func(controlplane.Driver) controlplane.Driver {
			return func(d controlplane.Driver) controlplane.Driver { return minimalDriver{d} }
		},
		"faults": func() func(controlplane.Driver) controlplane.Driver {
			prof, err := faults.ParseProfile("seed=7,write=0.2")
			if err != nil {
				t.Fatal(err)
			}
			return faults.MustNew(prof).Wrap
		},
	}
	for name, mk := range wrappers {
		t.Run(name, func(t *testing.T) {
			tr := newTracer()
			var inners, timed []controlplane.Driver
			build := func(wrap func(controlplane.Driver) controlplane.Driver, traced bool) *core.UnarySystem {
				cfg := core.DefaultConfig(12)
				cfg.CalcEntries = 64
				cfg.TieredTCAMEntries = 16
				cfg.AuditEvery = 3
				cfg.EnableJournal = true
				cfg.WrapDriver = func(d controlplane.Driver) controlplane.Driver {
					if wrap != nil {
						d = wrap(d)
					}
					if !traced {
						return d
					}
					td := tr.wrapDriver("unary")(d)
					inners, timed = append(inners, d), append(timed, td)
					return td
				}
				sys, err := core.NewUnary(cfg, arith.OpSquare)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			plain, traced := build(mk(), false), build(mk(), true)
			for i := range inners {
				checkForwarding(t, inners[i], timed[i])
			}
			rng := rand.New(rand.NewSource(1))
			for round := 0; round < 24; round++ {
				xs := make([]uint64, 512)
				for i := range xs {
					xs[i] = triangular(rng, uint64(400+150*(round%8)), 300, 4095)
				}
				plain.ObserveAll(xs)
				traced.ObserveAll(xs)
				want, werr := plain.Sync()
				got, gerr := traced.Sync()
				if !reflect.DeepEqual(got, want) || (werr == nil) != (gerr == nil) {
					t.Fatalf("round %d: traced report %+v (%v), untraced %+v (%v)", round, got, gerr, want, werr)
				}
				if g, w := traced.Engine().Store().Fingerprint(), plain.Engine().Store().Fingerprint(); g != w {
					t.Fatalf("round %d: fingerprints differ", round)
				}
			}
			if len(driverOnly(tr.all())) == 0 {
				t.Fatal("no driver spans recorded")
			}
		})
	}
}

// checkForwarding asserts that timed implements each optional driver
// interface exactly when inner does, except those whose fallback matches the
// controller's own absent-interface path (DeltaPopulator, TierPlacer,
// LatencyReporter), which timed always implements.
func checkForwarding(t *testing.T, inner, timed controlplane.Driver) {
	t.Helper()
	_, innerAud := inner.(controlplane.Auditor)
	_, timedAud := timed.(controlplane.Auditor)
	if innerAud != timedAud {
		t.Errorf("%T: Auditor %v, wrapped %T: %v", inner, innerAud, timed, timedAud)
	}
	if _, ok := timed.(controlplane.DeltaPopulator); !ok {
		t.Errorf("%T does not forward DeltaPopulator", timed)
	}
	if _, ok := timed.(controlplane.TierPlacer); !ok {
		t.Errorf("%T does not forward TierPlacer", timed)
	}
	if _, ok := timed.(controlplane.LatencyReporter); !ok {
		t.Errorf("%T does not forward LatencyReporter", timed)
	}
	if uw, ok := timed.(interface{ Unwrap() controlplane.Driver }); !ok || uw.Unwrap() != inner {
		t.Errorf("%T does not unwrap to the driver it wraps", timed)
	}
}

// TestTimedCluster checks the cluster wrapper forwards both serve.Cluster
// methods and records one span per sync.
func TestTimedCluster(t *testing.T) {
	reg, err := core.NewRegistry(core.SharedConfig{Name: "t", TotalEntries: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.MountUnary("a", core.DefaultConfig(12), arith.OpSquare); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	var c serve.Cluster = &timedCluster{inner: reg, log: tr.log("cluster")}
	if tn, ok := c.FindTenant("a"); !ok || tn.Name() != "a" {
		t.Fatal("FindTenant not forwarded")
	}
	reps, err := c.SyncTenants(context.Background(), []string{"a"})
	if err != nil || len(reps) != 1 {
		t.Fatalf("SyncTenants: %v, %v", reps, err)
	}
	if n := len(filter(tr.all(), spanSyncTenant)); n != 1 {
		t.Fatalf("%d sync spans, want 1", n)
	}
}

// TestSelfTime checks the span arithmetic: overlapping children count once
// and spans nest by containment.
func TestSelfTime(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	parent := span{name: "p", start: 0, end: ms(10)}
	kids := []span{{start: ms(1), end: ms(4)}, {start: ms(3), end: ms(5)}, {start: ms(7), end: ms(8)}}
	if got := selfTime(parent, kids); got != ms(5) {
		t.Fatalf("self time %v, want 5ms", got)
	}
	spans := []span{parent, kids[0], {start: ms(2), end: ms(3)}, kids[2], {start: ms(11), end: ms(12)}}
	if got, want := enclosing(spans), []int{-1, 0, 1, 0, -1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parents %v, want %v", got, want)
	}
}
