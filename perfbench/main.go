// Command perfbench is the repository's benchmark. It runs one named
// workload against the ADA system through the packages' public APIs,
// checks the outputs for correctness, and prints every end-to-end metric
// (untraced run) or every per-layer metric (traced run) by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload dataplane-zipf --seed 1 --seconds 10 --trace 0
//
// --workload all runs every workload in turn and prints each one's metrics.
// A traced run (--trace 1) splits its time between an untraced pass and a
// traced pass over the same inputs: the per-layer metrics come from the
// traced pass, the tracing overhead is the difference between the two, and
// the calculation-table fingerprints of both must agree round by round.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// options configure one pass over a workload.
type options struct {
	seed     int64
	duration time.Duration
	// setups is how many times the pass builds the system from scratch;
	// setup_s is the median.
	setups int
	// tr, when set, records spans around the calls into each layer.
	tr *tracer
	// fingerprints records the calculation-table fingerprint after every
	// round (both passes of a traced run compare them).
	fingerprints bool
}

// runResult is one pass's measurements and verdicts.
type runResult struct {
	e2e       map[string]float64
	counts    map[string]int // sample count behind each timing metric
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string
	// fingerprints is the calculation-table fingerprint after each
	// deterministic round, for the traced/untraced comparison (nil when
	// the workload's rounds are not deterministic).
	fingerprints []string
	inputs       inputProps
}

func newResult() *runResult {
	return &runResult{e2e: map[string]float64{}, counts: map[string]int{}, layer: map[string]float64{}}
}

func (r *runResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is one named input set.
type workload struct {
	name string
	why  string
	run  func(opt options) (*runResult, error)
}

var workloads = []workload{
	{"dataplane-zipf", "closed loop, 2 workers, Zipf s=1.1 keys on a 4096-entry tiered population with the 4096-slot lookup cache; monitor, tiered lookup, dedup and cache do most of the work", runDataplane},
	{"control-drift", "operand peaks move every round, so Algorithms 2 and 3 reshape, repopulate and commit ~1.7k rows a round (unary tiered+journal+audit, binary joint); the cache is off", runControl},
	{"serve-mixed", "adaserve defaults: 6 unary + 2 binary tenants at 200 batches/tenant/s, 2.5x time-compressed (4000/s open loop, so samples_per_s is fixed); drift rounds commit beside 2 shards; keys exceed the cache", runServe},
}

// metricDef describes one reported metric.
type metricDef struct {
	name, unit, better string
	// workloads that exercise it (per-layer metrics only; the rest report
	// 0), and the end-to-end metrics it should move.
	workloads, moves []string
}

// endToEnd are reported by every workload's untraced run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "samples_per_s", unit: "samples/s", better: "higher"},
	{name: "batch_p50_us", unit: "us", better: "lower"},
	{name: "batch_mean_us", unit: "us", better: "lower"},
	{name: "round_p50_ms", unit: "ms", better: "lower"},
	{name: "round_mean_ms", unit: "ms", better: "lower"},
	{name: "tcam_writes_per_round", unit: "rows", better: "lower"},
	{name: "err_mean", unit: "ratio", better: "lower"},
	{name: "err_p99", unit: "ratio", better: "lower"},
	{name: "cpu_ns_per_sample", unit: "ns", better: "lower"},
	{name: "live_heap_mb", unit: "MiB", better: "lower"},
}

const (
	wDP = "dataplane-zipf"
	wCD = "control-drift"
	wSM = "serve-mixed"
)

// perLayer are reported by every workload's traced run; a metric whose
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"monitor.observe_ns_per_sample", "ns", "lower", []string{wDP, wCD}, []string{"samples_per_s", "batch_p50_us"}},
	{"arith.eval_ns_per_sample", "ns", "lower", []string{wDP, wCD}, []string{"samples_per_s", "batch_p50_us"}},
	{"arith.cache_hit_ratio", "ratio", "higher", []string{wDP, wCD}, []string{"samples_per_s"}},
	{"arith.cache_invalidations", "count", "lower", []string{wDP, wCD}, []string{"samples_per_s"}},
	{"arith.misses", "count", "lower", []string{wDP, wCD}, []string{"failed"}},
	{"runtime.allocs_per_batch", "count", "lower", []string{wDP, wCD, wSM}, []string{"batch_mean_us"}},
	{"runtime.gc_pause_ms", "ms", "lower", []string{wDP, wCD, wSM}, []string{"batch_mean_us"}},
	{"controlplane.read_registers_us", "us", "lower", []string{wDP, wCD, wSM}, []string{"round_p50_ms"}},
	{"controlplane.reset_registers_us", "us", "lower", []string{wDP, wCD, wSM}, []string{"round_p50_ms"}},
	{"controlplane.install_monitoring_us", "us", "lower", []string{wDP, wCD, wSM}, []string{"round_p50_ms"}},
	{"controlplane.populate_us", "us", "lower", []string{wDP, wCD, wSM}, []string{"round_p50_ms", "round_mean_ms"}},
	{"controlplane.audit_us", "us", "lower", []string{wCD}, []string{"round_mean_ms"}},
	{"controlplane.place_tiers_us", "us", "lower", []string{wDP, wCD}, []string{"round_p50_ms"}},
	{"controlplane.self_us", "us", "lower", []string{wDP, wCD, wSM}, []string{"round_p50_ms"}},
	{"controlplane.round_mean_us", "us", "lower", []string{wDP, wCD, wSM}, []string{"round_p50_ms"}},
	{"controlplane.modelled_delay_us", "us-model", "lower", []string{wDP, wCD, wSM}, nil},
	{"core.binary_self_us", "us", "lower", []string{wCD}, []string{"round_p50_ms"}},
	{"core.computed_per_round", "count", "lower", []string{wDP, wCD, wSM}, []string{"round_p50_ms"}},
	{"core.reused_per_round", "count", "higher", []string{wDP, wCD, wSM}, []string{"round_p50_ms"}},
	{"core.reuse_ratio", "ratio", "higher", []string{wDP, wCD, wSM}, []string{"round_p50_ms"}},
	{"core.tcam_writes_per_round", "rows", "lower", []string{wDP, wCD, wSM}, []string{"tcam_writes_per_round"}},
	{"core.sram_writes_per_round", "rows", "lower", []string{wDP, wCD}, []string{"round_p50_ms"}},
	{"core.rebalances_per_round", "count", "lower", []string{wDP, wCD, wSM}, []string{"round_p50_ms"}},
	{"core.expansions", "count", "lower", []string{wDP, wCD, wSM}, []string{"round_p50_ms"}},
	{"core.retries", "count", "lower", []string{wDP, wCD, wSM}, []string{"failed"}},
	{"core.degraded_rounds", "count", "lower", []string{wDP, wCD, wSM}, []string{"failed"}},
	{"core.sync_fanout_us", "us", "lower", []string{wSM}, []string{"round_p50_ms"}},
	{"serve.ingest_ns", "ns", "lower", []string{wSM}, []string{"cpu_ns_per_sample"}},
	{"serve.tick_idle_us", "us", "lower", []string{wSM}, []string{"cpu_ns_per_sample"}},
	{"serve.sync_ms", "ms", "lower", []string{wSM}, []string{"round_mean_ms"}},
	{"serve.tick_self_us", "us", "lower", []string{wSM}, []string{"round_p50_ms"}},
	{"serve.shed_ratio", "ratio", "lower", []string{wSM}, []string{"failed"}},
	{"serve.queue_depth_max", "batches", "lower", []string{wSM}, []string{"batch_mean_us"}},
	{"serve.cache_hit_ratio", "ratio", "higher", []string{wSM}, []string{"cpu_ns_per_sample"}},
	{"serve.rounds_drift", "count", "lower", []string{wSM}, []string{"cpu_ns_per_sample"}},
	{"serve.rounds_slo", "count", "lower", []string{wSM}, []string{"cpu_ns_per_sample"}},
	{"serve.rounds_staleness", "count", "lower", []string{wSM}, []string{"cpu_ns_per_sample"}},
	{"serve.rounds_suppressed", "count", "lower", []string{wSM}, []string{"cpu_ns_per_sample"}},
	{"serve.gen_late_p99_us", "us", "lower", []string{wSM}, nil},
	{"serve.probe_service_shift_pct", "%", "lower", []string{wSM}, nil},
	{"tail.batch_p99_us", "us", "lower", []string{wDP, wCD, wSM}, []string{"batch_mean_us"}},
	{"tail.round_p99_ms", "ms", "lower", []string{wDP, wCD, wSM}, []string{"round_mean_ms"}},
	{"trace.overhead_batch_p50_pct", "%", "lower", []string{wDP, wCD, wSM}, nil},
	{"trace.overhead_round_p50_pct", "%", "lower", []string{wDP, wCD, wSM}, nil},
	{"trace.overhead_samples_per_s_pct", "%", "lower", []string{wDP, wCD, wSM}, nil},
}

// env is the environment every output records.
type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Source     string `json:"source_digest"`
	Seed       int64  `json:"seed"`
}

func collectEnv(seed int64) env {
	return env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Source:     sourceDigest("."),
		Seed:       seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest identifies the code under test: a SHA-256 over the Go sources
// and module files below root (the checkout need not be a git repository, so
// there is no commit hash to read).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses args, runs the workload(s), and returns the exit code.
func run(args []string, stdout io.Writer) (int, error) {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fset.String("workload", "", "workload name, or all")
	seed := fset.Int64("seed", 1, "input seed")
	seconds := fset.Int("seconds", 10, "measured seconds per run")
	trace := fset.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fset.String("out", "", "directory for the result and span files (empty = none)")
	if err := fset.Parse(args); err != nil {
		return 2, err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return 1, err
		}
	}
	e := collectEnv(*seed)
	fmt.Fprintf(stdout, "env: go=%s gomaxprocs=%d nproc=%d cpu=%q source=%s seed=%d\n",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPU, e.Source, e.Seed)
	var final summary
	final.Correct = true
	final.Metrics = map[string]metricValue{}
	for _, w := range chosen {
		s, err := runWorkload(w, e, time.Duration(*seconds)*time.Second, *trace == 1, *out, stdout)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.name, err)
		}
		final.Correct = final.Correct && s.Correct
		final.Attempted += s.Attempted
		final.Failed += s.Failed
		for k, v := range s.Metrics {
			if len(chosen) > 1 {
				k = w.name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1, errors.New("correctness check failed")
	}
	return 0, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line's schema.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// warmup is the length of the discarded pass before the measured ones.
const warmup = time.Second

// runWorkload runs one workload (two passes when traced), prints its
// metrics, writes its result file, and returns its summary.
func runWorkload(w workload, e env, total time.Duration, traced bool, out string, stdout io.Writer) (summary, error) {
	// A short discarded pass first, so the measured passes start from a
	// warm process: grown heap, faulted-in pages, scheduled CPUs.
	if _, err := w.run(options{seed: e.Seed, duration: warmup, setups: 1}); err != nil {
		return summary{}, err
	}
	opt := options{seed: e.Seed, duration: total, setups: 31}
	var res, tres *runResult
	var tr *tracer
	var err error
	if !traced {
		if res, err = w.run(opt); err != nil {
			return summary{}, err
		}
	} else {
		opt.duration, opt.setups, opt.fingerprints = total/2, 1, true
		if res, err = w.run(opt); err != nil {
			return summary{}, err
		}
		tr = newTracer()
		opt.tr = tr
		if tres, err = w.run(opt); err != nil {
			return summary{}, err
		}
		compareFingerprints(res, tres)
		addOverhead(tres.layer, res.e2e, tres.e2e)
		// Tail latencies are reported from the untraced pass, like the
		// end-to-end metrics they stand beside.
		for _, name := range []string{"tail.batch_p99_us", "tail.round_p99_ms"} {
			tres.layer[name], tres.counts[name] = res.layer[name], res.counts[name]
		}
	}

	fmt.Fprintf(stdout, "workload: %s (%s)\n", w.name, w.why)
	fmt.Fprintf(stdout, "inputs: unique_key_ratio_per_batch=%.4f hot_set_share=%.4f round_tv_mean=%.4f\n",
		res.inputs.UniqueRatio, res.inputs.HotShare, res.inputs.RoundTV)
	s := summary{Correct: true, Metrics: map[string]metricValue{}}
	report := func(defs []metricDef, vals map[string]float64, counts map[string]int) {
		for _, d := range defs {
			v := vals[d.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
			note := ""
			if c, ok := counts[d.name]; ok {
				note = fmt.Sprintf(" (n=%d)", c)
			}
			if d.workloads != nil && !slices.Contains(d.workloads, w.name) {
				note += " (layer not exercised)"
			} else if len(d.moves) > 0 {
				note += " -> " + strings.Join(d.moves, ", ")
			}
			fmt.Fprintf(stdout, "  %-36s %14.6g %-9s%s\n", d.name, v, d.unit, note)
		}
	}
	all := []*runResult{res}
	if traced {
		all = append(all, tres)
		fmt.Fprintln(stdout, "per-layer metrics (traced pass) -> the end-to-end metrics each should move:")
		report(perLayer, tres.layer, tres.counts)
	} else {
		fmt.Fprintln(stdout, "end-to-end metrics:")
		for _, d := range endToEnd {
			if _, ok := res.e2e[d.name]; !ok {
				res.problem("end-to-end metric %s not measured", d.name)
			}
		}
		report(endToEnd, res.e2e, res.counts)
		fmt.Fprintf(stdout, "  %-36s %14.6g %-9s (model, not a measurement)\n",
			"controlplane.modelled_delay_us", res.layer["controlplane.modelled_delay_us"], "us")
	}
	for _, r := range all {
		s.Attempted += r.attempted
		s.Failed += r.failed
		for _, p := range r.problems {
			s.Correct = false
			fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
		}
	}
	if out != "" {
		if err := writeResult(out, w, e, traced, res, tres, s); err != nil {
			return s, err
		}
		// One span file per workload, overwritten by each traced run: a
		// traced dataplane run records tens of megabytes of spans.
		if tr != nil {
			if err := tr.write(filepath.Join(out, w.name+".spans.jsonl")); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

// compareFingerprints checks that the traced pass's calculation tables
// matched the untraced pass's after every round both passes reached: the
// timing wrappers must not change behaviour.
func compareFingerprints(base, traced *runResult) {
	n := min(len(base.fingerprints), len(traced.fingerprints))
	if base.fingerprints != nil && n == 0 {
		traced.problem("no rounds to compare fingerprints over")
	}
	for i := 0; i < n; i++ {
		if base.fingerprints[i] != traced.fingerprints[i] {
			traced.problem("round %d: traced calc fingerprint %s != untraced %s",
				i+1, traced.fingerprints[i], base.fingerprints[i])
			return
		}
	}
	traced.counts["trace.fingerprint_rounds"] = n
}

// addOverhead records tracing overhead as the traced pass's relative
// slowdown against the untraced pass on three end-to-end metrics.
func addOverhead(layer, base, traced map[string]float64) {
	pct := func(b, t float64) float64 {
		if b == 0 {
			return 0
		}
		return 100 * (t - b) / b
	}
	layer["trace.overhead_batch_p50_pct"] = pct(base["batch_p50_us"], traced["batch_p50_us"])
	layer["trace.overhead_round_p50_pct"] = pct(base["round_p50_ms"], traced["round_p50_ms"])
	layer["trace.overhead_samples_per_s_pct"] = -pct(base["samples_per_s"], traced["samples_per_s"])
}

// writeResult saves the run's environment, inputs, metrics with sample
// counts, and verdicts as JSON.
func writeResult(dir string, w workload, e env, traced bool, res, tres *runResult, s summary) error {
	type pass struct {
		EndToEnd  map[string]float64 `json:"end_to_end"`
		PerLayer  map[string]float64 `json:"per_layer,omitempty"`
		Counts    map[string]int     `json:"sample_counts"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Problems  []string           `json:"problems,omitempty"`
	}
	mk := func(r *runResult) *pass {
		if r == nil {
			return nil
		}
		return &pass{r.e2e, r.layer, r.counts, r.attempted, r.failed, r.problems}
	}
	doc := struct {
		Workload string     `json:"workload"`
		Why      string     `json:"why"`
		Env      env        `json:"env"`
		Inputs   inputProps `json:"inputs"`
		Traced   bool       `json:"traced"`
		Untraced *pass      `json:"untraced_pass"`
		Trace    *pass      `json:"traced_pass,omitempty"`
		Result   summary    `json:"result"`
	}{w.name, w.why, e, res.inputs, traced, mk(res), mk(tres), s}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v.json", w.name, e.Seed, traced)), b, 0o644)
}

// sortedKeys is a deterministic iteration order for maps.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
