package main

import (
	"runtime"
	"time"

	"github.com/ada-repro/ada/internal/core"
)

// roundStats accumulates the SyncReport counts of a pass's control rounds.
// n counts rounds as the workload defines them (one Sync, one control step,
// or one tenant round), so the per-round means divide by it.
type roundStats struct {
	n                                  int
	computed, reused, tcamWrites, sram int
	rebalances, expansions, retries    int
	degraded, audits, auditMismatches  int
	delay                              time.Duration
}

func (s *roundStats) add(rep core.SyncReport) {
	s.computed += rep.Computed
	s.reused += rep.Reused
	s.tcamWrites += rep.TCAMWrites
	s.sram += rep.SRAMWrites
	s.rebalances += rep.Rebalances
	s.retries += rep.Retries
	s.delay += rep.Delay
	if rep.Expanded {
		s.expansions++
	}
	if rep.Degraded {
		s.degraded++
	}
	if rep.AuditRan {
		s.audits++
		s.auditMismatches += rep.Audit.Mismatched()
	}
}

// fill writes the per-round count metrics and the modelled delay.
func (s *roundStats) fill(r *runResult) {
	if s.n == 0 {
		return
	}
	n := float64(s.n)
	r.e2e["tcam_writes_per_round"] = float64(s.tcamWrites) / n
	r.layer["core.tcam_writes_per_round"] = float64(s.tcamWrites) / n
	r.layer["core.computed_per_round"] = float64(s.computed) / n
	r.layer["core.reused_per_round"] = float64(s.reused) / n
	if s.computed+s.reused > 0 {
		r.layer["core.reuse_ratio"] = float64(s.reused) / float64(s.computed+s.reused)
	}
	r.layer["core.sram_writes_per_round"] = float64(s.sram) / n
	r.layer["core.rebalances_per_round"] = float64(s.rebalances) / n
	r.layer["core.expansions"] = float64(s.expansions)
	r.layer["core.retries"] = float64(s.retries)
	r.layer["core.degraded_rounds"] = float64(s.degraded)
	r.layer["controlplane.modelled_delay_us"] = us(s.delay) / n
	r.counts["tcam_writes_per_round"] = s.n
	if s.degraded > 0 {
		r.failed += s.degraded
		r.problem("%d degraded control rounds", s.degraded)
	}
	if s.auditMismatches > 0 {
		r.problem("periodic audits found %d mismatched rows", s.auditMismatches)
	}
}

// fillLatency writes the <prefix>_p50_<unit> and <prefix>_mean_<unit>
// end-to-end metrics from ds, and the tail.<prefix>_p99_<unit> per-layer
// metric, each with its sample count; unit is "us" or "ms".
func fillLatency(r *runResult, prefix string, ds durations, unit string) {
	scale := float64(time.Microsecond)
	if unit == "ms" {
		scale = float64(time.Millisecond)
	}
	p50, mean, p99 := prefix+"_p50_"+unit, prefix+"_mean_"+unit, "tail."+prefix+"_p99_"+unit
	r.e2e[p50] = float64(ds.quantile(0.5)) / scale
	r.e2e[mean] = float64(ds.mean()) / scale
	r.layer[p99] = float64(ds.quantile(0.99)) / scale
	for _, name := range []string{p50, mean, p99} {
		r.counts[name] = len(ds)
	}
}

// fillErrors writes err_mean and err_p99 from scored samples.
func fillErrors(r *runResult, errs []float64) {
	r.e2e["err_mean"] = meanOf(errs)
	r.e2e["err_p99"] = floatQuantile(errs, 0.99)
	r.counts["err_mean"] = len(errs)
	r.counts["err_p99"] = len(errs)
}

// setupTimer runs build setups times and sets setup_s to the median
// duration; it returns the last build's value.
func setupTimer[T any](r *runResult, setups int, build func() (T, error), discard func(T)) (T, error) {
	var last T
	ds := make(durations, 0, setups)
	for i := 0; i < setups; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		runtime.GC() // start every build from the same collector state
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		ds = append(ds, time.Since(start))
		last = v
	}
	r.e2e["setup_s"] = ds.quantile(0.5).Seconds()
	r.counts["setup_s"] = len(ds)
	return last, nil
}
