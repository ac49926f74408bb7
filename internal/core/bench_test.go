package core

import (
	"testing"
	"time"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/dist"
)

// BenchmarkLookup measures the per-packet data-plane path: one monitoring
// TCAM match + register increment + one calculation TCAM lookup.
func BenchmarkLookup(b *testing.B) {
	cfg := DefaultConfig(16)
	sys, err := NewUnary(cfg, arith.OpSquare)
	if err != nil {
		b.Fatal(err)
	}
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 200}, Lo: 0, Hi: 1 << 16},
		1<<16-1, 1)
	keys := sampler.Draw(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Lookup(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSync measures one full control round: register read, Algorithm 2
// reshaping, Algorithm 3 repopulation, delta TCAM writes, register reset.
func BenchmarkSync(b *testing.B) {
	cfg := DefaultConfig(16)
	sys, err := NewUnary(cfg, arith.OpSquare)
	if err != nil {
		b.Fatal(err)
	}
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 200}, Lo: 0, Hi: 1 << 16},
		1<<16-1, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, v := range sampler.Draw(500) {
			sys.Observe(v)
		}
		b.StartTimer()
		if _, err := sys.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveEvalUnary measures the batched data-plane hot path for a
// single-operand system: one ObserveEvalAll call per iteration over a
// 1024-sample batch through caller-owned buffers. The interesting numbers
// are ns/sample (ns/op ÷ 1024) and the 0 allocs/op steady-state contract.
func BenchmarkObserveEvalUnary(b *testing.B) {
	sys, xs := warmedUnary(b, 21)
	xs = xs[:1024]
	var sc arith.Scratch
	var dst []uint64
	dst, _ = sys.ObserveEvalAll(dst, xs, &sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = sys.ObserveEvalAll(dst, xs, &sc)
	}
	_ = dst
}

// BenchmarkObserveEvalBinary is the two-operand variant: both monitors
// observe and the pair stream packs into the flat two-field key buffer.
func BenchmarkObserveEvalBinary(b *testing.B) {
	sys, xs, ys := warmedBinary(b, 22)
	xs, ys = xs[:1024], ys[:1024]
	var sc arith.Scratch
	var dst []uint64
	dst, _ = sys.ObserveEvalAll(dst, xs, ys, &sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = sys.ObserveEvalAll(dst, xs, ys, &sc)
	}
	_ = dst
}

// roundSpeedupFloor is the least ratio BenchmarkRoundFloor accepts between
// a full repopulation and a converged incremental control round at a
// 1024-entry calculation budget.
const roundSpeedupFloor = 5.0

// BenchmarkRoundFloor is the incremental round's speed gate. Two unary
// systems with 64 pinned monitoring bins and a 1024-entry budget see the
// same operands every round (100 hits on each bin), so their tries converge:
// one commits incrementally, the other repopulates in full
// (DisableIncremental). Each op runs one round of each, timed separately,
// so both sides share the machine and the run. It reports both per-round
// costs and their ratio, and fails when full repopulation is less than
// roundSpeedupFloor times slower. make bench-round runs it.
func BenchmarkRoundFloor(b *testing.B) {
	mk := func(incremental bool) *UnarySystem {
		cfg := DefaultConfig(16)
		cfg.MonitorEntries = 64
		cfg.MaxMonitorEntries = 64
		cfg.CalcEntries = 1024
		cfg.DisableIncremental = !incremental
		sys, err := NewUnary(cfg, arith.OpSquare)
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}
	inc, full := mk(true), mk(false)
	var buf []uint64
	round := func(sys *UnarySystem) time.Duration {
		buf = buf[:0]
		for _, p := range sys.Controller().Monitor().Prefixes() {
			for j := 0; j < 100; j++ {
				buf = append(buf, p.Lo())
			}
		}
		sys.ObserveAll(buf)
		start := time.Now()
		if _, err := sys.Controller().Round(); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	for i := 0; i < 5; i++ {
		round(inc)
		round(full)
	}
	var incNs, fullNs time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		incNs += round(inc)
		fullNs += round(full)
	}
	b.StopTimer()
	if inc.Engine().Table().Fingerprint() != full.Engine().Table().Fingerprint() {
		b.Fatal("incremental and full tables diverged")
	}
	b.ReportMetric(float64(incNs.Nanoseconds())/float64(b.N), "inc-ns/round")
	b.ReportMetric(float64(fullNs.Nanoseconds())/float64(b.N), "full-ns/round")
	speedup := float64(fullNs) / float64(incNs)
	b.ReportMetric(speedup, "speedup")
	if speedup < roundSpeedupFloor {
		b.Fatalf("full repopulation only %.1fx slower than a converged incremental round, floor %.0fx",
			speedup, roundSpeedupFloor)
	}
}
