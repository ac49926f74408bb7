package arith

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/ada-repro/ada/internal/population"
)

// cacheSpeedupFloor is the least cached-over-uncached eval speedup
// BenchmarkCacheFloor accepts at Zipf s = 1.1 with a 4096-slot cache.
const cacheSpeedupFloor = 2.0

// The cached-eval benchmarks run over the width-17 exact population: 2^17
// entries give every key its own range, so an uncached lookup pays the full
// predecessor search (the dense LUT stops at 16 bits). Each skew has one
// stream of whole 4096-sample batches drawn with seed 47.
const (
	benchCacheWidth   = 17
	benchCacheBatch   = 4096
	benchCacheSamples = 400_000 / benchCacheBatch * benchCacheBatch
	benchCacheSlots   = 4096
)

// benchExactEngine installs the population NaiveUnaryRange(sqrt, 17, 2^17,
// 0, 2^17-1, Midpoint): one single-key prefix per key.
func benchExactEngine(b testing.TB) *UnaryEngine {
	b.Helper()
	const n = 1 << benchCacheWidth
	rows, err := population.NaiveUnaryRange(OpSqrt.Func(), benchCacheWidth, n, 0, n-1, population.Midpoint)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewUnaryEngine("cached-eval", benchCacheWidth, 0, rows)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// zipfStream is one skew's operands with their uncached results and misses.
type zipfStream struct {
	xs, want []uint64
	misses   int
}

func benchZipfStream(eng *UnaryEngine, s float64) zipfStream {
	xs := make([]uint64, benchCacheSamples)
	newZipf(rand.New(rand.NewSource(47)).Float64, benchCacheWidth, s).Fill(xs)
	want, misses := eng.EvalBatch(xs)
	return zipfStream{xs, want, misses}
}

// checkPass is the untimed warm-up pass of a benchmark cell: it fills sc's
// buffers and cache, fails unless sc's results and misses equal the
// uncached ones, and returns the result buffer for the timed passes.
func checkPass(b *testing.B, eng *UnaryEngine, st zipfStream, sc *Scratch) []uint64 {
	b.Helper()
	var dst []uint64
	misses := 0
	for lo := 0; lo < len(st.xs); lo += benchCacheBatch {
		var m int
		dst, m = eng.EvalBatchInto(dst, st.xs[lo:lo+benchCacheBatch], sc)
		misses += m
		for i, v := range dst {
			if v != st.want[lo+i] {
				b.Fatalf("sample %d: got %d, want %d", lo+i, v, st.want[lo+i])
			}
		}
	}
	if misses != st.misses {
		b.Fatalf("misses %d, want %d", misses, st.misses)
	}
	return dst
}

// BenchmarkCachedEval times single-thread eval of Zipf-skewed operands at
// s = 0.6, 1.1 and 1.4, uncached and with a 4096-slot lookup cache. One op
// is one 4096-sample batch; the cells cycle through their skew's stream. A
// cached cell reports the hit ratio of the lookups that probed and the share
// of lookups the cache forwarded while it stood aside. It is also the
// profiling entry point for cache work:
//
//	go test -run '^$' -bench CachedEval -cpuprofile cpu.out ./internal/arith
func BenchmarkCachedEval(b *testing.B) {
	eng := benchExactEngine(b)
	modes := []struct {
		name string
		arm  func(*Scratch)
	}{
		{"uncached", func(*Scratch) {}},
		{"cache4096", func(sc *Scratch) { sc.EnableCache(eng.Store(), benchCacheSlots) }},
	}
	for _, s := range []float64{0.6, 1.1, 1.4} {
		st := benchZipfStream(eng, s)
		for _, mode := range modes {
			b.Run(fmt.Sprintf("s=%.1f/%s", s, mode.name), func(b *testing.B) {
				var sc Scratch
				mode.arm(&sc)
				dst := checkPass(b, eng, st, &sc)
				before := sc.CacheStats()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lo := i * benchCacheBatch % len(st.xs)
					dst, _ = eng.EvalBatchInto(dst, st.xs[lo:lo+benchCacheBatch], &sc)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchCacheBatch), "ns/sample")
				after := sc.CacheStats()
				if n := after.Hits + after.Misses - before.Hits - before.Misses; n > 0 {
					b.ReportMetric(float64(after.Hits-before.Hits)/float64(n), "hit-ratio")
				}
				if mode.name != "uncached" {
					b.ReportMetric(float64(after.Bypassed-before.Bypassed)/float64(b.N*benchCacheBatch), "bypassed")
				}
			})
		}
	}
}

// BenchmarkCacheFloor is the lookup cache's speed gate. Each op times three
// uncached passes over the s = 1.1 stream and then three through a
// 4096-slot cache on the same engine, and keeps each side's median pass, so
// both sides share the machine and the run and one noisy pass moves
// neither. It reports both costs per sample and their ratio, and fails when
// the cache is less than cacheSpeedupFloor times faster. make bench-cache
// runs it.
func BenchmarkCacheFloor(b *testing.B) {
	eng := benchExactEngine(b)
	st := benchZipfStream(eng, 1.1)
	var plain, cached Scratch
	cached.EnableCache(eng.Store(), benchCacheSlots)
	checkPass(b, eng, st, &cached)
	dst := checkPass(b, eng, st, &plain)
	timed := func(sc *Scratch) time.Duration {
		start := time.Now()
		for lo := 0; lo < len(st.xs); lo += benchCacheBatch {
			dst, _ = eng.EvalBatchInto(dst, st.xs[lo:lo+benchCacheBatch], sc)
		}
		return time.Since(start)
	}
	var plainNs, cachedNs time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var p, c [3]time.Duration
		for k := range p {
			p[k] = timed(&plain)
		}
		for k := range c {
			c[k] = timed(&cached)
		}
		slices.Sort(p[:])
		slices.Sort(c[:])
		plainNs += p[1]
		cachedNs += c[1]
	}
	samples := float64(b.N * len(st.xs))
	b.ReportMetric(float64(plainNs.Nanoseconds())/samples, "uncached-ns/sample")
	b.ReportMetric(float64(cachedNs.Nanoseconds())/samples, "cached-ns/sample")
	speedup := float64(plainNs) / float64(cachedNs)
	b.ReportMetric(speedup, "speedup")
	if speedup < cacheSpeedupFloor {
		b.Fatalf("cached eval %.2fx faster than uncached at s=1.1 with %d slots, floor %.0fx",
			speedup, benchCacheSlots, cacheSpeedupFloor)
	}
}
