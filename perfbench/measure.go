package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/ada-repro/ada/internal/arith"
)

// durations collects per-operation latencies.
type durations []time.Duration

// quantile is the nearest-rank q-quantile (0 when empty). It sorts d.
func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(math.Ceil(q*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	return d[i]
}

func (d durations) mean() time.Duration {
	if len(d) == 0 {
		return 0
	}
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return s / time.Duration(len(d))
}

// floatQuantile is the nearest-rank q-quantile of xs (0 when empty). It sorts
// xs.
func floatQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB forces a collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// memCounters snapshots the allocation and GC-pause counters.
type memCounters struct {
	mallocs uint64
	pauseNs uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}

// errSampleStride picks the scored results of a batch: every
// errSampleStride-th sample, copied after the batch's timer stopped and
// scored against the exact operation after the run.
const errSampleStride = 64

// heapDelta returns the live heap, in MiB, that drop releases: the heap
// retained by the system under test, without the benchmark's own inputs and
// sample buffers.
func heapDelta(drop func()) float64 {
	before := liveHeapMiB()
	drop()
	return before - liveHeapMiB()
}

// errSample is one scored (operand, served result) pair; binary samples set
// y too.
type errSample struct {
	x, y, got uint64
}

// relErrors scores unary samples against the exact operation.
func relErrorsUnary(op arith.UnaryOp, ss []errSample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = arith.RelError(s.got, op.Exact(s.x))
	}
	return out
}

// relErrorsBinary scores binary samples against the exact operation.
func relErrorsBinary(op arith.BinaryOp, ss []errSample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = arith.RelError(s.got, op.Exact(s.x, s.y))
	}
	return out
}
