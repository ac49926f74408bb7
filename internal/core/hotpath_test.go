package core

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ada-repro/ada/internal/arith"
	"github.com/ada-repro/ada/internal/dist"
	"github.com/ada-repro/ada/internal/netsim"
)

func warmedUnary(t testing.TB, seed int64) (*UnarySystem, []uint64) {
	t.Helper()
	sys, err := NewUnary(DefaultConfig(16), arith.OpSquare)
	if err != nil {
		t.Fatal(err)
	}
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 200}, Lo: 0, Hi: 1 << 16},
		1<<16-1, seed)
	warm := sampler.Draw(4096)
	for round := 0; round < 2; round++ {
		sys.ObserveAll(warm)
		if _, err := sys.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	return sys, sampler.Draw(32768)
}

func warmedBinary(t testing.TB, seed int64) (*BinarySystem, []uint64, []uint64) {
	t.Helper()
	sys, err := NewBinary(DefaultConfig(16), arith.OpMul)
	if err != nil {
		t.Fatal(err)
	}
	sampler := dist.NewIntSampler(
		dist.Truncated{D: dist.Gaussian{Mu: 4000, Sigma: 200}, Lo: 0, Hi: 1 << 16},
		1<<16-1, seed)
	warmX, warmY := sampler.Draw(4096), sampler.Draw(4096)
	for round := 0; round < 2; round++ {
		sys.ObserveAll(warmX, warmY)
		if _, err := sys.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	return sys, sampler.Draw(16384), sampler.Draw(16384)
}

// TestConcurrentObserveEvalMatchesSequential replays one sample stream
// through ObserveEvalAll twice — single-threaded in order, then sharded
// across Replay workers in per-worker sub-batches with per-worker scratch —
// and requires the
// two runs to agree sample-for-sample on results and misses and end with
// identical register snapshots and monitor stats. This is the differential
// proof that the striped, typed hot path is bit-identical under contention.
func TestConcurrentObserveEvalMatchesSequential(t *testing.T) {
	const batch = 512

	seqSys, xs := warmedUnary(t, 11)
	seqRes := make([]uint64, len(xs))
	var seqMiss int
	var sc arith.Scratch
	var dst []uint64
	for lo := 0; lo < len(xs); lo += batch {
		hi := lo + batch
		if hi > len(xs) {
			hi = len(xs)
		}
		var m int
		dst, m = seqSys.ObserveEvalAll(dst, xs[lo:hi], &sc)
		copy(seqRes[lo:hi], dst)
		seqMiss += m
	}
	seqSnap := seqSys.Controller().Monitor().SnapshotAndReset()
	seqStats := seqSys.Controller().Monitor().Stats()

	const workers = 4
	concSys, xs2 := warmedUnary(t, 11)
	concRes := make([]uint64, len(xs2))
	var concMiss atomic.Int64
	scs := make([]arith.Scratch, workers)
	dsts := make([][]uint64, workers)
	netsim.Replay(workers, len(xs2), func(w, lo, hi int) {
		for off := lo; off < hi; off += batch {
			end := min(off+batch, hi)
			out, m := concSys.ObserveEvalAll(dsts[w], xs2[off:end], &scs[w])
			dsts[w] = out
			copy(concRes[off:end], out)
			concMiss.Add(int64(m))
		}
	})
	concSnap := concSys.Controller().Monitor().SnapshotAndReset()
	concStats := concSys.Controller().Monitor().Stats()

	if int(concMiss.Load()) != seqMiss {
		t.Errorf("concurrent misses = %d, sequential %d", concMiss.Load(), seqMiss)
	}
	for i := range seqRes {
		if concRes[i] != seqRes[i] {
			t.Fatalf("sample %d (x=%d): concurrent result %d, sequential %d",
				i, xs[i], concRes[i], seqRes[i])
		}
	}
	if len(concSnap) != len(seqSnap) {
		t.Fatalf("snapshot length %d vs %d", len(concSnap), len(seqSnap))
	}
	for i := range seqSnap {
		if concSnap[i] != seqSnap[i] {
			t.Fatalf("register %d: concurrent %d, sequential %d", i, concSnap[i], seqSnap[i])
		}
	}
	if concStats.Observations != seqStats.Observations || concStats.Matched != seqStats.Matched {
		t.Errorf("stats diverge: concurrent %+v, sequential %+v", concStats, seqStats)
	}
}

// TestConcurrentObserveEvalBinary: same identity for the two-operand path,
// shards paired manually so each worker owns an aligned (xs, ys) range.
func TestConcurrentObserveEvalBinary(t *testing.T) {
	const batch = 512

	seqSys, xs, ys := warmedBinary(t, 12)
	seqRes := make([]uint64, len(xs))
	var seqMiss int
	var sc arith.Scratch
	var dst []uint64
	for lo := 0; lo < len(xs); lo += batch {
		hi := lo + batch
		if hi > len(xs) {
			hi = len(xs)
		}
		var m int
		dst, m = seqSys.ObserveEvalAll(dst, xs[lo:hi], ys[lo:hi], &sc)
		copy(seqRes[lo:hi], dst)
		seqMiss += m
	}
	seqX := seqSys.ControllerX().Monitor().SnapshotAndReset()
	seqY := seqSys.ControllerY().Monitor().SnapshotAndReset()

	concSys, xs2, ys2 := warmedBinary(t, 12)
	concRes := make([]uint64, len(xs2))
	var concMiss atomic.Int64
	var wg sync.WaitGroup
	const workers = 4
	chunk := (len(xs2) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(xs2) {
			hi = len(xs2)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var sc arith.Scratch
			var dst []uint64
			for b := lo; b < hi; b += batch {
				e := b + batch
				if e > hi {
					e = hi
				}
				var m int
				dst, m = concSys.ObserveEvalAll(dst, xs2[b:e], ys2[b:e], &sc)
				copy(concRes[b:e], dst)
				concMiss.Add(int64(m))
			}
		}(lo, hi)
	}
	wg.Wait()
	concX := concSys.ControllerX().Monitor().SnapshotAndReset()
	concY := concSys.ControllerY().Monitor().SnapshotAndReset()

	if int(concMiss.Load()) != seqMiss {
		t.Errorf("concurrent misses = %d, sequential %d", concMiss.Load(), seqMiss)
	}
	for i := range seqRes {
		if concRes[i] != seqRes[i] {
			t.Fatalf("sample %d: concurrent result %d, sequential %d", i, concRes[i], seqRes[i])
		}
	}
	for i := range seqX {
		if concX[i] != seqX[i] {
			t.Fatalf("X register %d: concurrent %d, sequential %d", i, concX[i], seqX[i])
		}
	}
	for i := range seqY {
		if concY[i] != seqY[i] {
			t.Fatalf("Y register %d: concurrent %d, sequential %d", i, concY[i], seqY[i])
		}
	}
}

// TestObserveEvalAllocFree pins the zero-allocation contract: once the
// caller's dst/Scratch and the monitor's pooled buffers are warm, a full
// observe+eval batch allocates nothing on either path. GC is paused for the
// measurement so a pool clear cannot masquerade as a steady-state alloc.
func TestObserveEvalAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector runtime allocates per batch")
	}
	uni, xs := warmedUnary(t, 13)
	bin, bx, by := warmedBinary(t, 14)
	xs, bx, by = xs[:1024], bx[:1024], by[:1024]

	var sc arith.Scratch
	var dst []uint64
	dst, _ = uni.ObserveEvalAll(dst, xs, &sc)
	var bsc arith.Scratch
	var bdst []uint64
	bdst, _ = bin.ObserveEvalAll(bdst, bx, by, &bsc)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(50, func() {
		dst, _ = uni.ObserveEvalAll(dst, xs, &sc)
	}); allocs != 0 {
		t.Errorf("unary ObserveEvalAll allocates %.1f objects/batch, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		bdst, _ = bin.ObserveEvalAll(bdst, bx, by, &bsc)
	}); allocs != 0 {
		t.Errorf("binary ObserveEvalAll allocates %.1f objects/batch, want 0", allocs)
	}
}
