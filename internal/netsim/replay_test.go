package netsim

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestReplayCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 4, 7, 100} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			var mu sync.Mutex
			seen := make([]int, n)
			Replay(workers, n, func(_, lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("workers=%d n=%d: bad shard [%d, %d)", workers, n, lo, hi)
					return
				}
				mu.Lock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				mu.Unlock()
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestReplayWorkerShards checks every shard reports a distinct worker index
// in [0, workers), the contract per-worker scratch buffers rely on.
func TestReplayWorkerShards(t *testing.T) {
	for _, workers := range []int{1, 3, 4, 7} {
		const n = 1237
		var mu sync.Mutex
		seen := make(map[int]bool)
		var total atomic.Uint64
		Replay(workers, n, func(w, lo, hi int) {
			mu.Lock()
			if w < 0 || w >= workers || seen[w] {
				t.Errorf("workers=%d: bad or repeated worker index %d", workers, w)
			}
			seen[w] = true
			mu.Unlock()
			total.Add(uint64(hi - lo))
		})
		if len(seen) != workers || total.Load() != n {
			t.Errorf("workers=%d: %d shards covering %d indices, want %d covering %d", workers, len(seen), total.Load(), workers, n)
		}
	}
}

// TestShardedReplayAllocs pins where ShardedReplay allocates: never per
// sample. A one-worker call allocates nothing, and a multi-worker call pays
// only its goroutine fan-out, a fixed count that does not grow with the
// stream.
func TestShardedReplayAllocs(t *testing.T) {
	route := func(v uint64) int { return int(v % 4) }
	fn := func(worker, shard int, batch []uint64) {}
	allocs := func(workers, n int) float64 {
		vs := make([]uint64, n)
		for i := range vs {
			vs[i] = uint64(i)
		}
		r := NewShardedReplay(4, 256)
		r.Replay(workers, vs, route, fn) // size the reused buffers
		return testing.AllocsPerRun(20, func() { r.Replay(workers, vs, route, fn) })
	}
	if got := allocs(1, 4096); got != 0 {
		t.Errorf("one worker: %v allocs per call, want 0", got)
	}
	small, large := allocs(8, 4096), allocs(8, 65536)
	if small != large {
		t.Errorf("eight workers: %v allocs per call at 4096 samples, %v at 65536; want equal", small, large)
	}
	t.Logf("eight workers: %v allocs per call", small)
}
