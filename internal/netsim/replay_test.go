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
