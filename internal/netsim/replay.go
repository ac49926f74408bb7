package netsim

import (
	"runtime"
	"sync"
)

// Replay runs fn over the index range [0, n) split into one contiguous
// shard per worker. It is the packet-replay harness for feeding observed
// operand streams into the ADA monitoring path from several goroutines at
// once — the event-driven simulator itself stays single-threaded; only the
// replay of already-generated samples parallelises.
//
// workers <= 0 selects GOMAXPROCS, and never more workers than n run.
// Shards are contiguous and cover [0, n) exactly once, so any per-index
// work is done exactly once regardless of the worker count. fn receives
// its worker number, in [0, workers) and distinct across concurrent calls,
// so a caller can keep one set of scratch buffers per worker; fn must be
// safe to call concurrently for distinct workers. Register increments are
// commutative, so a monitor fed this way ends in the same state as a
// sequential replay.
func Replay(workers, n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w, lo := 0, 0; lo < n; w, lo = w+1, lo+chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// ShardedReplay fans one sample stream across shards (e.g. the switches of
// a fabric) from several workers at once. Each worker owns a contiguous
// slice of the stream, routes every sample to a shard, and accumulates
// per-shard batches in buffers owned by that (worker, shard) pair — flushed
// to fn whenever one reaches batchSize and at end of stream. The buffers
// live on the ShardedReplay and are reused across Replay calls, so the
// steady-state fan-out allocates nothing per sample: a one-worker call
// allocates nothing at all, and a multi-worker call makes a fixed
// 2·workers+2 allocations (Go 1.24) for Replay's goroutine fan-out,
// whatever the stream's length. fn receives batches for distinct workers
// concurrently and must tolerate that (distinct shards may also arrive
// concurrently — from distinct workers).
type ShardedReplay struct {
	shards    int
	batchSize int
	bufs      [][][]uint64 // [worker][shard] reused batch buffers
}

// NewShardedReplay sizes the fan-out: shards is the routing-target count,
// batchSize the flush threshold (<= 0 selects 1024).
func NewShardedReplay(shards, batchSize int) *ShardedReplay {
	if shards < 1 {
		shards = 1
	}
	if batchSize <= 0 {
		batchSize = 1024
	}
	return &ShardedReplay{shards: shards, batchSize: batchSize}
}

// Replay routes vs across shards from `workers` goroutines, splitting the
// stream with the package-level Replay. route maps a sample to its shard
// (must be pure and in [0, shards)); fn consumes one worker's batch for one
// shard. Every sample is delivered exactly once, in stream order within a
// (worker, shard) pair.
func (r *ShardedReplay) Replay(workers int, vs []uint64, route func(uint64) int, fn func(worker, shard int, batch []uint64)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(vs))
	for len(r.bufs) < workers {
		r.bufs = append(r.bufs, make([][]uint64, r.shards))
	}
	switch workers {
	case 0:
	case 1:
		// The one-worker pass is the steady-state ingest path; calling
		// runShard directly keeps it free of Replay's closure allocation.
		r.runShard(0, vs, route, fn)
	default:
		Replay(workers, len(vs), func(w, lo, hi int) {
			r.runShard(w, vs[lo:hi], route, fn)
		})
	}
}

func (r *ShardedReplay) runShard(w int, shard []uint64, route func(uint64) int, fn func(worker, shard int, batch []uint64)) {
	bufs := r.bufs[w]
	for _, v := range shard {
		s := route(v)
		bufs[s] = append(bufs[s], v)
		if len(bufs[s]) >= r.batchSize {
			fn(w, s, bufs[s])
			bufs[s] = bufs[s][:0]
		}
	}
	for s, b := range bufs {
		if len(b) > 0 {
			fn(w, s, b)
			bufs[s] = b[:0]
		}
	}
}
