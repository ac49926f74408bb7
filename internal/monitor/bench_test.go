package monitor

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/ada-repro/ada/internal/bitstr"
	"github.com/ada-repro/ada/internal/population"
)

// BenchmarkObserveAll times the batch observe path: 1024-sample batches of
// Zipf s = 1.1 keys over a 16-bit domain against 12 and 48 equal bins, from
// one goroutine and from GOMAXPROCS goroutines sharing the monitor. One op
// is one batch per goroutine, and ns/sample is wall time over every
// goroutine's samples; steady state must report 0 allocs/op.
func BenchmarkObserveAll(b *testing.B) {
	const width, batch = 16, 1024
	root, err := bitstr.Root(width)
	if err != nil {
		b.Fatal(err)
	}
	for _, bins := range []int{12, 48} {
		for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("bins=%d/goroutines=%d", bins, procs), func(b *testing.B) {
				m, err := New("bench", width, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.Install(population.Subdivide(root, bins)); err != nil {
					b.Fatal(err)
				}
				batches := make([][]uint64, procs)
				for g := range batches {
					z := rand.NewZipf(rand.New(rand.NewSource(int64(g+1))), 1.1, 1, 1<<width-1)
					batches[g] = make([]uint64, batch)
					for i := range batches[g] {
						batches[g][i] = z.Uint64()
					}
					m.ObserveAll(batches[g]) // warm the scratch pool and index
				}
				start := make(chan struct{})
				var wg sync.WaitGroup
				for g := 0; g < procs; g++ {
					wg.Add(1)
					go func(xs []uint64) {
						defer wg.Done()
						<-start
						for i := 0; i < b.N; i++ {
							m.ObserveAll(xs)
						}
					}(batches[g])
				}
				b.ReportAllocs()
				b.ResetTimer()
				close(start)
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*procs*batch), "ns/sample")
				if got, want := m.Stats().Matched, uint64((b.N+1)*procs*batch); got != want {
					b.Fatalf("matched %d samples, want %d", got, want)
				}
			})
		}
	}
}
