package experiments

import (
	"testing"
)

// shortRoundBenchConfig shrinks the sweep so CI's short mode stays fast
// while still covering the converged and fully-churned endpoints.
func shortRoundBenchConfig() RoundBenchConfig {
	cfg := DefaultRoundBenchConfig()
	cfg.ChurnLevels = []float64{0, 1}
	cfg.Rounds = 8
	cfg.Warmup = 3
	cfg.CalcBudget = 256
	return cfg
}

// TestRoundBenchAcceptance runs the acceptance sweep: a converged (0% churn)
// incremental round must recompute and write nothing, and no churn level
// may recompute more than full repopulation. The wall-clock floor (≥5× over
// full repopulation at the 1024-entry budget) is enforced by
// `adabench round` (make bench-round), which exits non-zero below it.
func TestRoundBenchAcceptance(t *testing.T) {
	cfg := DefaultRoundBenchConfig()
	if testing.Short() {
		cfg = shortRoundBenchConfig()
	}
	rows, err := RunRoundBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderRoundBench(rows))
	for _, r := range rows {
		if r.Churn == 0 {
			if r.IncComputed != 0 {
				t.Errorf("converged round recomputed %.1f entries, want 0", r.IncComputed)
			}
			if r.IncWrites != 0 {
				t.Errorf("converged round wrote %.1f TCAM entries, want 0", r.IncWrites)
			}
		}
		if r.IncComputed > r.FullComputed {
			t.Errorf("churn %.2f: incremental computed %.1f > full %.1f",
				r.Churn, r.IncComputed, r.FullComputed)
		}
	}
}

// BenchmarkRoundIncremental and BenchmarkRoundFull expose the converged
// control round to `go test -bench` (the make bench-round target).
func benchmarkRound(b *testing.B, incremental bool) {
	cfg := DefaultRoundBenchConfig()
	cfg.CalcBudget = 256
	sys, err := roundBenchSystem(cfg, incremental)
	if err != nil {
		b.Fatal(err)
	}
	var buf []uint64
	for i := 0; i < cfg.Warmup; i++ {
		buf = roundBenchFeed(sys, cfg.BaseCount, 0, i, buf)
		sys.ObserveAll(buf)
		if _, err := sys.Controller().Round(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		buf = roundBenchFeed(sys, cfg.BaseCount, 0, i, buf)
		sys.ObserveAll(buf)
		b.StartTimer()
		if _, err := sys.Controller().Round(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundIncremental(b *testing.B) { benchmarkRound(b, true) }

func BenchmarkRoundFull(b *testing.B) { benchmarkRound(b, false) }
