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
// incremental round must recompute and write nothing, no churn level may
// recompute more than full repopulation, and every churn level above 0
// must rewrite the table, with incremental and full rounds writing the same
// rows. The speed floor (≥5× over full repopulation at the 1024-entry
// budget) is core's BenchmarkRoundFloor (make bench-round).
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
		if r.Churn > 0 && (r.IncWrites == 0 || r.IncWrites != r.FullWrites) {
			t.Errorf("churn %.2f: incremental wrote %.1f TCAM rows a round and full %.1f, want equal and above 0",
				r.Churn, r.IncWrites, r.FullWrites)
		}
		if r.IncComputed > r.FullComputed {
			t.Errorf("churn %.2f: incremental computed %.1f > full %.1f",
				r.Churn, r.IncComputed, r.FullComputed)
		}
	}
}
