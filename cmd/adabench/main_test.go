package main

import (
	"errors"
	"fmt"
	"testing"
)

func TestRunnersRegistered(t *testing.T) {
	want := []string{"cache", "fabric", "fig1a", "fig1b", "fig1c", "fig5",
		"fig6", "fig7a", "fig7b", "fig7c", "fig8", "fig9", "fig10", "lookup",
		"recovery", "roundbench", "serve", "table2", "tenant", "tiered", "xcp"}
	for _, name := range want {
		if _, ok := runners[name]; !ok {
			t.Errorf("experiment %q not registered", name)
		}
	}
	if len(runners) != len(want) {
		t.Errorf("runner count = %d, want %d", len(runners), len(want))
	}
}

func TestRunFastExperiments(t *testing.T) {
	// The fast experiments must produce non-empty tables through the same
	// path main uses.
	for _, name := range []string{"fig1c", "fig6", "fig7b", "table2"} {
		out, err := runners[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) == 0 {
			t.Errorf("%s: empty output", name)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"nope"}); err == nil {
		t.Error("unknown experiment: want error")
	}
}

// TestRunReportsFloorMissAfterRest: a run that misses its wall-clock floor
// does not stop the experiments after it, and run still fails.
func TestRunReportsFloorMissAfterRest(t *testing.T) {
	ran := false
	runners["floor-miss"] = func() (string, error) { return "table", fmt.Errorf("%w: test", errBelowFloor) }
	runners["after"] = func() (string, error) { ran = true; return "table", nil }
	defer delete(runners, "floor-miss")
	defer delete(runners, "after")
	if err := run([]string{"floor-miss", "after"}); !errors.Is(err, errBelowFloor) {
		t.Fatalf("run = %v, want a floor error", err)
	}
	if !ran {
		t.Fatal("experiment after a floor miss did not run")
	}
}

func TestValidateFlags(t *testing.T) {
	tests := []struct {
		name     string
		parallel int
		wantErr  bool
	}{
		{"all cores", 0, false},
		{"sequential", 1, false},
		{"many workers", 64, false},
		{"negative workers", -1, true},
		{"very negative workers", -128, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := validateFlags(tt.parallel)
			if (err != nil) != tt.wantErr {
				t.Errorf("validateFlags(%d) = %v, wantErr %v", tt.parallel, err, tt.wantErr)
			}
		})
	}
}
