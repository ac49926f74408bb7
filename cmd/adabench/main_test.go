package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunnersRegistered(t *testing.T) {
	want := []string{"fabric", "fig1a", "fig1b", "fig1c", "fig5", "fig6",
		"fig7a", "fig7b", "fig7c", "fig8", "fig9", "fig10", "recovery",
		"round", "serve", "table2", "tenant", "tiered", "xcp"}
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
		out, res, err := runners[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) == 0 {
			t.Errorf("%s: empty output", name)
		}
		if res != nil {
			t.Errorf("%s: a paper figure returned a benchmark result", name)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"nope"}); err == nil {
		t.Error("unknown experiment: want error")
	}
}

func TestValidateFlags(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "f")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name     string
		parallel int
		out      string
		wantErr  bool
	}{
		{"all cores", 0, "", false},
		{"sequential", 1, "", false},
		{"many workers", 64, "", false},
		{"negative workers", -1, "", true},
		{"very negative workers", -128, "", true},
		{"out directory", 0, dir, false},
		{"out missing", 0, filepath.Join(dir, "missing"), true},
		{"out is a file", 0, file, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := validateFlags(tt.parallel, tt.out)
			if (err != nil) != tt.wantErr {
				t.Errorf("validateFlags(%d, %q) = %v, wantErr %v", tt.parallel, tt.out, err, tt.wantErr)
			}
		})
	}
}

// TestRunWritesBenchJSON: with -out set, run writes BENCH_<name>.json for
// every experiment that returns a result and nothing for the ones that do
// not.
func TestRunWritesBenchJSON(t *testing.T) {
	dir := t.TempDir()
	defer func(old string) { *outDir = old }(*outDir)
	*outDir = dir
	runners["with-result"] = func() (string, any, error) { return "table", []int{1, 2}, nil }
	runners["no-result"] = func() (string, any, error) { return "table", nil, nil }
	defer delete(runners, "with-result")
	defer delete(runners, "no-result")
	if err := run([]string{"with-result", "no-result"}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "BENCH_with-result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "[\n  1,\n  2\n]\n"; string(got) != want {
		t.Errorf("BENCH_with-result.json = %q, want %q", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_no-result.json")); !os.IsNotExist(err) {
		t.Errorf("a result-less experiment wrote JSON (stat: %v)", err)
	}
}
