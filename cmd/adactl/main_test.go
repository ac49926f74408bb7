package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestBadFlagsAreUsageErrors pins the validation sweep: flag values that
// parse but make no sense must come back as usageError (exit 2 in main),
// before any work runs.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"zero width", []string{"-width", "0", "-values", "1"}},
		{"negative width", []string{"-width", "-4", "-values", "1"}},
		{"width above 64", []string{"-width", "65", "-values", "1"}},
		{"zero monitor budget", []string{"-monitor", "0", "-values", "1"}},
		{"negative monitor budget", []string{"-monitor", "-12", "-values", "1"}},
		{"zero calc budget", []string{"-calc", "0", "-values", "1"}},
		{"negative calc budget", []string{"-calc", "-64", "-values", "1"}},
		{"zero rounds", []string{"-rounds", "0", "-values", "1"}},
		{"negative rounds", []string{"-rounds", "-3", "-values", "1"}},
		{"negative threshold", []string{"-th-balance", "-0.1", "-values", "1"}},
		{"threshold above one", []string{"-th-balance", "1.5", "-values", "1"}},
		{"negative audit cadence", []string{"-audit", "-2", "-faults", "default", "-values", "1"}},
		{"audit without faults", []string{"-audit", "2", "-values", "1"}},
		{"unknown op", []string{"-op", "cube", "-values", "1"}},
		{"negative fault rate", []string{"-faults", "seed=7,write=-0.5", "-values", "1"}},
		{"malformed fault spec", []string{"-faults", "bogus=1", "-values", "1"}},
		{"unknown flag", []string{"-no-such-flag", "-values", "1"}},
		{"negative fabric", []string{"-fabric", "-2", "-values", "1"}},
		{"zero fabric tenants", []string{"-fabric", "4", "-fabric-tenants", "0", "-values", "1"}},
		{"zero fabric workers", []string{"-fabric", "4", "-fabric-workers", "0", "-values", "1"}},
		{"negative migrate cadence", []string{"-fabric", "4", "-fabric-migrate", "-1", "-values", "1"}},
		{"fabric tenants without fabric", []string{"-fabric-tenants", "6", "-values", "1"}},
		{"fabric workers without fabric", []string{"-fabric-workers", "2", "-values", "1"}},
		{"fabric migrate without fabric", []string{"-fabric-migrate", "2", "-values", "1"}},
		{"audit with fabric", []string{"-fabric", "4", "-faults", "default", "-audit", "2", "-values", "1"}},
		{"fabric width above 32", []string{"-fabric", "4", "-width", "40", "-values", "1"}},
		{"bad fabric fault spec", []string{"-fabric", "4", "-faults", "bogus=1", "-values", "1"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tt.args, strings.NewReader(""), &out)
			if err == nil {
				t.Fatalf("run(%v): want usage error, got nil", tt.args)
			}
			var ue usageError
			if !errors.As(err, &ue) {
				t.Fatalf("run(%v): got %v (%T), want usageError", tt.args, err, err)
			}
		})
	}
	// Runtime failures must NOT be usage errors: an empty trace is bad input
	// data, not bad flags.
	var out strings.Builder
	err := run([]string{"-values", ""}, strings.NewReader(""), &out)
	if err == nil {
		t.Fatal("empty trace: want error")
	}
	var ue usageError
	if errors.As(err, &ue) {
		t.Fatalf("empty trace classified as usage error: %v", err)
	}
}

func TestRunInlineValues(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-op", "double", "-width", "8", "-monitor", "8", "-calc", "16",
		"-values", "94,94,94,94,94,94,47,47,47",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Monitoring TCAM") || !strings.Contains(s, "Calculation TCAM") {
		t.Fatalf("missing sections:\n%s", s)
	}
	if !strings.Contains(s, "2x") {
		t.Errorf("operation name missing:\n%s", s)
	}
}

func TestRunStdinTrace(t *testing.T) {
	var out strings.Builder
	trace := "10\n10 10\n12\n"
	if err := run([]string{"-op", "square", "-width", "8", "-monitor", "4", "-calc", "8"},
		strings.NewReader(trace), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "4 samples") {
		t.Errorf("sample count missing:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-op", "nope", "-values", "1"}, strings.NewReader(""), &out); err == nil {
		t.Error("unknown op: want error")
	}
	if err := run([]string{"-values", ""}, strings.NewReader(""), &out); err == nil {
		t.Error("empty trace: want error")
	}
	if err := run([]string{"-values", "abc"}, strings.NewReader(""), &out); err == nil {
		t.Error("bad value: want error")
	}
	if err := run([]string{"-width", "99", "-values", "1"}, strings.NewReader(""), &out); err == nil {
		t.Error("bad width: want error")
	}
}

func TestReadTraceWhitespace(t *testing.T) {
	vals, err := readTrace(strings.NewReader(" 1  2\n\n3 "), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != 1 || vals[2] != 3 {
		t.Fatalf("vals = %v", vals)
	}
	vals, err = readTrace(nil, "5, 6 ,7")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[1] != 6 {
		t.Fatalf("inline vals = %v", vals)
	}
}

func TestRunWithFaultProfile(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-op", "square", "-width", "12", "-monitor", "8", "-calc", "32", "-rounds", "6",
		"-faults", "seed=7,write=0.5,stale=0.2",
		"-values", "900,900,900,900,900,900,900,12,12,3000,3000,3000",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Fault-injected replay", "injected:", "degraded rounds:", "Final monitoring TCAM", "calculation TCAM:"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in output:\n%s", want, s)
		}
	}
	// Equal seeds replay identically.
	var out2 strings.Builder
	if err := run([]string{
		"-op", "square", "-width", "12", "-monitor", "8", "-calc", "32", "-rounds", "6",
		"-faults", "seed=7,write=0.5,stale=0.2",
		"-values", "900,900,900,900,900,900,900,12,12,3000,3000,3000",
	}, strings.NewReader(""), &out2); err != nil {
		t.Fatal(err)
	}
	if out2.String() != s {
		t.Error("seeded fault replay not deterministic")
	}

	if err := run([]string{"-faults", "bogus=1", "-values", "1"}, strings.NewReader(""), &out); err == nil {
		t.Error("bad fault spec: want error")
	}
}

// fabricTrace is a deterministic mixed-range trace long enough for several
// fabric rounds.
func fabricTrace() string {
	var sb strings.Builder
	for i := 0; i < 240; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", 200+(i*137)%3300)
	}
	return sb.String()
}

func TestRunFabric(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-op", "square", "-width", "12", "-monitor", "8", "-calc", "64", "-rounds", "5",
		"-fabric", "4", "-fabric-tenants", "3", "-values", fabricTrace(),
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Fabric replay", "4 switches x 3 tenants", "Final placement", "t00", "t02"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in output:\n%s", want, s)
		}
	}
	if strings.Contains(s, "injected across") {
		t.Errorf("fault summary printed without -faults:\n%s", s)
	}
}

func TestRunFabricWithFaults(t *testing.T) {
	args := []string{
		"-op", "sqrt", "-width", "12", "-monitor", "8", "-calc", "96", "-rounds", "4",
		"-fabric", "2", "-fabric-tenants", "4",
		"-faults", "seed=7,write=0.3,latency=300us", "-values", fabricTrace(),
	}
	var out strings.Builder
	if err := run(args, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"per-switch faults", "injected across 2 switch drivers", "write failures"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in output:\n%s", want, s)
		}
	}
	// The injectors must actually have fired once armed: at write=0.3 over
	// four control rounds a zero count means the fault seam was bypassed.
	if strings.Contains(s, " 0 write failures") {
		t.Errorf("no write failures injected at write=0.3:\n%s", s)
	}
}

// TestRunFabricFaultsDeterministic: a switch runs its tenants' rounds
// concurrently, so each tenant controller's driver has its own injector,
// and the same faulted fabric replay prints the same output every time.
func TestRunFabricFaultsDeterministic(t *testing.T) {
	args := []string{
		"-op", "sqrt", "-width", "12", "-monitor", "8", "-calc", "96", "-rounds", "8",
		"-fabric", "2", "-fabric-tenants", "8", "-faults", "seed=7,write=0.3", "-values", fabricTrace(),
	}
	var first string
	for i := 0; i < 5; i++ {
		var out strings.Builder
		if err := run(args, strings.NewReader(""), &out); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("replay %d printed:\n%s\nreplay 0 printed:\n%s", i, out.String(), first)
		}
	}
}

func TestRunWithAudit(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-op", "square", "-width", "12", "-monitor", "8", "-calc", "32", "-rounds", "8",
		"-faults", "seed=11,corrupt=1,ghost=0.5", "-audit", "2",
		"-values", "900,900,900,900,900,900,900,900,12,12,12,12,3000,3000,3000,3000",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"audit", "tampered:", "audits:", "repair writes"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in output:\n%s", want, s)
		}
	}
	if strings.Contains(s, "audits: 0 ran") {
		t.Errorf("no audits ran with -audit 2 over 8 rounds:\n%s", s)
	}
	if strings.Contains(s, "audits: 0 ran") || strings.Contains(s, " 0 divergent rows") {
		t.Errorf("audits saw no divergence despite corrupt=1 tampering:\n%s", s)
	}

	// -audit without -faults is a usage error: there is no hardware to
	// diverge from the shadow in the offline path.
	if err := run([]string{"-audit", "2", "-values", "1"}, strings.NewReader(""), &out); err == nil {
		t.Error("-audit without -faults: want error")
	}
}
