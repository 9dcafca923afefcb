package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"doppio/internal/bench"
	"doppio/internal/browser"
	"doppio/internal/telemetry"
)

// TestMain doubles as the doppio-bench binary when DOPPIO_BENCH_MAIN
// is set, with one extra A/B whose only check always fails, so a test
// can observe the real process exit status.
func TestMain(m *testing.M) {
	if os.Getenv("DOPPIO_BENCH_MAIN") != "" {
		bench.ABs["failing"] = func(cfg bench.Config) (*bench.Report, error) {
			return &bench.Report{Name: "failing", Seed: cfg.Seed,
				Checks: []bench.Check{{Name: "impossible", Detail: "fails by construction"}}}, nil
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestABCheckExitStatus runs doppio-bench -ab on an A/B with a failed
// check: the report is written either way, and -check turns the
// failure into a nonzero exit.
func TestABCheckExitStatus(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-ab", "failing"}, 0},
		{[]string{"-ab", "failing", "-check"}, 1},
		{[]string{"-ab", "nosuch", "-check"}, 2},
	} {
		dir := filepath.Join(t.TempDir(), "reports")
		cmd := exec.Command(exe, append(c.args, "-out", dir)...)
		cmd.Env = append(os.Environ(), "DOPPIO_BENCH_MAIN=1")
		out, err := cmd.CombinedOutput()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != c.want {
			t.Errorf("doppio-bench %v: exit %d, want %d\n%s", c.args, code, c.want, out)
		}
		if _, err := os.Stat(filepath.Join(dir, "BENCH_failing.json")); (err == nil) != (c.want != 2) {
			t.Errorf("doppio-bench %v: report written = %v", c.args, err == nil)
		}
	}
}

// TestTelemetryPass drives the -trace/-metrics default pass and checks
// the acceptance contract: the metrics table carries event-loop
// dispatch latency, per-VFS-backend op latency, and JVM opcode counts,
// and the trace file parses as valid Chrome trace_event JSON.
func TestTelemetryPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full workload")
	}
	hub := telemetry.NewHub().EnableTracing()
	cfg := bench.Config{
		Scale:            1,
		Browsers:         []browser.Profile{browser.Chrome28},
		DisableEngineTax: true,
		Telemetry:        hub,
	}
	if err := runTelemetryPass(cfg); err != nil {
		t.Fatal(err)
	}

	table := hub.Registry.Snapshot().Format()
	for _, want := range []string{
		"eventloop/dispatch", // dispatch latency histogram (p95 column)
		"vfs.InMemory/stat",  // per-backend op latency
		"vfs.InMemory/open",  //
		"jvm/op.",            // opcode counters
		"jvm/invocations",    //
		"fstrace/read",       // replay per-op latency
		"core/timeslice",     //
	} {
		if !strings.Contains(table, want) {
			t.Errorf("metrics table missing %q:\n%s", want, table)
		}
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := hub.Tracer.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTrace(data); err != nil {
		t.Fatalf("-trace output is not a valid Chrome trace: %v", err)
	}
	if len(data) < 100 {
		t.Fatalf("trace suspiciously small: %d bytes", len(data))
	}
}
