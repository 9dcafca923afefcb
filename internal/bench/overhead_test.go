package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunOpsOverhead(t *testing.T) {
	rep, err := runOpsAB(Config{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Comparisons[0]
	if a, b := c.A.Metrics["wall_ns"].Min, c.B.Metrics["wall_ns"].Min; a <= 0 || b <= 0 {
		t.Fatalf("arm walls = %v / %v", a, b)
	}
	if ev := c.A.Metrics["flight_events"].Max; ev != 0 {
		t.Errorf("flight-off arm recorded %v events", ev)
	}
	if c.B.Metrics["flight_events"].Min == 0 {
		t.Error("flight-on arm recorded no events")
	}
	out := rep.Format()
	for _, want := range []string{"flight-off", "flight-on", "cpu overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_ops.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("report JSON invalid: %v", err)
	}
	if got, want := decoded.Comparisons[0].B.Metrics["flight_events"], c.B.Metrics["flight_events"]; got != want {
		t.Errorf("round-trip lost flight events: %+v != %+v", got, want)
	}
}
