package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeArm is an arm that logs each run and reports a fixed metric.
func fakeArm(name string, log *[]string, value float64, output string) Arm {
	return Arm{name, func() (Sample, error) {
		*log = append(*log, name)
		return Sample{
			Metrics:   map[string]float64{"x": value, "zero": 0},
			Latencies: []time.Duration{time.Duration(value) * time.Millisecond},
			Output:    output,
		}, nil
	}}
}

// TestABAlternatesArmOrder pins the harness's run order: one warm-up
// per arm, then pairs whose leading arm alternates, starting from the
// arm the seed picks.
func TestABAlternatesArmOrder(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7} {
		var log []string
		rep := &Report{Seed: seed}
		c, err := rep.compare(AB{Name: "order", Pairs: 6,
			A: fakeArm("a", &log, 2, "same"), B: fakeArm("b", &log, 3, "same"), SameOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		want := "ABABAB"
		if seed&1 != 0 {
			want = "BABABA"
		}
		if c.First != want {
			t.Errorf("seed %d: first = %q, want %q", seed, c.First, want)
		}
		if len(log) != 2+2*6 {
			t.Fatalf("seed %d: %d runs, want 14: %v", seed, len(log), log)
		}
		for i := 0; i < len(log); i += 2 {
			first := c.First[0:1] // the warm-up follows pair 0's order
			if i >= 2 {
				first = c.First[i/2-1 : i/2]
			}
			if got := strings.ToUpper(log[i]); got != first || log[i] == log[i+1] {
				t.Errorf("seed %d: runs %d-%d = %s,%s, want %s first", seed, i, i+1, log[i], log[i+1], first)
			}
		}
		if r := c.Ratios["x"]; r != 1.5 {
			t.Errorf("seed %d: x ratio = %v, want 1.5", seed, r)
		}
		if _, ok := c.Ratios["zero"]; ok {
			t.Errorf("seed %d: ratio over a zero A metric should be left out", seed)
		}
		if c.A.Latency == nil || c.A.Latency.P50 != float64(2*time.Millisecond) {
			t.Errorf("seed %d: pooled A latency = %+v", seed, c.A.Latency)
		}
		if failed := rep.Failed(); len(failed) != 0 {
			t.Errorf("seed %d: failed checks %+v", seed, failed)
		}
	}
}

func TestABOutputMismatchFailsCheck(t *testing.T) {
	var log []string
	rep := &Report{}
	if _, err := rep.compare(AB{Name: "out", Pairs: 2, SameOutput: true,
		A: fakeArm("a", &log, 1, "one\ntwo\n"), B: fakeArm("b", &log, 1, "one\nthree\n")}); err != nil {
		t.Fatal(err)
	}
	failed := rep.Failed()
	if len(failed) != 1 || !strings.Contains(failed[0].Detail, `line 2: "three" vs "two"`) {
		t.Fatalf("failed checks = %+v", failed)
	}
}

// TestMissingMetricFailsCheck: a check over a metric that no run
// recorded fails rather than reading the missing metric as 0, while a
// recorded 0 still passes.
func TestMissingMetricFailsCheck(t *testing.T) {
	var log []string
	rep := &Report{}
	c, err := rep.compare(AB{Name: "nofail", Pairs: 2,
		A: fakeArm("a", &log, 1, "x"), B: fakeArm("b", &log, 1, "x")})
	if err != nil {
		t.Fatal(err)
	}
	failed := maxMetric(c, "failed")
	rep.check(c.Name+": zero failures", failed == 0, "%.0f failed in the worst run", failed)
	slices := minMetric(c, "slices")
	rep.check(c.Name+": slices > 0", slices > 0, "fewest slices: %.0f", slices)
	zero := maxMetric(c, "zero")
	rep.check(c.Name+": recorded zero", zero == 0, "%.0f", zero)
	rep.checkHalved(c)
	got := rep.Failed()
	if len(got) != 3 || got[0].Name != "nofail: zero failures" || got[1].Name != "nofail: slices > 0" ||
		got[2].Name != "nofail: warm pass <= half the uncached backend ops" {
		t.Errorf("failed checks = %+v, want the three over missing metrics", got)
	}
}

// TestTrimmedMean pins the ratio reduction: the mean of the middle half
// of the sorted per-pair ratios, so outlier pairs at either end drop.
func TestTrimmedMean(t *testing.T) {
	ratios := []float64{1.0, 1.1, 0.9, 5.0, 1.05, 0.2, 1.02, 0.98}
	// Sorted: 0.2 0.9 | 0.98 1.0 1.02 1.05 | 1.1 5.0
	if got, want := trimmedMean(ratios), (0.98+1.0+1.02+1.05)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("trimmedMean = %v, want %v", got, want)
	}
	if got := trimmedMean([]float64{1.3}); got != 1.3 {
		t.Errorf("singleton trimmedMean = %v", got)
	}
	a := []Sample{{Metrics: map[string]float64{"t": 10}}, {Metrics: map[string]float64{"t": 0}}, {Metrics: map[string]float64{"t": 20}}}
	b := []Sample{{Metrics: map[string]float64{"t": 11}}, {Metrics: map[string]float64{"t": 5}}, {Metrics: map[string]float64{"t": 21}}}
	// The zero-A pair is skipped; 2 ratios leave nothing to trim.
	if got, want := pairRatios(a, b)["t"], (1.1+1.05)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("pairRatios = %v, want %v", got, want)
	}
}

// TestNearestRank pins the percentile convention: exact nearest-rank
// over the raw sample, no interpolation.
func TestNearestRank(t *testing.T) {
	sample := make([]float64, 100)
	for i := range sample {
		sample[i] = float64(i + 1)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 50},
		{0.95, 95},
		{0.99, 99},
		{0.999, 100},
	}
	for _, c := range cases {
		if got := nearestRank(sample, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q*100, got, c.want)
		}
	}
	if nearestRank(nil, 0.5) != 0 {
		t.Error("empty sample should yield 0")
	}
	if got := nearestRank([]float64{7}, 0.999); got != 7 {
		t.Errorf("singleton p999 = %v", got)
	}
}

// decodeReport decodes a report strictly: any field the schema does
// not know fails.
func decodeReport(data []byte) (*Report, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Report
	return &r, dec.Decode(&r)
}

func TestReportJSONRoundTrip(t *testing.T) {
	var log []string
	rep := newReport("roundtrip", Config{Scale: 2, Seed: 9}, map[string]any{"backend": "cloud", "rate": 0.1})
	c, err := rep.compare(AB{Name: "rt", Pairs: 3,
		A: fakeArm("a", &log, 4, "x"), B: fakeArm("b", &log, 5, "x"), SameOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	rep.check("ratio", c.Ratios["x"] == 1.25, "%.2f", c.Ratios["x"])
	rep.Detail["note"] = map[string]int{"k": 1}
	path := filepath.Join(t.TempDir(), "BENCH_roundtrip.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	again := filepath.Join(t.TempDir(), "again.json")
	if err := back.WriteFile(again); err != nil {
		t.Fatal(err)
	}
	if data2, _ := os.ReadFile(again); !bytes.Equal(data, data2) {
		t.Errorf("round trip changed the report:\n%s\nvs\n%s", data, data2)
	}
	if back.Seed != 9 || back.Host.GoVersion == "" || back.Comparisons[0].Pairs != 3 || len(back.Checks) != 2 {
		t.Errorf("decoded report lost fields: %+v", back)
	}
	if out := back.Format(); !strings.Contains(out, "ok   ratio: 1.25") {
		t.Errorf("format:\n%s", out)
	}
}

// TestCommittedBenchReports decodes every committed BENCH file
// strictly: schema drift, a missing host or seed, a -race build, a
// comparison without pairs, or a recorded failed check fails.
func TestCommittedBenchReports(t *testing.T) {
	for _, name := range []string{"ops", "prof", "interp", "sched", "fleet", "sock"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := decodeReport(data)
		if err != nil {
			t.Errorf("BENCH_%s.json: %v", name, err)
			continue
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(data, &fields); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"name", "seed", "host", "params", "comparisons", "checks"} {
			if _, ok := fields[key]; !ok {
				t.Errorf("BENCH_%s.json: no %q", name, key)
			}
		}
		if rep.Name != name || rep.Host.NumCPU == 0 || rep.Host.GoVersion == "" || rep.Host.GOOS == "" {
			t.Errorf("BENCH_%s.json: name %q, host %+v", name, rep.Name, rep.Host)
		}
		if rep.Host.Race {
			t.Errorf("BENCH_%s.json: measured on a -race build, which slows guest code several-fold; regenerate it without -race", name)
		}
		if len(rep.Comparisons) == 0 {
			t.Errorf("BENCH_%s.json: no comparisons", name)
		}
		for _, c := range rep.Comparisons {
			if c.Pairs < 1 || len(c.First) != c.Pairs {
				t.Errorf("BENCH_%s.json %s: %d pairs, first %q", name, c.Name, c.Pairs, c.First)
			}
		}
		if len(rep.Checks) == 0 {
			t.Errorf("BENCH_%s.json: no checks", name)
		}
		for _, c := range rep.Failed() {
			t.Errorf("BENCH_%s.json: failed check %q: %s", name, c.Name, c.Detail)
		}
	}
}
