// The A/B harness behind `doppio-bench -ab`: every paired comparison in
// this package (observer overhead, interpreter quickening, scheduler
// priority, fleet sharding, the gateway mux, the VFS
// cache and fault injection) runs through Report.compare, and every
// A/B writes the same Report schema to BENCH_<name>.json.
//
// A comparison runs each arm once untimed first: process warm-up
// (allocator growth, page faults, class parsing) would otherwise be
// charged to whichever arm runs first. Then it runs Pairs pairs whose
// order alternates, the seed picking the arm that leads the first
// pair: the second run of a pair sees a slightly different machine
// (cache residency, thermal state), and a fixed order would turn that
// into a fake difference. Each metric's B/A ratio is the interquartile
// mean of its per-pair ratios: adjacent runs share the machine's
// momentary speed, so a pair's ratio cancels drift that would swamp a
// comparison of independent summaries, and trimming the top and bottom
// quartile discards pairs that straddled a speed transition.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Sample is one timed run of one arm.
type Sample struct {
	// Metrics are the run's observations by name; names ending in
	// "_ns" are durations.
	Metrics map[string]float64
	// Latencies are per-operation times within the run (one per
	// tenant, one per echo); an arm's are pooled across its runs.
	Latencies []time.Duration
	// Output is what the run produced, compared across every run of
	// both arms when the A/B asks for identical output.
	Output string
}

// Arm is one side of an A/B; Run executes it once.
type Arm struct {
	Name string
	Run  func() (Sample, error)
}

// AB is one paired comparison.
type AB struct {
	Name  string
	Pairs int
	A, B  Arm
	// SameOutput adds a check that every run of both arms produced
	// the same non-empty Output.
	SameOutput bool
}

// Report is the one schema every A/B writes (BENCH_<name>.json).
type Report struct {
	Name string `json:"name"`
	// Seed picks the arm that leads the first pair and seeds whatever
	// the A/B randomizes (fault sequences, retry jitter).
	Seed        int64          `json:"seed"`
	Host        Host           `json:"host"`
	Params      map[string]any `json:"params"`
	Comparisons []Comparison   `json:"comparisons"`
	// Detail holds results that are not per-run metrics: counters of
	// an arm's last run, attribution tables, one-off phases.
	Detail map[string]any `json:"detail,omitempty"`
	Checks []Check        `json:"checks"`
}

// Host describes the machine and build a report was measured on.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Race marks a -race build, which slows guest code several-fold.
	Race bool `json:"race"`
}

// Comparison is one A/B's result.
type Comparison struct {
	Name  string `json:"name"`
	Pairs int    `json:"pairs"`
	// First names, per pair, the arm that ran first ("A" or "B").
	First string    `json:"first"`
	A     ArmReport `json:"a"`
	B     ArmReport `json:"b"`
	// Ratios holds, per metric, the interquartile mean of the per-pair
	// B/A ratios; pairs whose A value is zero are left out.
	Ratios map[string]float64 `json:"ratios"`
}

// ArmReport summarizes one arm's runs.
type ArmReport struct {
	Name    string          `json:"name"`
	Metrics map[string]Dist `json:"metrics"`
	// Latency summarizes the pooled per-operation latencies, in ns.
	Latency *Dist `json:"latency_ns,omitempty"`
}

// Dist is the nearest-rank distribution of one metric.
type Dist struct {
	Min  float64 `json:"min"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// Check is one named verdict; `doppio-bench -check` exits nonzero when
// any check of any report it ran failed.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// ABs are the A/Bs `doppio-bench -ab` runs, by report name.
var ABs = map[string]func(Config) (*Report, error){
	"ops":      runOpsAB,
	"prof":     runProfAB,
	"interp":   runInterpAB,
	"sched":    runSchedAB,
	"fleet":    func(cfg Config) (*Report, error) { return runFleet(cfg, "mixed", fleetTenants(cfg.Scale)) },
	"sock":     func(cfg Config) (*Report, error) { return runSock(cfg, sockConns(cfg.Scale)) },
	"fscache":  func(cfg Config) (*Report, error) { return runFSCache(cfg, fsTrace(cfg.Scale)) },
	"fsfaults": runFSFaultsAB,
}

func newReport(name string, cfg Config, params map[string]any) *Report {
	params["scale"] = cfg.Scale
	return &Report{
		Name: name,
		Seed: cfg.Seed,
		Host: Host{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			Race:       raceEnabled,
		},
		Params: params,
		Detail: map[string]any{},
	}
}

// compare runs ab (warm-up, then alternating pairs) and appends its
// comparison to the report.
func (r *Report) compare(ab AB) (Comparison, error) {
	arms := [2]Arm{ab.A, ab.B}
	order := func(pair int) [2]int {
		if (r.Seed+int64(pair))&1 == 0 {
			return [2]int{0, 1}
		}
		return [2]int{1, 0}
	}
	run := func(k int) (Sample, error) {
		s, err := arms[k].Run()
		if err != nil {
			err = fmt.Errorf("%s %s/%s: %w", r.Name, ab.Name, arms[k].Name, err)
		}
		return s, err
	}
	for _, k := range order(0) {
		if _, err := run(k); err != nil {
			return Comparison{}, err
		}
	}
	c := Comparison{Name: ab.Name, Pairs: ab.Pairs}
	var runs [2][]Sample
	for i := 0; i < ab.Pairs; i++ {
		o := order(i)
		c.First += "AB"[o[0] : o[0]+1]
		for _, k := range o {
			s, err := run(k)
			if err != nil {
				return Comparison{}, err
			}
			runs[k] = append(runs[k], s)
		}
	}
	c.A, c.B = summarize(ab.A.Name, runs[0]), summarize(ab.B.Name, runs[1])
	c.Ratios = pairRatios(runs[0], runs[1])
	if ab.SameOutput {
		detail, same := outputDiff(arms, runs)
		r.check(ab.Name+": identical output", same, "%s", detail)
	}
	r.Comparisons = append(r.Comparisons, c)
	return c, nil
}

// outputDiff reports whether every run's output matches the first A
// run's; if not, it names the first run that differs and the first
// line where it does.
func outputDiff(arms [2]Arm, runs [2][]Sample) (string, bool) {
	want := runs[0][0].Output
	if want == "" {
		return "no output", false
	}
	for k := range runs {
		for i, s := range runs[k] {
			if s.Output == want {
				continue
			}
			a, b := strings.Split(want, "\n"), strings.Split(s.Output, "\n")
			line := 0
			for line < len(a) && line < len(b) && a[line] == b[line] {
				line++
			}
			at := func(l []string) string {
				if line < len(l) {
					return l[line]
				}
				return "<end>"
			}
			return fmt.Sprintf("%s run %d differs from %s run 0 at line %d: %q vs %q",
				arms[k].Name, i, arms[0].Name, line+1, at(b), at(a)), false
		}
	}
	return fmt.Sprintf("%d runs identical", len(runs[0])+len(runs[1])), true
}

func summarize(name string, runs []Sample) ArmReport {
	a := ArmReport{Name: name, Metrics: map[string]Dist{}}
	var lats []float64
	for _, s := range runs {
		for m := range s.Metrics {
			if _, done := a.Metrics[m]; done {
				continue
			}
			vals := make([]float64, 0, len(runs))
			for _, t := range runs {
				vals = append(vals, t.Metrics[m])
			}
			a.Metrics[m] = dist(vals)
		}
		for _, d := range s.Latencies {
			lats = append(lats, float64(d))
		}
	}
	if len(lats) > 0 {
		d := dist(lats)
		a.Latency = &d
	}
	return a
}

func pairRatios(a, b []Sample) map[string]float64 {
	per := map[string][]float64{}
	for i := range a {
		for m, av := range a[i].Metrics {
			if bv, ok := b[i].Metrics[m]; ok && av != 0 {
				per[m] = append(per[m], bv/av)
			}
		}
	}
	out := make(map[string]float64, len(per))
	for m, rs := range per {
		out[m] = trimmedMean(rs)
	}
	return out
}

// trimmedMean is the interquartile mean of a non-empty sample: the
// mean of its middle half once sorted.
func trimmedMean(v []float64) float64 {
	sort.Float64s(v)
	lo, hi := len(v)/4, len(v)-len(v)/4
	var sum float64
	for _, x := range v[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// dist sorts a non-empty sample and summarizes it.
func dist(v []float64) Dist {
	sort.Float64s(v)
	return Dist{
		Min:  v[0],
		P50:  nearestRank(v, 0.50),
		P95:  nearestRank(v, 0.95),
		P99:  nearestRank(v, 0.99),
		P999: nearestRank(v, 0.999),
		Max:  v[len(v)-1],
	}
}

// nearestRank is the exact nearest-rank percentile of a sorted sample
// (no interpolation).
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func (r *Report) check(name string, pass bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// Failed returns the checks that did not pass.
func (r *Report) Failed() []Check {
	var failed []Check
	for _, c := range r.Checks {
		if !c.Pass {
			failed = append(failed, c)
		}
	}
	return failed
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Format renders the report: per comparison, each metric's p50 on
// both arms and its pair ratio, then the pooled latency percentiles,
// then the checks.
func (r *Report) Format() string {
	var b strings.Builder
	h := r.Host
	race := ""
	if h.Race {
		race = ", race detector on"
	}
	fmt.Fprintf(&b, "A/B %s: seed %d, %d CPUs (GOMAXPROCS %d), %s %s/%s%s\n",
		r.Name, r.Seed, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, race)
	var params []string
	for _, k := range sortedKeys(r.Params) {
		params = append(params, fmt.Sprintf("%s=%v", k, r.Params[k]))
	}
	fmt.Fprintf(&b, "  params: %s\n", strings.Join(params, ", "))
	for _, c := range r.Comparisons {
		fmt.Fprintf(&b, "  %s: A=%s vs B=%s, %d pairs (first: %s)\n", c.Name, c.A.Name, c.B.Name, c.Pairs, c.First)
		fmt.Fprintf(&b, "    %-20s %12s %12s %8s\n", "metric", "A p50", "B p50", "B/A")
		names := map[string]bool{}
		for m := range c.A.Metrics {
			names[m] = true
		}
		for m := range c.B.Metrics {
			names[m] = true
		}
		for _, m := range sortedKeys(names) {
			ratio := "-"
			if v, ok := c.Ratios[m]; ok {
				ratio = fmt.Sprintf("%.3f", v)
			}
			fmt.Fprintf(&b, "    %-20s %12s %12s %8s\n", m,
				formatValue(m, c.A.Metrics[m].P50), formatValue(m, c.B.Metrics[m].P50), ratio)
		}
		for _, a := range []ArmReport{c.A, c.B} {
			if d := a.Latency; d != nil {
				fmt.Fprintf(&b, "    latency %s: p50 %s  p95 %s  p99 %s  p999 %s\n", a.Name,
					formatValue("_ns", d.P50), formatValue("_ns", d.P95), formatValue("_ns", d.P99), formatValue("_ns", d.P999))
			}
		}
	}
	b.WriteString("  checks:\n")
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "    %s %s: %s\n", verdict, c.Name, c.Detail)
	}
	return b.String()
}

// formatValue renders a "_ns" metric as a duration rounded to three
// significant digits (latencies span µs to seconds), anything else as
// a number.
func formatValue(metric string, v float64) string {
	if !strings.HasSuffix(metric, "_ns") {
		return fmt.Sprintf("%.6g", v)
	}
	d := time.Duration(v)
	unit := time.Nanosecond
	for unit < time.Second && d >= 1000*unit {
		unit *= 10
	}
	return d.Round(unit).String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// minMetric is the smallest value a metric took on either arm, and
// NaN if either arm never recorded it: every comparison against NaN is
// false, so a check over a missing metric fails instead of reading 0.
func minMetric(c Comparison, metric string) float64 {
	a, okA := c.A.Metrics[metric]
	b, okB := c.B.Metrics[metric]
	if !okA || !okB {
		return math.NaN()
	}
	return math.Min(a.Min, b.Min)
}

// maxMetric is the largest value a metric took on either arm, and NaN
// if either arm never recorded it.
func maxMetric(c Comparison, metric string) float64 {
	a, okA := c.A.Metrics[metric]
	b, okB := c.B.Metrics[metric]
	if !okA || !okB {
		return math.NaN()
	}
	return math.Max(a.Max, b.Max)
}
