package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"doppio/internal/bench/workloads"
	"doppio/internal/jvm"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload at small sizes, untraced and traced,
// and checks that outputs verify and that exactly the metrics
// BENCHMARK.json declares are emitted, with their units.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, info := range allWorkloads {
		for _, traced := range []bool{false, true} {
			info, traced := info, traced
			name := info.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				traceFile := filepath.Join(t.TempDir(), "trace.json")
				rep, err := measure(info, params{seed: 7, duration: time.Millisecond, trace: traced, small: true, setups: 1, traceOut: traceFile})
				if err != nil {
					t.Fatal(err)
				}
				out := rep.out
				if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d: %v", out.Correct, out.Failed, out.Attempted, rep.failures)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json declares %d", len(out.Metrics), len(want))
				}
				for n, unit := range want {
					m, ok := out.Metrics[n]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", n)
					case m.Unit != unit:
						t.Errorf("metric %s in %s, declared in %s", n, m.Unit, unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v", n, m.Value)
					}
				}
				if traced {
					for n, m := range out.Metrics {
						if strings.HasPrefix(n, "run_ms.") && ownProgram(info.name, strings.TrimPrefix(n, "run_ms.")) && m.Value <= 0 {
							t.Errorf("%s = %v on its own workload", n, m.Value)
						}
					}
					checkChromeTrace(t, traceFile)
				}
			})
		}
	}
}

// ownProgram reports whether program id belongs to workload wl.
func ownProgram(wl, id string) bool {
	switch wl {
	case "interp":
		for _, r := range interpRuns {
			if r.id == id {
				return true
			}
		}
	case "fs":
		return id == "javac_trace" || id == "game"
	case "sock":
		return id == "echo" || id == "bulk"
	}
	return false
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	for _, ev := range tr.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event %v lacks %q", ev, k)
			}
		}
	}
}

// TestInterpReferences re-derives the interp workload's stored
// expected outputs on the native engine, the engine not under test.
func TestInterpReferences(t *testing.T) {
	classes, err := workloads.CompileWith(workloads.Sources())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range interpRuns {
		for _, c := range []struct{ arg, want string }{{r.smallArg, r.smallWant}, {r.arg, r.want}} {
			if testing.Short() && c.arg == r.arg {
				continue
			}
			var out bytes.Buffer
			vm := jvm.NewNativeVM(jvm.MapProvider(classes), jvm.NativeOptions{Stdout: &out})
			if err := vm.RunMain(r.main, []string{c.arg}); err != nil {
				t.Fatalf("%s %s: %v", r.main, c.arg, err)
			}
			if out.String() != c.want {
				t.Errorf("%s %s on the native engine: %q, stored %q", r.main, c.arg, out.String(), c.want)
			}
		}
	}
}

// TestSeedDrivesInputs checks that one seed reproduces the generated
// inputs and another seed changes them.
func TestSeedDrivesInputs(t *testing.T) {
	a, b, c := genFS(3, true), genFS(3, true), genFS(4, true)
	if !bytes.Equal(a.trace, b.trace) || a.javacOut != b.javacOut || a.gameOut != b.gameOut {
		t.Error("same seed, different fs inputs")
	}
	if bytes.Equal(a.trace, c.trace) || a.gameOut == c.gameOut {
		t.Error("different seeds, same fs inputs")
	}
}

// TestHistQuantile checks the histogram against exact nearest-rank
// quantiles.
func TestHistQuantile(t *testing.T) {
	var h hist
	var xs []float64
	for i := 1; i <= 1000; i++ {
		v := float64(i*i) / 7
		h.add(v)
		xs = append(xs, v)
	}
	for _, q := range []float64{0.5, 0.9} {
		got, want := h.quantile(q), quantile(xs, q)
		if got < want*0.998 || got > want*1.002 {
			t.Errorf("q%.2f = %v, exact %v", q, got, want)
		}
	}
}
