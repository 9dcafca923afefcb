package bench

import (
	"strings"
	"testing"

	"doppio/internal/browser"
	"doppio/internal/fstrace"
)

// quickCfg runs figure drivers at minimum scale with the engine-speed
// model off: these tests check correctness and plumbing; the taxed,
// paper-shaped sweeps run under `go test -bench` and cmd/doppio-bench.
func quickCfg() Config {
	return Config{
		Scale:            1,
		Browsers:         []browser.Profile{browser.Chrome28},
		DisableEngineTax: true,
	}
}

func TestFig3Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep is slow")
	}
	// One sample per side is at the mercy of a host hiccup: single
	// sweeps have read 0.88x and 0.99x on cells whose margin is
	// normally 1.26-1.88x. Each cell compares the fastest of three
	// interleaved sweeps on either side instead.
	const sweeps = 3
	var res *Fig3Result
	fastest := map[string]Fig3Cell{}
	for i := 0; i < sweeps; i++ {
		var err error
		res, err = RunFig3(quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) != len(Fig3Workloads) {
			t.Fatalf("cells = %d", len(res.Cells))
		}
		for _, c := range res.Cells {
			key := c.Workload + " on " + c.Browser
			if f, ok := fastest[key]; ok {
				if f.Doppio < c.Doppio {
					c.Doppio = f.Doppio
				}
				if f.Native < c.Native {
					c.Native = f.Native
				}
			}
			fastest[key] = c
		}
	}
	for key, c := range fastest {
		if slowdown := float64(c.Doppio) / float64(c.Native); slowdown <= 1.0 {
			t.Errorf("%s: slowdown %.2fx (fastest of %d sweeps: doppio %v, native %v) — DoppioJVM should never beat the native baseline",
				key, slowdown, sweeps, c.Doppio, c.Native)
		}
	}
	rendered := FormatFig3(res)
	if !strings.Contains(rendered, "geometric mean") {
		t.Errorf("rendering missing geomean:\n%s", rendered)
	}
}

func TestFig45Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep is slow")
	}
	cfg := quickCfg()
	cfg.Browsers = []browser.Profile{browser.Chrome28, browser.IE10}
	// As in TestFig3Quick, the wall slowdown compares the fastest of
	// three interleaved sweeps on either side: one cold sample each
	// has read pidigits at 0.81x on a loaded 2-core host. The CPU and
	// suspension checks hold for every sweep.
	const sweeps = 3
	var rows []MicroResult
	fastest := map[string]MicroResult{}
	for i := 0; i < sweeps; i++ {
		var err error
		rows, err = RunFig45(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(MicroWorkloads)*2 {
			t.Fatalf("rows = %d", len(rows))
		}
		for _, r := range rows {
			if r.CPUSlowdown > r.WallSlowdown*1.05 {
				t.Errorf("sweep %d: %s on %s: CPU slowdown %.2f exceeds wall %.2f",
					i, r.Workload, r.Browser, r.CPUSlowdown, r.WallSlowdown)
			}
			// Figure 5's shape: suspension is a small fraction of
			// runtime on fast-resumption browsers.
			if r.Suspensions > 0 && r.SuspendPct > 50 {
				t.Errorf("sweep %d: %s on %s: suspended %.1f%% of runtime", i, r.Workload, r.Browser, r.SuspendPct)
			}
			key := r.Workload + " on " + r.Browser
			if f, ok := fastest[key]; ok {
				r.Wall = min(r.Wall, f.Wall)
				r.Native = min(r.Native, f.Native)
			}
			fastest[key] = r
		}
	}
	for key, r := range fastest {
		if slowdown := float64(r.Wall) / float64(r.Native); slowdown < 1 {
			t.Errorf("%s: wall slowdown %.2f < 1 (fastest of %d sweeps: doppio %v, native %v)",
				key, slowdown, sweeps, r.Wall, r.Native)
		}
	}
	out := FormatFig45(rows)
	if !strings.Contains(out, "Figure 5") {
		t.Error("rendering missing Figure 5 section")
	}
}

func TestFig6Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep is slow")
	}
	cfg := quickCfg()
	cfg.Browsers = []browser.Profile{browser.Chrome28, browser.IE10}
	rows, err := RunFig6(cfg, fstrace.GenerateParams{
		Ops: 400, UniqueFiles: 100, BytesRead: 400_000, BytesWritten: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Ops != 400 {
			t.Errorf("%s completed %d ops", r.Browser, r.Ops)
		}
	}
	if out := FormatFig6(rows); !strings.Contains(out, "Figure 6") {
		t.Error("rendering broken")
	}
}

func TestTable1AllProbesPass(t *testing.T) {
	rows := Table1()
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want the paper's 9 features", len(rows))
	}
	for _, r := range rows {
		if !r.Systems["DoppioJVM"] {
			t.Errorf("Table 1 probe failed for %q: %v", r.Feature, r.ProbeErr)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Automatic event segmentation") {
		t.Error("rendering broken")
	}
}

func TestTable2Probes(t *testing.T) {
	rows := Table2()
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 mechanisms", len(rows))
	}
	byName := map[string]StorageRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if !byName["localStorage"].Probed {
		t.Error("localStorage probe failed")
	}
	if !byName["IndexedDB"].Probed {
		t.Error("IndexedDB probe failed")
	}
	if !byName["localStorage"].Synchronous || byName["IndexedDB"].Synchronous {
		t.Error("synchrony column wrong")
	}
	if out := FormatTable2(rows); !strings.Contains(out, "localStorage") {
		t.Error("rendering broken")
	}
}

func TestEngineTaxOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	// With the engine-speed model ON, the modelled browser diversity
	// must order the bars: IE8 (slowest engine + setTimeout
	// resumption) slower than Chrome on the same CPU-bound workload.
	spec := WorkloadSpec{ID: "pidigits", Main: "PiDigits",
		Args: func(int) []string { return []string{"25"} }}
	cfg := Config{Scale: 1}
	chrome, err := RunDoppio(spec, 1, browser.Chrome28, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ie8, err := RunDoppio(spec, 1, browser.IE8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ie8.Wall <= chrome.Wall {
		t.Errorf("IE8 (%v) not slower than Chrome (%v)", ie8.Wall, chrome.Wall)
	}
	// And the taxed Chrome run lands well above the native baseline.
	nativeT, _, err := RunNative(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(chrome.Wall) / float64(nativeT)
	if ratio < 5 {
		t.Errorf("taxed Chrome slowdown %.1fx implausibly low", ratio)
	}
}
