// Observer overhead A/Bs: what the flight recorder (ops,
// BENCH_ops.json) and the guest sampling profiler (prof,
// BENCH_prof.json) cost a running workload. An always-on black box or
// continuous profiler is only viable if recording is nearly free, so
// both A/Bs gate the CPU overhead at 5%.
package bench

import (
	"fmt"
	"strings"
	"time"

	"doppio/internal/bench/workloads"
	"doppio/internal/fleet"
	"doppio/internal/jvm"
	"doppio/internal/profile"
	"doppio/internal/telemetry"
)

// opsOverheadProgram keeps the scheduler busy: four CPU-bound workers
// plus a producer/consumer pair, so the flight ring sees the full
// event mix (spawns, slices, block/settle) while the wall clock is
// dominated by bytecode execution.
const opsOverheadProgram = `
class Cell {
    Object lock = new Object();
    int value;
    boolean full;

    void put(int v) {
        synchronized (lock) {
            while (full) { lock.wait(); }
            value = v;
            full = true;
            lock.notifyAll();
        }
    }

    int take() {
        synchronized (lock) {
            while (!full) { lock.wait(); }
            full = false;
            lock.notifyAll();
            return value;
        }
    }
}

class Burner extends Thread {
    int n;
    int acc;
    Burner(int n) { this.n = n; }
    public void run() {
        for (int i = 0; i < n; i++) {
            acc = (acc + i) %% 1000003;
        }
    }
}

class Feeder extends Thread {
    Cell c;
    int n;
    Feeder(Cell c, int n) { this.c = c; this.n = n; }
    public void run() {
        for (int i = 1; i <= n; i++) { c.put(i); }
    }
}

public class OpsBench {
    public static void main(String[] args) {
        int n = %d;
        Burner[] ws = new Burner[4];
        for (int i = 0; i < ws.length; i++) {
            ws[i] = new Burner(n);
            ws[i].start();
        }
        Cell c = new Cell();
        Feeder f = new Feeder(c, 32);
        f.start();
        int sum = 0;
        for (int i = 0; i < 32; i++) { sum += c.take(); }
        f.join();
        for (int i = 0; i < ws.length; i++) { ws[i].join(); }
        System.out.println("sum " + sum);
    }
}
`

// observerPairs is the pair count of both overhead A/Bs.
const observerPairs = 15

// runOpsAB runs the flight-recorder A/B on the multithreaded program
// above.
func runOpsAB(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Timeslice == 0 {
		cfg.Timeslice = 10 * time.Millisecond
	}
	n := 40_000 * cfg.Scale
	classes, err := workloadsCompile(map[string]string{"OpsBench.mj": fmt.Sprintf(opsOverheadProgram, n)})
	if err != nil {
		return nil, err
	}
	prof := cfg.Browsers[0]
	rep := newReport("ops", cfg, map[string]any{
		"workload":  fmt.Sprintf("burn+handoff n=%d", n),
		"browser":   prof.Name,
		"timeslice": cfg.Timeslice.String(),
	})
	arm := func(flight bool) func() (Sample, error) {
		return func() (Sample, error) {
			hub := telemetry.NewHub()
			if flight {
				hub.EnableFlight(telemetry.DefaultFlightCapacity)
			}
			s, _, err := runJVM(fleet.NewEnv(prof, hub).Win, jvm.DoppioOptions{
				Provider:         jvm.MapProvider(classes),
				Timeslice:        cfg.Timeslice,
				DisableEngineTax: true,
			}, "OpsBench", nil)
			if err == nil {
				// Zero on the off arm: its recorder is nil, not idle.
				s.Metrics["flight_events"] = float64(hub.Flight.Total())
			}
			return s, err
		}
	}
	c, err := rep.compare(AB{Name: "flight", Pairs: observerPairs, SameOutput: true,
		A: Arm{"flight-off", arm(false)}, B: Arm{"flight-on", arm(true)}})
	if err != nil {
		return nil, err
	}
	rep.checkOverhead(c)
	events := c.B.Metrics["flight_events"].Min
	rep.check("flight-on arm recorded events", events > 0, "%.0f events in its sparsest run", events)
	return rep, nil
}

// runProfAB runs the profiler A/B on DeltaBlue: field- and
// virtual-call-heavy, so the CPU sampler's stack walks are as deep as
// they get. Both arms run on a metrics hub; the on arm's hub also
// carries the profiler, so the A/B isolates the profiler's own cost.
func runProfAB(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Timeslice == 0 {
		cfg.Timeslice = 10 * time.Millisecond
	}
	classes, err := workloads.Classes()
	if err != nil {
		return nil, err
	}
	spec, prof := MicroWorkloads[0], cfg.Browsers[0]
	rep := newReport("prof", cfg, map[string]any{
		"workload":  spec.ID,
		"browser":   prof.Name,
		"timeslice": cfg.Timeslice.String(),
	})
	var hot string
	arm := func(on bool) func() (Sample, error) {
		return func() (Sample, error) {
			hub := telemetry.NewHub()
			if on {
				hub.EnableProfiling()
			}
			s, _, err := runJVM(fleet.NewEnv(prof, hub).Win, jvm.DoppioOptions{
				Provider:         jvm.MapProvider(classes),
				Timeslice:        cfg.Timeslice,
				DisableEngineTax: true,
			}, spec.Main, spec.Args(cfg.Scale))
			if err != nil {
				return s, err
			}
			// Zero on the off arm: its profiler is nil, not idle.
			s.Metrics["samples"] = float64(hub.Profiler.Samples())
			if top := hub.Profiler.TopMethods(profile.CPU, 1); len(top) > 0 {
				hot = top[0].Method
			}
			return s, nil
		}
	}
	c, err := rep.compare(AB{Name: "profiler", Pairs: observerPairs, SameOutput: true,
		A: Arm{"prof-off", arm(false)}, B: Arm{"prof-on", arm(true)}})
	if err != nil {
		return nil, err
	}
	rep.checkOverhead(c)
	samples := c.B.Metrics["samples"].Min
	rep.check("prof-on arm folded samples", samples > 0, "%.0f cpu samples in its sparsest run", samples)
	rep.check("hottest method is a guest method", strings.Contains(hot, "."), "%q", hot)
	rep.Detail["hot_method"] = hot
	return rep, nil
}

// checkOverhead gates an observer's CPU cost at 5%.
func (r *Report) checkOverhead(c Comparison) {
	ratio, ok := c.Ratios["cpu_ns"]
	pct := 100 * (ratio - 1)
	r.check(c.Name+": cpu overhead <= 5%", ok && pct <= 5, "%+.2f%%", pct)
}
