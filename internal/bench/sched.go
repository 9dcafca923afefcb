// Scheduler A/B (BENCH_sched.json): the priority run queue on JVM
// workloads. "prio" compares four equal CPU-bound threads with and
// without Thread.setPriority.
package bench

import (
	"fmt"
	"strings"
	"time"

	"doppio/internal/fleet"
	"doppio/internal/jvm"
)

// schedPrioPairs is small: the priority check is behavioural and each
// of its runs takes seconds.
const schedPrioPairs = 2

// schedPrioProgram spawns four equal CPU-bound workers; the
// prioritized variant ranks them by Thread.setPriority (spawn order is
// lowest-priority first, so priority — not spawn order — must explain
// a descending completion order).
const schedPrioProgram = `
class Worker extends Thread {
    int id;
    int n;
    Worker(int id, int n) { this.id = id; this.n = n; }
    int step(int acc, int i) {
        return acc + i;
    }
    public void run() {
        int acc = 0;
        for (int i = 0; i < n; i++) {
            acc = step(acc, i);
        }
        System.out.println("done " + id);
    }
}

public class Sched {
    public static void main(String[] args) {
        int n = %d;
        Worker w1 = new Worker(1, n);
        Worker w2 = new Worker(2, n);
        Worker w3 = new Worker(3, n);
        Worker w4 = new Worker(4, n);
%s        w1.start();
        w2.start();
        w3.start();
        w4.start();
        w1.join();
        w2.join();
        w3.join();
        w4.join();
    }
}
`

const schedPrioSetters = `        w1.setPriority(2);
        w2.setPriority(4);
        w3.setPriority(6);
        w4.setPriority(8);
`

// firstWrite timestamps the first byte written to it: the completion
// print of the first thread to finish. runJVM starts its clock with
// the wall clock, after VM construction.
type firstWrite struct {
	start time.Time
	first time.Duration
}

func (f *firstWrite) Write(p []byte) (int, error) {
	if f.first == 0 && len(p) > 0 {
		f.first = time.Since(f.start)
	}
	return len(p), nil
}

// runSched runs one compiled Sched program, with the watchdog off (the
// runs judge completion order, not responsiveness), and samples the
// scheduler counters.
func runSched(cfg Config, classes map[string][]byte) (Sample, error) {
	prof := cfg.Browsers[0]
	prof.WatchdogLimit = 0
	win := fleet.NewEnv(prof, cfg.Telemetry).Win
	fw := &firstWrite{}
	s, vm, err := runJVM(win, jvm.DoppioOptions{
		Stdout:           fw,
		Provider:         jvm.MapProvider(classes),
		Timeslice:        cfg.Timeslice,
		DisableEngineTax: cfg.DisableEngineTax,
	}, "Sched", nil)
	if err != nil {
		return s, err
	}
	st := vm.Runtime().Stats()
	for name, v := range map[string]int{
		"suspensions":      st.Suspensions,
		"context_switches": st.ContextSwitches,
		"slices":           st.Slices,
	} {
		s.Metrics[name] = float64(v)
	}
	s.Metrics["suspended_ns"] = float64(st.SuspendedTime)
	s.Metrics["longest_task_ns"] = float64(win.Loop.Stats().LongestTask)
	s.Metrics["first_done_ns"] = float64(fw.first)
	return s, nil
}

// runSchedAB runs the prio comparison: the workers are spawned
// lowest-priority first, so priority, not spawn order, must explain
// the highest-priority worker finishing first.
func runSchedAB(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Timeslice == 0 {
		cfg.Timeslice = 10 * time.Millisecond
	}
	iters := 60_000 * cfg.Scale
	rep := newReport("sched", cfg, map[string]any{
		"browser":       cfg.Browsers[0].Name,
		"timeslice":     cfg.Timeslice.String(),
		"engine_tax":    !cfg.DisableEngineTax,
		"prio_workload": fmt.Sprintf("4 CPU-bound workers x %d iterations", iters),
	})
	compile := func(setters string) (map[string][]byte, error) {
		return workloadsCompile(map[string]string{"Sched.mj": fmt.Sprintf(schedPrioProgram, iters, setters)})
	}
	equalClasses, err := compile("")
	if err != nil {
		return nil, err
	}
	prioClasses, err := compile(schedPrioSetters)
	if err != nil {
		return nil, err
	}
	order := map[string][]string{}
	prio := func(name string, classes map[string][]byte) Arm {
		return Arm{name, func() (Sample, error) {
			s, err := runSched(cfg, classes)
			if err != nil {
				return s, err
			}
			order[name] = nil
			for _, line := range strings.Split(strings.TrimSpace(s.Output), "\n") {
				if strings.HasPrefix(line, "done ") {
					order[name] = append(order[name], line)
				}
			}
			s.Metrics["top_priority_first"] = 0
			if len(order[name]) > 0 && order[name][0] == "done 4" {
				s.Metrics["top_priority_first"] = 1
			}
			return s, nil
		}}
	}
	c, err := rep.compare(AB{Name: "prio", Pairs: schedPrioPairs,
		A: prio("equal", equalClasses), B: prio("prioritized", prioClasses)})
	if err != nil {
		return nil, err
	}
	rep.check("prio: highest-priority worker finishes first", c.B.Metrics["top_priority_first"].Min == 1,
		"last prioritized order: %s", strings.Join(order["prioritized"], ", "))
	rep.Detail["prio_order"] = order
	return rep, nil
}
