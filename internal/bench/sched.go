// Scheduler A/B (BENCH_sched.json): the two scheduler-core features
// on JVM workloads. "batch" compares one timeslice per macrotask with
// macrotask slice batching (one §4.4 resumption round trip covering
// many timeslices) on the examples/multithread producer/consumer, at
// one timeslice and under one watchdog. "prio" compares four equal
// CPU-bound threads with and without Thread.setPriority.
package bench

import (
	"fmt"
	"strings"
	"time"

	"doppio/internal/fleet"
	"doppio/internal/jvm"
)

// Pair counts: batching is judged on a few-percent wall difference and
// needs many pairs; the priority check is behavioural and each of its
// runs takes seconds.
const (
	schedBatchPairs = 10
	schedPrioPairs  = 2
)

// schedBatchProgram is the examples/multithread producer/consumer
// (Object.wait/notify + Thread.sleep) with the item count templated.
const schedBatchProgram = `
class Queue {
    Object lock = new Object();
    int[] items = new int[4];
    int count;

    void put(int v) {
        synchronized (lock) {
            while (count == items.length) { lock.wait(); }
            items[count] = v;
            count++;
            lock.notifyAll();
        }
    }

    int take() {
        synchronized (lock) {
            while (count == 0) { lock.wait(); }
            count--;
            int v = items[count];
            lock.notifyAll();
            return v;
        }
    }
}

class Producer extends Thread {
    Queue q;
    int n;
    Producer(Queue q, int n) { this.q = q; this.n = n; }
    public void run() {
        for (int i = 1; i <= n; i++) {
            q.put(i);
            if (i %% 8 == 0) { Thread.sleep(1L); }
        }
    }
}

class Consumer extends Thread {
    Queue q;
    int n;
    int sum;
    Consumer(Queue q, int n) { this.q = q; this.n = n; }
    public void run() {
        for (int i = 0; i < n; i++) {
            sum += q.take();
        }
    }
}

public class Sched {
    public static void main(String[] args) {
        int n = %d;
        Queue q = new Queue();
        Producer p = new Producer(q, n);
        Consumer a = new Consumer(q, n / 2);
        Consumer b = new Consumer(q, n / 2);
        p.start();
        a.start();
        b.start();
        p.join();
        a.join();
        b.join();
        System.out.println("total " + (a.sum + b.sum));
    }
}
`

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

// runSched runs one compiled Sched program and samples the scheduler
// counters.
func runSched(cfg Config, classes map[string][]byte, batchBudget, watchdog time.Duration) (Sample, error) {
	prof := cfg.Browsers[0]
	prof.WatchdogLimit = watchdog
	win := fleet.NewEnv(prof, cfg.Telemetry).Win
	fw := &firstWrite{}
	s, vm, err := runJVM(win, jvm.DoppioOptions{
		Stdout:           fw,
		Provider:         jvm.MapProvider(classes),
		Timeslice:        cfg.Timeslice,
		BatchBudget:      batchBudget,
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
		"batches":          st.Batches,
		"max_batch_slices": st.MaxBatchSlices,
		"budget_overruns":  st.BudgetOverruns,
	} {
		s.Metrics[name] = float64(v)
	}
	s.Metrics["suspended_ns"] = float64(st.SuspendedTime)
	s.Metrics["longest_task_ns"] = float64(win.Loop.Stats().LongestTask)
	s.Metrics["first_done_ns"] = float64(fw.first)
	return s, nil
}

// runSchedAB runs both comparisons. batch: BatchBudget -1 (one slice
// per macrotask) vs 0 (budget = timeslice), with a watchdog at 5x the
// timeslice on both arms, so a batch that outgrew its budget fails
// the run rather than skewing it. prio: the workers are spawned
// lowest-priority first, so priority, not spawn order, must explain
// the highest-priority worker finishing first.
func runSchedAB(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Timeslice == 0 {
		cfg.Timeslice = 10 * time.Millisecond
	}
	watchdog := 5 * cfg.Timeslice
	items, iters := 64*cfg.Scale, 60_000*cfg.Scale
	rep := newReport("sched", cfg, map[string]any{
		"browser":        cfg.Browsers[0].Name,
		"timeslice":      cfg.Timeslice.String(),
		"watchdog":       watchdog.String(),
		"engine_tax":     !cfg.DisableEngineTax,
		"batch_workload": fmt.Sprintf("producer-consumer n=%d", items),
		"prio_workload":  fmt.Sprintf("4 CPU-bound workers x %d iterations", iters),
	})
	compile := func(format string, args ...any) (map[string][]byte, error) {
		return workloadsCompile(map[string]string{"Sched.mj": fmt.Sprintf(format, args...)})
	}
	batchClasses, err := compile(schedBatchProgram, items)
	if err != nil {
		return nil, err
	}
	want := fmt.Sprintf("total %d\n", items*(items+1)/2)
	batch := func(budget time.Duration) func() (Sample, error) {
		return func() (Sample, error) {
			s, err := runSched(cfg, batchClasses, budget, watchdog)
			if err == nil && s.Output != want {
				err = fmt.Errorf("produced %q, want %q", s.Output, want)
			}
			return s, err
		}
	}
	c, err := rep.compare(AB{Name: "batch", Pairs: schedBatchPairs, SameOutput: true,
		A: Arm{"unbatched", batch(-1)}, B: Arm{"batched", batch(0)}})
	if err != nil {
		return nil, err
	}
	cut := 1 / c.Ratios["suspensions"]
	rep.check("batch: >= 5x fewer suspensions", cut >= 5, "%.1fx fewer", cut)

	equalClasses, err := compile(schedPrioProgram, iters, "")
	if err != nil {
		return nil, err
	}
	prioClasses, err := compile(schedPrioProgram, iters, schedPrioSetters)
	if err != nil {
		return nil, err
	}
	order := map[string][]string{}
	prio := func(name string, classes map[string][]byte) Arm {
		return Arm{name, func() (Sample, error) {
			s, err := runSched(cfg, classes, 0, 0)
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
	c, err = rep.compare(AB{Name: "prio", Pairs: schedPrioPairs,
		A: prio("equal", equalClasses), B: prio("prioritized", prioClasses)})
	if err != nil {
		return nil, err
	}
	rep.check("prio: highest-priority worker finishes first", c.B.Metrics["top_priority_first"].Min == 1,
		"last prioritized order: %s", strings.Join(order["prioritized"], ", "))
	rep.Detail["prio_order"] = order
	return rep, nil
}
