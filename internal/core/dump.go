package core

import (
	"fmt"
	"strings"
	"time"
)

// ThreadInfo is the post-mortem / live-inspection view of one thread:
// everything a jstack-style report prints per thread.
type ThreadInfo struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	State    string `json:"state"`
	Priority int    `json:"priority"`
	// BlockedOn is the label of the Completion the thread is blocked on
	// (e.g. "monitorenter:Queue"); empty unless State is "blocked".
	BlockedOn string        `json:"blocked_on,omitempty"`
	CPUTime   time.Duration `json:"cpu_time_ns"`
	InQueue   bool          `json:"in_queue"`
}

// SchedulerDump is a point-in-time view of the whole runtime: the
// thread table plus scheduler configuration, queue shape, and
// counters. Collect it with Runtime.Dump on the event-loop goroutine
// (or after the loop has drained).
type SchedulerDump struct {
	Mechanism string        `json:"mechanism"`
	Timeslice time.Duration `json:"timeslice_ns"`
	Threads   []ThreadInfo  `json:"threads"`
	// RunQueueDepths is the queued-thread count per priority level;
	// index 0 is priority 1, the least urgent.
	RunQueueDepths []int `json:"runq_depths"`
	Stats          Stats `json:"stats"`
}

// Dump snapshots the runtime. The runtime executes entirely on the
// event-loop goroutine, so call Dump from there (loop.Post) or after
// Loop.Run has returned.
func (rt *Runtime) Dump() SchedulerDump {
	d := SchedulerDump{
		Mechanism:      rt.mechanism,
		Timeslice:      rt.cfg.Timeslice,
		RunQueueDepths: rt.runq.levelDepths(),
		Stats:          rt.stats,
		Threads:        make([]ThreadInfo, 0, len(rt.threads)),
	}
	for _, t := range rt.threads {
		d.Threads = append(d.Threads, ThreadInfo{
			ID:        t.ID,
			Name:      t.Name,
			State:     t.state.String(),
			Priority:  t.prio,
			BlockedOn: t.blockedOn,
			CPUTime:   t.CPUTime,
			InQueue:   t.inQueue,
		})
	}
	return d
}

// Blocked returns the threads in the dump that are blocked.
func (d SchedulerDump) Blocked() []ThreadInfo {
	var out []ThreadInfo
	for _, t := range d.Threads {
		if t.State == "blocked" {
			out = append(out, t)
		}
	}
	return out
}

// Format renders the dump as a jstack-style human-readable report.
func (d SchedulerDump) Format() string {
	var b strings.Builder
	b.WriteString("== thread dump ==\n")
	fmt.Fprintf(&b, "scheduler: mechanism=%s timeslice=%s\n", d.Mechanism, d.Timeslice)
	fmt.Fprintf(&b, "stats: slices=%d suspensions=%d ctx-switches=%d\n",
		d.Stats.Slices, d.Stats.Suspensions, d.Stats.ContextSwitches)
	depths := make([]string, len(d.RunQueueDepths))
	for i, n := range d.RunQueueDepths {
		depths[i] = fmt.Sprintf("p%d:%d", i+1, n)
	}
	fmt.Fprintf(&b, "run queue: %s\n", strings.Join(depths, " "))
	fmt.Fprintf(&b, "threads (%d):\n", len(d.Threads))
	for _, t := range d.Threads {
		fmt.Fprintf(&b, "  %q #%d prio=%d %s cpu=%s", t.Name, t.ID, t.Priority, t.State, t.CPUTime.Round(time.Microsecond))
		if t.BlockedOn != "" {
			fmt.Fprintf(&b, "\n    waiting on <%s>", t.BlockedOn)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
