package core

import (
	"strings"
	"testing"
	"time"

	"doppio/internal/telemetry"
)

func TestDumpAndFlightEvents(t *testing.T) {
	hub := telemetry.NewHub().EnableFlight(256)
	loop, rt := newTestRuntime(chromeOpts(), Config{Timeslice: time.Millisecond, Telemetry: hub})

	// worker blocks on a labeled completion that main resolves later.
	c := NewCompletion(loop, "handoff:test")
	rt.Spawn("worker", RunnableFunc(func(th *Thread) RunResult {
		if !c.Await(th) {
			return Done
		}
		return Block
	}))
	rt.Spawn("main", RunnableFunc(func(th *Thread) RunResult {
		loop.SetTimeout(func() { c.Resolve(nil, nil) }, 2*time.Millisecond)
		return Done
	}))
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}

	d := rt.Dump()
	if len(d.Threads) != 2 {
		t.Fatalf("dump threads = %d, want 2", len(d.Threads))
	}
	for _, th := range d.Threads {
		if th.State != "terminated" {
			t.Fatalf("thread %q state = %s, want terminated", th.Name, th.State)
		}
	}
	if len(d.RunQueueDepths) != MaxPriority {
		t.Fatalf("runq levels = %d, want %d", len(d.RunQueueDepths), MaxPriority)
	}
	text := d.Format()
	for _, want := range []string{"thread dump", "worker", "main", "run queue", "mechanism=postMessage"} {
		if !strings.Contains(text, want) {
			t.Fatalf("dump missing %q:\n%s", want, text)
		}
	}

	// Flight ring must have seen: spawns, a block/settle pair labeled
	// with the completion label, and a slice of each thread.
	got := map[string]bool{}
	for _, ev := range hub.Flight.Events() {
		got[ev.Cat+"/"+ev.Event+"/"+ev.Label] = true
	}
	for _, want := range []string{
		"sched/spawn/worker",
		"sched/spawn/main",
		"comp/block/handoff:test",
		"comp/settle/handoff:test",
		"sched/slice/worker",
		"sched/slice/main",
	} {
		if !got[want] {
			t.Fatalf("flight missing %q; recorded: %v", want, got)
		}
	}
}

func TestDumpBlockedThread(t *testing.T) {
	loop, rt := newTestRuntime(chromeOpts(), Config{Timeslice: time.Millisecond})
	c := NewCompletion(loop, "monitorenter:Queue")
	rt.Spawn("stuck", RunnableFunc(func(th *Thread) RunResult {
		c.Await(th)
		return Block
	}))
	rt.Start()
	if err := loop.Run(); err != nil { // drains with the thread still blocked
		t.Fatal(err)
	}
	d := rt.Dump()
	blocked := d.Blocked()
	if len(blocked) != 1 || blocked[0].BlockedOn != "monitorenter:Queue" {
		t.Fatalf("blocked = %+v", blocked)
	}
	if !strings.Contains(d.Format(), "waiting on <monitorenter:Queue>") {
		t.Fatalf("format missing blocked-on label:\n%s", d.Format())
	}
}
