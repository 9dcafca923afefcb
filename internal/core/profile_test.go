package core

import (
	"strings"
	"testing"
	"time"

	"doppio/internal/profile"
	"doppio/internal/telemetry"
)

// walked is a thread payload that names a fixed guest stack.
type walked []string

func (w walked) GuestStack() []string { return w }

// TestProfilerSamplesThroughStackWalker pins the runtime's sampler: a
// hub's profiler folds CPU time at the stack a thread's Data walks,
// skips a thread with no stack to walk, and folds a labelled wait as
// blocked time with the label as the leaf frame.
func TestProfilerSamplesThroughStackWalker(t *testing.T) {
	hub := telemetry.NewHub().EnableProfiling()
	loop, rt := newTestRuntime(chromeOpts(), Config{
		Timeslice: 2 * time.Millisecond,
		Telemetry: hub,
	})
	hot := rt.Spawn("hot", &spinner{steps: 200, stepCost: 50 * time.Microsecond})
	hot.Data = walked{"Main.main", "Main.spin:7"}
	rt.Spawn("anonymous", &spinner{steps: 200, stepCost: 50 * time.Microsecond})
	blocked := false
	waiter := rt.Spawn("waiter", RunnableFunc(func(th *Thread) RunResult {
		if blocked {
			return Done
		}
		blocked = true
		resume := th.Block("test.wait")
		loop.SetTimeout(resume, 3*time.Millisecond)
		return Block
	}))
	waiter.Data = walked{"Main.await:3"}
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}

	// The waiter's slice ended in Block, so its short tail window is
	// attributed too; the anonymous spinner is never sampled.
	cpu := map[string]profile.Entry{}
	for _, e := range hub.Profiler.Snapshot(profile.CPU).Entries {
		cpu[strings.Join(e.Stack, ";")] = e
	}
	if len(cpu) != 2 {
		t.Fatalf("cpu stacks %v, want the two walked threads'", cpu)
	}
	e, ok := cpu["Main.main;Main.spin:7"]
	// Every window but the finishing slice's tail is attributed.
	if !ok || e.Value > int64(hot.CPUTime) || e.Value < int64(hot.CPUTime)/4 {
		t.Errorf("sampled %v of the spinner's %v on-CPU time", time.Duration(e.Value), hot.CPUTime)
	}
	if _, ok := cpu["Main.await:3"]; !ok {
		t.Errorf("the waiter's slice was not closed out: %v", cpu)
	}

	block := hub.Profiler.Snapshot(profile.Block)
	if len(block.Entries) != 1 {
		t.Fatalf("block entries %+v, want the one labelled wait", block.Entries)
	}
	b := block.Entries[0]
	if st := strings.Join(b.Stack, ";"); st != "Main.await:3;test.wait" || b.Count != 1 {
		t.Errorf("block entry %q x%d, want Main.await:3;test.wait x1", st, b.Count)
	}
	if b.Value < int64(2*time.Millisecond) {
		t.Errorf("blocked %v, want at least the 3 ms wait", time.Duration(b.Value))
	}
}
