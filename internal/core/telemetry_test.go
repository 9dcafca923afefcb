package core

import (
	"testing"
	"time"

	"doppio/internal/telemetry"
)

func TestRuntimeTelemetry(t *testing.T) {
	hub := telemetry.NewHub().EnableTracing()
	loop, rt := newTestRuntime(chromeOpts(), Config{
		Timeslice: time.Millisecond,
		Telemetry: hub,
	})

	const yields = 5
	n := 0
	rt.Spawn("worker", RunnableFunc(func(th *Thread) RunResult {
		n++
		if n < yields {
			return Yield
		}
		return Done
	}))
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}

	reg := hub.Registry
	if got := reg.Counter("core", "suspensions").Value(); got < yields-1 {
		t.Errorf("suspensions = %d, want >= %d", got, yields-1)
	}
	if got := reg.Histogram("core", "yield_latency").Count(); got < yields-1 {
		t.Errorf("yield_latency count = %d, want >= %d", got, yields-1)
	}
	if got := reg.Histogram("core", "timeslice").Count(); got != yields {
		t.Errorf("timeslice count = %d, want %d", got, yields)
	}
	if got := reg.Gauge("core", "suspend_quantum").Value(); got <= 0 {
		t.Errorf("suspend_quantum = %d, want > 0", got)
	}

	// The thread's timeslices must show up as spans on its own track,
	// with a thread_name metadata record.
	spans, named := 0, false
	tid := coreThreadTID(1)
	for _, ev := range hub.Tracer.Events() {
		if ev.TID != tid {
			continue
		}
		switch ev.Ph {
		case "X":
			spans++
		case "M":
			named = true
		}
	}
	if spans != yields {
		t.Errorf("thread spans = %d, want %d", spans, yields)
	}
	if !named {
		t.Error("missing thread_name metadata for doppio thread track")
	}
}

func TestRuntimeTelemetryBatching(t *testing.T) {
	hub := telemetry.NewHub()
	loop, rt := newTestRuntime(chromeOpts(), Config{
		Timeslice: time.Millisecond,
		Telemetry: hub,
	})
	for i := 0; i < 3; i++ {
		n := 0
		rt.Spawn("w", RunnableFunc(func(th *Thread) RunResult {
			n++
			if n < 4 {
				return Yield
			}
			return Done
		}))
	}
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	reg := hub.Registry
	if got := reg.Gauge("core", "runq_depth_max").Value(); got < 2 {
		t.Errorf("runq_depth_max = %d, want >= 2", got)
	}
	if got := reg.Gauge("core", "runq_depth").Value(); got != 0 {
		t.Errorf("runq_depth after drain = %d, want 0", got)
	}
}

func TestRuntimeTelemetryContextSwitches(t *testing.T) {
	hub := telemetry.NewHub()
	// Two same-priority threads round-robin deterministically.
	loop, rt := newTestRuntime(chromeOpts(), Config{
		Timeslice: time.Millisecond,
		Telemetry: hub,
	})
	for i := 0; i < 2; i++ {
		n := 0
		rt.Spawn("t", RunnableFunc(func(th *Thread) RunResult {
			n++
			if n < 3 {
				return Yield
			}
			return Done
		}))
	}
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if got := hub.Registry.Counter("core", "context_switches").Value(); got == 0 {
		t.Error("context_switches = 0, want > 0")
	}
}

func TestRuntimeWithoutTelemetry(t *testing.T) {
	// A runtime with no hub must leave rt.tel nil and still run.
	loop, rt := newTestRuntime(chromeOpts(), Config{})
	if rt.tel != nil {
		t.Fatal("telemetry must be disabled by default")
	}
	done := false
	rt.Spawn("t", RunnableFunc(func(th *Thread) RunResult {
		done = true
		return Done
	}))
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("thread did not run")
	}
}
