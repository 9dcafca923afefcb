// Package telemetry is the runtime's observability subsystem: a
// zero-dependency metrics registry, a Chrome trace_event recorder, a
// flight recorder, and the Hub that carries them — with the guest
// profiler — to every instrumented layer.
//
// The paper's evaluation is built on observing the system from the
// inside — event-loop responsiveness under load (§7.1.3), per-backend
// file system operation latency (Figure 6), and suspend/resume
// overhead (§7.1.1). This package generalizes those one-off
// measurements into four pillars, all attached through one Hub:
//
//   - a metrics registry of lock-cheap counters, gauges, and log-scale
//     latency histograms (p50/p95/p99) keyed by subsystem,
//   - a trace-event recorder that emits Chrome trace_event JSON, so a
//     run opens directly in chrome://tracing or Perfetto, with one
//     track per emulated thread,
//   - an always-on flight recorder: a bounded ring of recent events
//     for post-mortems,
//   - the guest sampling profiler (internal/profile): CPU, allocation
//     and blocked time folded by guest stack.
//
// Instrumented packages hold nil pointers until a pillar is enabled,
// so a disabled pillar adds zero allocations and nothing but a nil
// check to hot paths.
//
// All metric mutation is safe for concurrent use; trace recording is
// mutex-serialized (tracing is expected to be enabled only when the
// cost is acceptable).
package telemetry

import "doppio/internal/profile"

// Well-known trace track IDs (tids). Emulated threads of the core
// runtime use their positive thread IDs; these constants reserve
// tracks for the singleton actors.
const (
	// TIDEventLoop is the browser's single JavaScript thread.
	TIDEventLoop = 0
	// TIDNetwork is the socket layer's reader/writer pump.
	TIDNetwork = 900
)

// TIDCoreThread maps a core-runtime thread ID onto its trace track,
// offset past the reserved singleton tracks. Layers that run inside a
// core thread (e.g. the JVM interpreter) use the same mapping so their
// spans land on that thread's track.
func TIDCoreThread(id int) int { return 100 + id }

// Hub bundles the four telemetry sinks a subsystem may report into:
// it is the one attach point for observation. A nil *Hub, or a Hub
// with a nil Tracer, Flight or Profiler, disables the corresponding
// pillar; instrumented packages must tolerate both.
type Hub struct {
	// Registry collects counters, gauges, and histograms. Never nil on
	// a Hub built with NewHub.
	Registry *Registry
	// Tracer records trace events, or nil when tracing is off.
	Tracer *Tracer
	// Flight is the always-on event ring buffer, or nil when flight
	// recording is off. Instrumented packages hold this pointer and
	// call Record unconditionally (nil receiver is a no-op).
	Flight *FlightRecorder
	// Profiler is the guest sampling profiler, or nil when profiling
	// is off. Every guest runtime attached to the hub folds its CPU,
	// allocation and blocked-time samples into this one profile.
	Profiler *profile.Profiler
	// MethodSpans opts into per-method-invocation trace spans in the
	// JVM interpreter. Off by default: a busy run produces millions of
	// invocations, which overwhelms trace viewers.
	MethodSpans bool
}

// NewHub creates a metrics-only hub.
func NewHub() *Hub {
	return &Hub{Registry: NewRegistry()}
}

// EnableTracing attaches a fresh Tracer and returns the hub. The
// tracer's event ring is bounded (DefaultTraceEventCap; adjust with
// Tracer.SetEventCap) and overflow is counted in the
// telemetry.trace_dropped counter.
func (h *Hub) EnableTracing() *Hub {
	h.Tracer = NewTracer()
	if h.Registry != nil {
		h.Tracer.SetDropCounter(h.Registry.Counter("telemetry", "trace_dropped"))
	}
	return h
}

// EnableFlight attaches a flight recorder retaining the last capacity
// events (DefaultFlightCapacity when non-positive) and returns the hub.
func (h *Hub) EnableFlight(capacity int) *Hub {
	h.Flight = NewFlightRecorder(capacity)
	return h
}

// EnableProfiling attaches a fresh guest profiler and returns the hub.
// Enable it before building the VMs it should sample: runtimes and VMs
// read the profiler once, at construction.
func (h *Hub) EnableProfiling() *Hub {
	h.Profiler = profile.New()
	return h
}
