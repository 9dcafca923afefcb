// Package core implements the Doppio execution environment (§4 of the
// paper): the machinery that lets a language implementation with an
// explicit, heap-allocated call stack run inside the browser's
// single-threaded, event-driven world.
//
// It provides:
//
//   - automatic event segmentation via suspend-and-resume with an
//     adaptive counter (§4.1),
//   - emulation of synchronous source-language APIs on top of
//     asynchronous browser APIs (§4.2) through the Completion
//     primitive,
//   - cooperative multithreading over a pool of saved call stacks,
//     scheduled by a priority run queue with starvation aging (§4.3),
//     one timeslice per macrotask,
//   - per-browser selection of the fastest resumption mechanism:
//     setImmediate, then postMessage, then setTimeout (§4.4).
//
// A language implementation supplies Runnable values whose state (call
// stack, program counter) lives entirely in Go data structures — the
// analog of the paper's requirement that "the call stack must be
// explicitly stored in JavaScript objects". Each Runnable.Run call
// executes until the thread finishes, decides to yield (after
// Thread.CheckSuspend reports that the timeslice expired), or blocks.
package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"doppio/internal/eventloop"
	"doppio/internal/profile"
	"doppio/internal/telemetry"
)

// runtimeSeq distinguishes runtimes that share one event loop — the
// process layer runs one Runtime per guest VM — so their postMessage
// resumption ids never collide across msgMap instances.
var runtimeSeq uint64

// RunResult is what a Runnable reports at the end of a timeslice.
type RunResult int

const (
	// Done means the thread has finished executing.
	Done RunResult = iota
	// Yield means the timeslice expired; the thread remains ready and
	// will be resumed on a later scheduling decision.
	Yield
	// Block means the thread is waiting (async I/O, a monitor, sleep)
	// and must not be rescheduled until its resume function is called.
	Block
)

// Runnable is a resumable computation: all of its state lives on the
// heap so that Run can return mid-computation and continue later.
type Runnable interface {
	Run(t *Thread) RunResult
}

// RunnableFunc adapts a function to the Runnable interface.
type RunnableFunc func(t *Thread) RunResult

// Run calls f.
func (f RunnableFunc) Run(t *Thread) RunResult { return f(t) }

// ThreadState describes where a thread is in its lifecycle.
type ThreadState int

const (
	// ReadyState marks a thread eligible for scheduling.
	ReadyState ThreadState = iota
	// RunningState marks the thread currently executing.
	RunningState
	// BlockedState marks a thread waiting for an external resume.
	BlockedState
	// TerminatedState marks a finished thread.
	TerminatedState
)

func (s ThreadState) String() string {
	switch s {
	case ReadyState:
		return "ready"
	case RunningState:
		return "running"
	case BlockedState:
		return "blocked"
	case TerminatedState:
		return "terminated"
	}
	return "unknown"
}

// Priority bounds, JVM-style: level 1 is the least urgent, 10 the
// most, 5 the level every thread starts at.
const (
	MinPriority      = 1
	NormPriority     = 5
	MaxPriority      = 10
	defaultAging     = 16 // picks a lower-priority head waits before preempting
	defaultTimeslice = 10 * time.Millisecond
)

// Config tunes a Runtime.
type Config struct {
	// Timeslice is the preconfigured time slice duration (§4.1) after
	// which a thread should suspend. Defaults to 10 ms.
	Timeslice time.Duration

	// ForceMechanism, if non-empty, overrides the automatic resumption
	// mechanism choice ("setImmediate", "postMessage" or "setTimeout")
	// — used by the DESIGN.md D1 ablation.
	ForceMechanism string

	// FixedCounter disables the adaptive quantum and uses this fixed
	// check count instead — the DESIGN.md D2 ablation.
	FixedCounter int

	// Telemetry attaches the runtime to an observability hub. When
	// the hub carries a Profiler, the runtime samples its threads'
	// guest stacks (see StackWalker).
	Telemetry *telemetry.Hub
}

// StackWalker is implemented by a thread's Data when the language
// implementation can name the thread's guest call stack: root-first
// frame strings, the leaf last (package profile's convention). The
// profiler samples only threads whose Data implements it.
type StackWalker interface {
	GuestStack() []string
}

// Stats captures runtime instrumentation for Figures 4 and 5.
type Stats struct {
	// Suspensions counts suspend-and-resume round trips (§4.4): the
	// number of times the runtime yielded the JavaScript thread and
	// paid the resumption mechanism.
	Suspensions int
	// SuspendedTime is total time spent suspended — between yielding
	// the JavaScript thread and the resumption callback firing.
	SuspendedTime time.Duration
	// CPUTime is total time spent executing thread timeslices.
	CPUTime time.Duration
	// ContextSwitches counts scheduler decisions that changed threads.
	ContextSwitches int
	// Slices counts executed timeslices across all threads, one per
	// scheduler macrotask.
	Slices int
}

// Runtime is a Doppio execution environment bound to one event loop.
type Runtime struct {
	loop *eventloop.Loop
	cfg  Config

	mechanism string
	rtSeq     uint64 // distinguishes runtimes sharing one loop
	msgSeq    int
	msgMap    map[string]func()

	threads    []*Thread
	runq       *runQueue
	current    *Thread
	nextID     int
	tickQueued bool

	stats   Stats
	lastRun *Thread

	tel *rtTelemetry

	// prof is the hub's guest profiler, nil when profiling is off.
	prof *profile.Profiler

	onIdle []func() // notified when no threads remain
}

// rtTelemetry holds the pre-resolved metric handles for one runtime.
// The runtime executes entirely on the event-loop goroutine, so the
// pointer is read without synchronization.
type rtTelemetry struct {
	yieldLatency *telemetry.Histogram // suspend → resumption latency (§4.4)
	sliceDur     *telemetry.Histogram // timeslice execution duration
	quantum      *telemetry.Gauge     // latest adaptive suspend-counter quantum (§4.1)
	runqDepth    *telemetry.Gauge     // run-queue depth after the latest slice
	runqMax      *telemetry.Gauge     // high-watermark run-queue depth
	suspensions  *telemetry.Counter
	ctxSwitches  *telemetry.Counter
	tracer       *telemetry.Tracer
	flight       *telemetry.FlightRecorder
}

// flight returns the flight recorder, nil when recording is off; the
// recorder's methods are nil-safe so call sites record unconditionally.
func (rt *Runtime) flight() *telemetry.FlightRecorder {
	if tel := rt.tel; tel != nil {
		return tel.flight
	}
	return nil
}

// coreThreadTID maps a Doppio thread ID onto its trace track.
func coreThreadTID(id int) int { return telemetry.TIDCoreThread(id) }

// NewRuntime creates a runtime driving threads on the given event
// loop. The resumption mechanism is chosen from the loop's options
// (§4.4) unless cfg.ForceMechanism overrides it.
func NewRuntime(loop *eventloop.Loop, cfg Config) *Runtime {
	if cfg.Timeslice == 0 {
		cfg.Timeslice = defaultTimeslice
	}
	rt := &Runtime{
		loop:   loop,
		cfg:    cfg,
		rtSeq:  atomic.AddUint64(&runtimeSeq, 1),
		runq:   newRunQueue(MaxPriority, defaultAging),
		msgMap: make(map[string]func()),
	}
	rt.mechanism = cfg.ForceMechanism
	if rt.mechanism == "" {
		rt.mechanism = chooseMechanism(loop.Options())
	}
	if rt.mechanism == "postMessage" {
		loop.OnMessage(rt.onMessage)
	}
	if h := cfg.Telemetry; h != nil {
		rt.tel = &rtTelemetry{
			yieldLatency: h.Registry.Histogram("core", "yield_latency"),
			sliceDur:     h.Registry.Histogram("core", "timeslice"),
			quantum:      h.Registry.Gauge("core", "suspend_quantum"),
			runqDepth:    h.Registry.Gauge("core", "runq_depth"),
			runqMax:      h.Registry.Gauge("core", "runq_depth_max"),
			suspensions:  h.Registry.Counter("core", "suspensions"),
			ctxSwitches:  h.Registry.Counter("core", "context_switches"),
			tracer:       h.Tracer,
			flight:       h.Flight,
		}
		rt.prof = h.Profiler
	}
	return rt
}

// chooseMechanism implements §4.4: setImmediate where available (IE10),
// postMessage elsewhere — except browsers whose postMessage is
// synchronous (IE8), forcing the setTimeout fallback.
func chooseMechanism(opts eventloop.Options) string {
	switch {
	case opts.HasSetImmediate:
		return "setImmediate"
	case !opts.SyncPostMessage:
		return "postMessage"
	default:
		return "setTimeout"
	}
}

// Mechanism reports the resumption mechanism in use.
func (rt *Runtime) Mechanism() string { return rt.mechanism }

// Loop returns the underlying event loop.
func (rt *Runtime) Loop() *eventloop.Loop { return rt.loop }

// Stats returns a snapshot of the runtime statistics.
func (rt *Runtime) Stats() Stats { return rt.stats }

// Timeslice returns the configured time slice.
func (rt *Runtime) Timeslice() time.Duration { return rt.cfg.Timeslice }

func (rt *Runtime) onMessage(id string) {
	cb, ok := rt.msgMap[id]
	if !ok {
		return
	}
	delete(rt.msgMap, id)
	cb()
}

// scheduleResumption inserts fn into the event queue via the chosen
// resumption mechanism (§4.4). Time spent between this call and fn
// executing is "suspended time" (Figure 5). The timestamp is captured
// per closure, so overlapping resumptions each measure their own
// latency.
func (rt *Runtime) scheduleResumption(fn func()) {
	suspendedAt := time.Now()
	wrapped := func() {
		d := time.Since(suspendedAt)
		rt.stats.SuspendedTime += d
		rt.stats.Suspensions++
		if tel := rt.tel; tel != nil {
			tel.yieldLatency.ObserveDuration(d)
			tel.suspensions.Inc()
		}
		fn()
	}
	switch rt.mechanism {
	case "setImmediate":
		if err := rt.loop.SetImmediate(wrapped); err != nil {
			// The forced mechanism is unavailable; fall back.
			rt.loop.SetTimeout(wrapped, 0)
		}
	case "postMessage":
		rt.msgSeq++
		id := fmt.Sprintf("doppio-resume-%d-%d", rt.rtSeq, rt.msgSeq)
		rt.msgMap[id] = wrapped
		rt.loop.PostMessage(id)
	default: // setTimeout
		rt.loop.SetTimeout(wrapped, 0)
	}
}

// sample is the suspend clock's probe, armed only while profiling:
// once profile.CPUInterval has elapsed since t's previous sample, the
// whole on-CPU window is attributed to the stack observed here —
// classic sampling. The clock has already read now, so the counter's
// fast path stays untouched.
func (rt *Runtime) sample(t *Thread, now time.Time) {
	dt := now.Sub(t.lastSampleAt)
	if dt < profile.CPUInterval {
		return
	}
	t.lastSampleAt = now
	rt.sampleCPU(t, dt)
}

// sampleCPU folds dt of on-CPU time into the profile at t's guest
// stack; a thread with no stack to walk is not sampled.
func (rt *Runtime) sampleCPU(t *Thread, dt time.Duration) {
	if w, ok := t.Data.(StackWalker); ok {
		if st := w.GuestStack(); st != nil {
			rt.prof.SampleCPU(st, dt)
		}
	}
}

// Spawn creates a new thread in the pool at the default priority,
// ready to run. Start (or an already-running scheduler) will pick it
// up.
func (rt *Runtime) Spawn(name string, r Runnable) *Thread {
	rt.nextID++
	t := &Thread{
		rt:       rt,
		ID:       rt.nextID,
		Name:     name,
		runnable: r,
		state:    ReadyState,
		prio:     NormPriority,
	}
	t.clock = newSuspendClock(rt.cfg.Timeslice, rt.cfg.FixedCounter)
	if rt.prof != nil {
		t.clock.probe = func(now time.Time) { rt.sample(t, now) }
	}
	if tel := rt.tel; tel != nil && tel.tracer != nil {
		tel.tracer.ThreadName(coreThreadTID(t.ID), fmt.Sprintf("doppio thread %d: %s", t.ID, name))
	}
	rt.flight().Record("sched", "spawn", name, int64(t.ID))
	rt.threads = append(rt.threads, t)
	rt.runq.push(t)
	rt.noteQueueDepth()
	return t
}

// Start begins executing threads. It returns immediately; execution
// happens as the event loop runs.
func (rt *Runtime) Start() { rt.queueTick(false) }

// queueTick schedules a scheduler tick. direct posts to the queue
// without the resumption mechanism (used for the initial start);
// otherwise the §4.4 mechanism is used and suspension time is counted.
func (rt *Runtime) queueTick(viaMechanism bool) {
	if rt.tickQueued {
		return
	}
	rt.tickQueued = true
	tick := func() {
		rt.tickQueued = false
		rt.tick()
	}
	if viaMechanism {
		rt.scheduleResumption(tick)
	} else {
		rt.loop.Post("doppio-sched", tick)
	}
}

// tick runs one scheduler macrotask (§4.1, §4.4): it pops the next
// ready thread, runs one timeslice of it, and, if work remains, pays
// the resumption round trip before the next slice, so the browser's
// own events interleave with every slice.
func (rt *Runtime) tick() {
	t := rt.runq.pop()
	if t == nil {
		rt.maybeIdle()
		return
	}
	rt.runSlice(t)
	rt.flight().Record("sched", "slice", t.Name, int64(t.ID))
	rt.noteQueueDepth()
	if rt.runq.size > 0 {
		rt.queueTick(true)
	} else {
		rt.maybeIdle()
	}
}

// runSlice executes one timeslice of t and applies the thread's
// verdict to the scheduler state.
func (rt *Runtime) runSlice(t *Thread) {
	if rt.lastRun != nil && rt.lastRun != t {
		rt.stats.ContextSwitches++
		if rt.tel != nil {
			rt.tel.ctxSwitches.Inc()
		}
	}
	rt.lastRun = t
	rt.current = t
	rt.stats.Slices++
	t.state = RunningState
	t.clock.startSlice()

	var span telemetry.Span
	if tel := rt.tel; tel != nil {
		tel.quantum.Set(int64(t.clock.initial))
		if tel.tracer != nil {
			span = tel.tracer.Begin(coreThreadTID(t.ID), "core", t.Name)
		}
	}
	start := time.Now()
	if rt.prof != nil {
		// On-CPU accounting starts fresh each slice: time spent off
		// the CPU (queued, suspended) must not be attributed.
		t.lastSampleAt = start
	}
	res := t.runnable.Run(t)
	elapsed := time.Since(start)
	rt.stats.CPUTime += elapsed
	t.CPUTime += elapsed
	if rt.prof != nil && res != Done {
		// Close out the slice: attribute the tail window (below the
		// in-slice interval gate) so sampled time tracks CPUTime.
		// Finished threads have unwound their stack — skip them.
		rt.sampleCPU(t, time.Since(t.lastSampleAt))
	}
	if tel := rt.tel; tel != nil {
		span.End()
		tel.sliceDur.ObserveDuration(elapsed)
	}
	rt.current = nil

	switch res {
	case Done:
		t.state = TerminatedState
		for _, j := range t.joiners {
			j()
		}
		t.joiners = nil
	case Yield:
		t.state = ReadyState
		rt.runq.push(t)
	case Block:
		// The thread must have parked itself (Thread.Block directly or
		// via Completion.Await). ReadyState is also legal: the
		// completion settled on-loop before the slice returned, and
		// the thread is already queued again.
		if t.state != BlockedState && t.state != ReadyState {
			panic("core: Runnable returned Block without calling Thread.Block")
		}
	}
}

// noteQueueDepth exports the current run-queue depth.
func (rt *Runtime) noteQueueDepth() {
	if tel := rt.tel; tel != nil {
		depth := int64(rt.runq.depth())
		tel.runqDepth.Set(depth)
		tel.runqMax.SetMax(depth)
	}
}

func (rt *Runtime) maybeIdle() {
	if rt.runq.size > 0 {
		return
	}
	for _, t := range rt.threads {
		if t.state == BlockedState || t.state == RunningState {
			return
		}
	}
	for _, fn := range rt.onIdle {
		fn()
	}
	rt.onIdle = nil
}

// OnIdle registers fn to run once every thread has terminated.
func (rt *Runtime) OnIdle(fn func()) {
	rt.onIdle = append(rt.onIdle, fn)
}

// DeadlockedThreads returns the threads still blocked after the event
// loop drained — i.e., threads that can never resume.
func (rt *Runtime) DeadlockedThreads() []*Thread {
	var out []*Thread
	for _, t := range rt.threads {
		if t.state == BlockedState {
			out = append(out, t)
		}
	}
	return out
}

// DeadlockReport formats the deadlocked threads with the label of the
// completion each is blocked on, e.g.
// "worker#2 on monitorenter:Queue". Empty when nothing is deadlocked.
func (rt *Runtime) DeadlockReport() string {
	var b strings.Builder
	for _, t := range rt.DeadlockedThreads() {
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s#%d on %s", t.Name, t.ID, t.BlockedOn())
	}
	return b.String()
}

// Threads returns all threads ever spawned.
func (rt *Runtime) Threads() []*Thread { return rt.threads }

// QueueDepth reports the current run-queue depth — the placement
// signal the fleet supervisor's shard monitor publishes. Like Dump it
// must be called on the loop goroutine (or after the loop drains).
func (rt *Runtime) QueueDepth() int { return rt.runq.depth() }
