package core

import "time"

// Thread is one emulated thread: an entry in the paper's "thread pool"
// of saved call stacks (§4.3). The language implementation owns the
// actual stack representation; the Thread tracks scheduling state and
// provides the suspend/block primitives.
type Thread struct {
	rt       *Runtime
	ID       int
	Name     string
	runnable Runnable
	state    ThreadState
	clock    *suspendClock
	joiners  []func()

	// Run-queue linkage (intrusive doubly-linked list, one list per
	// priority level) — owned by runQueue.
	prio    int
	qprev   *Thread
	qnext   *Thread
	inQueue bool
	enqSeq  uint64

	// blockedOn labels the completion the thread is currently blocked
	// on; empty while not blocked.
	blockedOn string

	// CPUTime is the total time this thread spent executing.
	CPUTime time.Duration

	// lastSampleAt is the profiler's per-thread sampling cursor:
	// the time of the last CPU sample (reset at slice start so only
	// on-CPU time is attributed). Owned by Runtime.sample.
	lastSampleAt time.Time

	// Data lets the language implementation attach its per-thread
	// state (e.g. the JVM thread object). The profiler walks it when
	// it implements StackWalker.
	Data interface{}
}

// State returns the thread's scheduling state.
func (t *Thread) State() ThreadState { return t.state }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// Priority returns the thread's run-queue priority level (1 = lowest).
func (t *Thread) Priority() int { return t.prio }

// SetPriority moves the thread to priority level p (clamped to
// MinPriority..MaxPriority). A queued thread is re-enqueued at the
// tail of its new level; a running or blocked thread re-enters the
// queue at the new level when it next becomes ready.
func (t *Thread) SetPriority(p int) {
	p = t.rt.runq.clampPrio(p)
	if p == t.prio {
		return
	}
	if t.inQueue {
		t.rt.runq.remove(t)
		t.prio = p
		t.rt.runq.push(t)
		return
	}
	t.prio = p
}

// BlockedOn returns the label of the completion the thread is blocked
// on ("" when not blocked) — the per-completion tag deadlock reports
// carry.
func (t *Thread) BlockedOn() string { return t.blockedOn }

// CheckSuspend implements the §4.1 suspend check: the language
// implementation calls it periodically (e.g. at every method-call
// boundary); it returns true when the timeslice has expired and the
// Runnable should return Yield.
func (t *Thread) CheckSuspend() bool { return t.clock.check() }

// Block marks the thread blocked and returns the resume function that
// the eventual completion callback must invoke (from the event loop) to
// make the thread ready again. Calling resume more than once panics;
// Completion wraps this primitive with single-fire semantics for call
// sites where duplicate resolutions are legal.
func (t *Thread) Block(reason string) (resume func()) {
	if t.state != RunningState {
		panic("core: Block called on a thread that is not running: " + t.state.String())
	}
	t.state = BlockedState
	t.blockedOn = reason
	t.rt.flight().Record("comp", "block", reason, int64(t.ID))
	var blockedAt time.Time
	if t.rt.prof != nil {
		blockedAt = time.Now()
	}
	fired := false
	return func() {
		if fired {
			panic("core: thread " + t.Name + " resumed twice (" + reason + ")")
		}
		fired = true
		if t.state != BlockedState {
			return // terminated while blocked (e.g. runtime shutdown)
		}
		if !blockedAt.IsZero() {
			// The guest stack has not moved since the block, so the
			// wait is attributed to its call site, with the completion
			// label as the leaf frame: "call site → what it waited on".
			if w, ok := t.Data.(StackWalker); ok {
				t.rt.prof.SampleBlock(append(w.GuestStack(), reason), time.Since(blockedAt))
			}
		}
		t.rt.flight().Record("comp", "settle", reason, int64(t.ID))
		t.state = ReadyState
		t.blockedOn = ""
		t.rt.runq.push(t)
		t.rt.queueTick(true)
	}
}

// Sleep blocks the thread for at least d using the browser timer; the
// Runnable must return Block after calling it.
func (t *Thread) Sleep(d time.Duration) {
	c := NewCompletion(t.rt.loop, "core.sleep")
	t.rt.loop.SetTimeout(func() { c.Resolve(nil, nil) }, d)
	c.Await(t)
}

// Join registers fn to run when the thread terminates; if it already
// has, fn runs immediately.
func (t *Thread) Join(fn func()) {
	if t.state == TerminatedState {
		fn()
		return
	}
	t.joiners = append(t.joiners, fn)
}

// Kill terminates a blocked or ready thread without running it again.
// Removing a queued thread is O(1) thanks to the intrusive run-queue
// links.
func (t *Thread) Kill() {
	switch t.state {
	case ReadyState:
		t.rt.runq.remove(t)
	case TerminatedState:
		return
	}
	t.state = TerminatedState
	t.blockedOn = ""
	for _, j := range t.joiners {
		j()
	}
	t.joiners = nil
}

// AsyncCall implements §4.2's synchronous-over-asynchronous bridge for
// Runnables structured as state machines: launch must start the
// asynchronous browser operation and arrange for done to be called
// (on the event loop) with the result. It reports whether the thread
// actually blocked — true means the Runnable must return Block; false
// means the operation completed synchronously and execution can
// continue. After resumption the language implementation reads the
// deposited result from wherever done stored it and continues as if
// the call had been synchronous.
func (t *Thread) AsyncCall(reason string, launch func(done func())) bool {
	c := NewCompletion(t.rt.loop, reason)
	launch(func() { c.Resolve(nil, nil) })
	return c.Await(t)
}
