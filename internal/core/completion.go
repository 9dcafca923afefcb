package core

import (
	"sync/atomic"
	"time"

	"doppio/internal/eventloop"
)

// Completion is the runtime's single-fire carrier for the result of an
// asynchronous operation — the one choke point through which every
// blocking site (§4.2's synchronous-over-asynchronous bridge) goes.
//
// It encapsulates the ordering contract that subsystems previously
// hand-rolled out of Thread.Block + loop.AddPending / InvokeExternal /
// DonePending:
//
//   - Resolver() reserves the loop's pending slot *now*, so Run cannot
//     exit while the operation is in flight, and delivers the eventual
//     result as a macrotask labelled with the completion's label.
//   - Resolve settles the completion exactly once; later resolutions
//     (racing resolvers, a duplicate close event) are ignored rather
//     than panicking.
//   - Await parks the calling thread with the completion's label, so
//     blocked-thread accounting and deadlock reports name the
//     operation a thread is stuck on.
//
// A Completion must be created and settled on the event-loop
// goroutine; only the function returned by Resolver may be called from
// other goroutines.
type Completion struct {
	loop  *eventloop.Loop
	label string

	settled bool
	value   interface{}
	err     error

	cbs    []func(v interface{}, err error)
	resume func()
}

// NewCompletion creates an unsettled completion. The label names the
// operation in macrotask diagnostics, blocked-thread state, and
// deadlock reports.
func NewCompletion(loop *eventloop.Loop, label string) *Completion {
	return &Completion{loop: loop, label: label}
}

// Label returns the completion's operation label.
func (c *Completion) Label() string { return c.label }

// Settled reports whether the completion has a result.
func (c *Completion) Settled() bool { return c.settled }

// Value returns the settled result (nil before settlement).
func (c *Completion) Value() interface{} { return c.value }

// Err returns the settled error (nil before settlement).
func (c *Completion) Err() error { return c.err }

// Resolve settles the completion with a value and error, runs the
// registered callbacks, and resumes the awaiting thread, in that
// order. It must be called on the event-loop goroutine. The first call
// wins; later calls report false and change nothing.
func (c *Completion) Resolve(v interface{}, err error) bool {
	if c.settled {
		return false
	}
	c.settled = true
	c.value, c.err = v, err
	cbs := c.cbs
	c.cbs = nil
	for _, cb := range cbs {
		cb(v, err)
	}
	if r := c.resume; r != nil {
		c.resume = nil
		r()
	}
	return true
}

// Resolver returns a settle function that is safe to call from any
// goroutine. The loop's pending count is incremented immediately —
// before the operation's goroutine even starts — so the event loop
// stays alive until the first call delivers the result as a macrotask
// (labelled with the completion's label) and releases the slot. As
// with Resolve, only the first call has any effect.
func (c *Completion) Resolver() func(v interface{}, err error) {
	c.loop.AddPending()
	var fired uint32
	return func(v interface{}, err error) {
		if !atomic.CompareAndSwapUint32(&fired, 0, 1) {
			return
		}
		c.loop.InvokeExternal(c.label, func() {
			defer c.loop.DonePending()
			c.Resolve(v, err)
		})
	}
}

// Then registers cb to run (on the event loop) when the completion
// settles; if it already has, cb runs immediately. Callbacks run in
// registration order, before any awaiting thread resumes, so a
// callback can deposit the result where the resumed thread will read
// it. Returns c for chaining.
func (c *Completion) Then(cb func(v interface{}, err error)) *Completion {
	if c.settled {
		cb(c.value, c.err)
		return c
	}
	c.cbs = append(c.cbs, cb)
	return c
}

// Await parks t until the completion settles and reports whether it
// actually blocked: false means the operation completed synchronously
// and the result is already readable — the caller continues without
// yielding; true means t is blocked on this completion (its label
// shows up in Thread.BlockedOn and deadlock reports) and the Runnable
// must return Block.
func (c *Completion) Await(t *Thread) bool {
	if c.settled {
		return false
	}
	c.resume = t.Block(c.label)
	return true
}

// After runs fn on the event loop after at least d of real time,
// holding the loop's pending slot for the duration — the scheduling
// primitive behind retry backoff. Unlike loop.SetTimeout it uses a
// wall-clock timer off the loop, so the delay is not subject to the
// browser's minimum-delay clamp. The returned completion settles just
// before fn runs.
func After(loop *eventloop.Loop, label string, d time.Duration, fn func()) *Completion {
	c := NewCompletion(loop, label)
	c.Then(func(interface{}, error) { fn() })
	resolve := c.Resolver()
	if d <= 0 {
		// Nothing to wait for; still deliver through the loop so fn
		// runs as a macrotask like every other completion.
		resolve(nil, nil)
		return c
	}
	time.AfterFunc(d, func() { resolve(nil, nil) })
	return c
}
