package core

import "time"

// suspendClock implements the adaptive suspend counter of §4.1:
//
//	"DOPPIO uses a simple counter to determine when an application
//	 needs to suspend. Each suspend check initiated by the language
//	 implementation decrements the counter by 1. When the counter
//	 reaches 0, DOPPIO determines how long it took for the counter to
//	 tick to 0. It then updates a cumulative moving average
//	 representing how often the program checks whether or not it
//	 should suspend. This new value, along with a preconfigured time
//	 slice duration, is then used to set the new counter value."
type suspendClock struct {
	timeslice time.Duration
	fixed     int // non-zero disables adaptation (ablation D2)

	counter    int
	initial    int
	resetAt    time.Time
	avgPerMs   float64 // cumulative moving average of checks per ms
	samples    int
	sliceStart time.Time

	// probe, when set, fires on every counter expiry with the
	// timestamp check() already read — the profiler's CPU sample
	// point. It costs nothing on the counter>0 fast path.
	probe func(now time.Time)
}

const (
	initialCounter = 100
	minCounter     = 32
	maxCounter     = 50_000_000
)

func newSuspendClock(timeslice time.Duration, fixed int) *suspendClock {
	c := &suspendClock{timeslice: timeslice, fixed: fixed}
	c.counter = initialCounter
	if fixed > 0 {
		c.counter = fixed
	}
	c.initial = c.counter
	c.resetAt = time.Now()
	return c
}

// startSlice notes the beginning of a fresh timeslice.
func (c *suspendClock) startSlice() {
	c.sliceStart = time.Now()
	c.resetAt = c.sliceStart
	if c.fixed > 0 {
		c.counter = c.fixed
		c.initial = c.fixed
		return
	}
	c.counter = c.quantumFromAverage()
	c.initial = c.counter
}

// check decrements the counter and reports whether the timeslice has
// expired (time to suspend).
func (c *suspendClock) check() bool {
	c.counter--
	if c.counter > 0 {
		return false
	}
	now := time.Now()
	if c.probe != nil {
		c.probe(now)
	}
	if c.fixed > 0 {
		// Fixed mode: suspend every `fixed` checks, no adaptation.
		c.counter = c.fixed
		c.resetAt = now
		return true
	}
	elapsed := now.Sub(c.resetAt)
	if elapsed <= 0 {
		elapsed = time.Microsecond
	}
	rate := float64(c.initial) / (float64(elapsed) / float64(time.Millisecond))
	c.samples++
	// Cumulative moving average of the program's check rate.
	c.avgPerMs += (rate - c.avgPerMs) / float64(c.samples)

	if since := now.Sub(c.sliceStart); since < c.timeslice {
		// The timeslice hasn't expired yet: re-arm the counter for the
		// rest of it and keep running.
		remaining := c.timeslice - since
		c.counter = clampCounter(int(c.avgPerMs * float64(remaining) / float64(time.Millisecond)))
		c.initial = c.counter
		c.resetAt = now
		return false
	}
	// Timeslice expired: suspend. The next slice's quantum comes from
	// the moving average.
	return true
}

func (c *suspendClock) quantumFromAverage() int {
	if c.samples == 0 {
		return initialCounter
	}
	return clampCounter(int(c.avgPerMs * float64(c.timeslice) / float64(time.Millisecond)))
}

func clampCounter(n int) int {
	if n < minCounter {
		return minCounter
	}
	if n > maxCounter {
		return maxCounter
	}
	return n
}
