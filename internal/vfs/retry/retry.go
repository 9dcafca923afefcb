// Package retry holds the policy side of the runtime's fault model:
// a bounded number of attempts and exponential backoff with seeded
// jitter. Like its sibling faultfs, it is transport-agnostic; its
// Policy drives the VFS retry decorator's re-issued backend calls
// (§5.1's cloud and HTTP backends). The decorator owns the scheduling
// (event-loop timers); this package owns the arithmetic.
package retry

import (
	"math"
	"math/rand"
	"time"
)

// Policy shapes one retry loop. The zero Policy means "no retries":
// callers that want the standard profile start from Defaults().
type Policy struct {
	// MaxAttempts bounds the total tries (first attempt included).
	// Values below 1 behave as 1.
	MaxAttempts int
	// BaseDelay is the wait before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the grown delay. Zero means no cap.
	MaxDelay time.Duration
	// Jitter randomizes each delay by ±Jitter fraction (0..1), which
	// de-synchronizes retry storms.
	Jitter float64
	// Seed fixes the jitter sequence so runs are reproducible. Two
	// retry loops with the same Policy draw identical jitter.
	Seed int64
}

// Defaults is the standard profile: 6 attempts, 1ms→64ms exponential
// backoff with 30% jitter. Tuned so a 25% injected fault rate is
// absorbed with overwhelming probability (0.25^6 ≈ 2e-4 per op) while
// a healthy run pays nothing.
func Defaults() Policy {
	return Policy{
		MaxAttempts: 6,
		BaseDelay:   time.Millisecond,
		MaxDelay:    64 * time.Millisecond,
		Jitter:      0.3,
	}
}

// Attempts returns the effective attempt bound.
func (p Policy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff computes the wait before retry number retry (1-based: the
// wait after the first failed attempt is Backoff(1, ...)). The delay
// doubles per retry from BaseDelay. rnd supplies uniform [0,1) draws
// for jitter; a nil rnd disables jitter.
func (p Policy) Backoff(retry int, rnd func() float64) time.Duration {
	if retry < 1 || p.BaseDelay <= 0 {
		return 0
	}
	d := float64(p.BaseDelay) * math.Pow(2, float64(retry-1))
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && rnd != nil {
		d *= 1 + p.Jitter*(2*rnd()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Rand builds the policy's deterministic jitter source. The returned
// function is not goroutine-safe; guard it with the caller's lock.
func (p Policy) Rand() func() float64 {
	rng := rand.New(rand.NewSource(p.Seed))
	return rng.Float64
}
