// Package retry holds the policy side of the runtime's fault model:
// exponential backoff with jitter, per-operation deadlines, and a
// circuit breaker. Like its sibling faultfs, it is transport-agnostic;
// its Policy drives the VFS RetryBackend's re-issued backend calls
// (§5.1's cloud and HTTP backends). Decorators own the scheduling (event-loop timers, goroutine timers); this package
// owns the arithmetic and the breaker state machine.
package retry

import (
	"math"
	"math/rand"
	"sync"
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
	// Multiplier grows the delay per retry; values below 1 behave
	// as 2 (pure exponential doubling).
	Multiplier float64
	// Jitter randomizes each delay by ±Jitter fraction (0..1), which
	// de-synchronizes retry storms.
	Jitter float64
	// Deadline bounds the whole operation, attempts and backoff waits
	// included. Zero means no deadline.
	Deadline time.Duration
	// Seed fixes the jitter sequence so runs are reproducible. Two
	// retry loops with the same Policy draw identical jitter.
	Seed int64
}

// Defaults is the standard profile: 6 attempts, 1ms→64ms exponential
// backoff with 30% jitter, no deadline. Tuned so a 25% injected fault
// rate is absorbed with overwhelming probability (0.25^6 ≈ 2e-4 per
// op) while a healthy run pays nothing.
func Defaults() Policy {
	return Policy{
		MaxAttempts: 6,
		BaseDelay:   time.Millisecond,
		MaxDelay:    64 * time.Millisecond,
		Multiplier:  2,
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
// wait after the first failed attempt is Backoff(1, ...)). rnd supplies
// uniform [0,1) draws for jitter; a nil rnd disables jitter.
func (p Policy) Backoff(retry int, rnd func() float64) time.Duration {
	if retry < 1 || p.BaseDelay <= 0 {
		return 0
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(p.BaseDelay) * math.Pow(mult, float64(retry-1))
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

// State is a circuit breaker state.
type State int

const (
	// Closed passes traffic; failures are counted.
	Closed State = iota
	// Open fails fast; no traffic passes until the cooldown elapses.
	Open
	// HalfOpen admits a limited number of probe operations; their
	// outcome closes or re-opens the breaker.
	HalfOpen
)

// String names the state for telemetry and logs.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a Breaker. The zero value gets the defaults
// noted on each field.
type BreakerConfig struct {
	// Threshold is the count of consecutive operation failures that
	// opens the breaker (default 5).
	Threshold int
	// Cooldown is how long the breaker stays open before admitting
	// probes (default 1s).
	Cooldown time.Duration
	// HalfOpenProbes is how many concurrent probes half-open admits
	// (default 1).
	HalfOpenProbes int
	// Now overrides the clock, for tests (default time.Now).
	Now func() time.Time
}

// Breaker is the circuit breaker: closed → (Threshold consecutive
// failures) → open → (Cooldown) → half-open → probe success closes /
// probe failure re-opens. "Failure" means a transient, exhausted
// operation — the decorators do not Record responses like ENOENT that
// prove the service is alive.
type Breaker struct {
	cfg BreakerConfig

	// OnTransition, when non-nil, observes every state change. It is
	// called with the breaker's lock released, from whichever
	// goroutine drove the transition. Set it before use.
	OnTransition func(from, to State)

	mu       sync.Mutex
	state    State
	failures int
	openedAt time.Time
	probes   int // in-flight half-open probes
}

// NewBreaker builds a breaker with the config's defaults applied.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = time.Second
	}
	if cfg.HalfOpenProbes <= 0 {
		cfg.HalfOpenProbes = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg}
}

// State reports the breaker's current state, promoting Open to
// HalfOpen if the cooldown has elapsed.
func (b *Breaker) State() State {
	b.mu.Lock()
	s, fire := b.refreshLocked()
	b.mu.Unlock()
	b.fire(fire)
	return s
}

// Allow reports whether an operation may proceed. In half-open it
// consumes a probe slot; the caller must Record the outcome (which
// releases the slot) or Cancel it.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	s, fire := b.refreshLocked()
	allowed := true
	switch s {
	case Open:
		allowed = false
	case HalfOpen:
		if b.probes >= b.cfg.HalfOpenProbes {
			allowed = false
		} else {
			b.probes++
		}
	}
	b.mu.Unlock()
	b.fire(fire)
	return allowed
}

// Record reports an operation outcome. ok=false is a transient,
// retries-exhausted failure; ok=true is anything that proves the
// service responded.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	_, fire := b.refreshLocked()
	if b.state == HalfOpen && b.probes > 0 {
		b.probes--
	}
	if ok {
		b.failures = 0
		if b.state != Closed {
			fire = append(fire, transition{b.state, Closed})
			b.state = Closed
			b.probes = 0
		}
	} else {
		b.failures++
		trip := b.state == HalfOpen || (b.state == Closed && b.failures >= b.cfg.Threshold)
		if trip && b.state != Open {
			fire = append(fire, transition{b.state, Open})
			b.state = Open
			b.openedAt = b.cfg.Now()
			b.probes = 0
		}
	}
	b.mu.Unlock()
	b.fire(fire)
}

// Cancel releases a half-open probe slot without recording an outcome
// (e.g. the operation was abandoned before reaching the transport).
func (b *Breaker) Cancel() {
	b.mu.Lock()
	if b.state == HalfOpen && b.probes > 0 {
		b.probes--
	}
	b.mu.Unlock()
}

type transition struct{ from, to State }

// refreshLocked promotes Open to HalfOpen after the cooldown and
// returns the current state plus any transition to fire (after the
// lock is released).
func (b *Breaker) refreshLocked() (State, []transition) {
	var fire []transition
	if b.state == Open && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		fire = append(fire, transition{Open, HalfOpen})
		b.state = HalfOpen
		b.probes = 0
	}
	return b.state, fire
}

func (b *Breaker) fire(ts []transition) {
	if b.OnTransition == nil {
		return
	}
	for _, t := range ts {
		b.OnTransition(t.from, t.to)
	}
}
