package vfs

import (
	"doppio/internal/telemetry"
	"doppio/internal/vfs/faultfs"
	"doppio/internal/vfs/retry"
)

// Unwrapper is implemented by every decorator in this package; it
// exposes the wrapped backend so callers can walk a decorator chain.
type Unwrapper interface {
	Unwrap() Backend
}

// FaultStatser is implemented by fault-injecting backends (NewFaulty).
type FaultStatser interface {
	FaultStats() faultfs.Stats
}

// Find walks a decorator chain outermost-in (via Unwrap) and returns
// the first layer satisfying T — a concrete type like *MountFS or a
// capability interface like CacheStatser, RetryStatser, FaultStatser.
func Find[T any](b Backend) (T, bool) {
	for b != nil {
		if t, ok := any(b).(T); ok {
			return t, true
		}
		u, ok := b.(Unwrapper)
		if !ok {
			break
		}
		b = u.Unwrap()
	}
	var zero T
	return zero, false
}

// breakerBackend is the slice of the retry decorator the Stack hands
// the cache for its degraded-serve count.
type breakerBackend interface {
	BreakerState() retry.State
	noteDegradedServe()
}

// StackOption selects and configures one layer of a backend stack.
type StackOption func(*stackConfig)

type stackConfig struct {
	cache *CacheOptions
	retry *RetryOptions
	plan  *faultfs.Plan
	inj   *faultfs.Injector
	hub   *telemetry.Hub
}

// WithCache adds the caching layer (NewCached) to the stack.
func WithCache(opts CacheOptions) StackOption {
	return func(c *stackConfig) { c.cache = &opts }
}

// WithRetry adds the retry/breaker layer (NewRetry) to the stack.
func WithRetry(opts RetryOptions) StackOption {
	return func(c *stackConfig) { c.retry = &opts }
}

// WithFaults adds the fault-injection layer (NewFaulty) to the stack.
// A plan that cannot inject (Plan.Enabled() == false) adds nothing.
func WithFaults(plan faultfs.Plan) StackOption {
	return func(c *stackConfig) { c.plan = &plan }
}

// WithInjector is WithFaults with a caller-owned injector, for tests
// and harnesses that want to share one decision sequence (or read its
// Stats) across stacks.
func WithInjector(inj *faultfs.Injector) StackOption {
	return func(c *stackConfig) { c.inj = inj }
}

// WithTelemetry instruments the stack: the outermost layer gets
// Instrument(·, hub), and any cache/retry layer that did not set its
// own Hub inherits this one for its vfscache.*/vfsretry.* counters.
func WithTelemetry(hub *telemetry.Hub) StackOption {
	return func(c *stackConfig) { c.hub = hub }
}

// Stack assembles a backend decorator stack in the one order that is
// correct, regardless of the order the options are given in:
//
//	backend → faults → retry → cache → instrument (outermost)
//
// The ordering is load-bearing, not stylistic:
//
//   - Faults sit innermost because they stand in for the network under
//     a remote backend; every layer above must see (and absorb) them.
//   - Retry sits directly above faults so transient failures are
//     retried against the backend itself — retrying above the cache
//     would re-serve cached state instead of re-contacting the store.
//   - Cache sits above retry so that hits cost nothing even while the
//     transport is flaky, and so the stack degrades gracefully: when
//     retry's circuit breaker is open, reads still served from clean
//     cached state are counted as degraded serves.
//   - Instrument sits outermost so its latency histograms measure what
//     the kernel experiences — including backoff waits and cache hits.
//
// Layers are optional; Stack(b) returns b unchanged. When both retry
// and cache layers are present, Stack hands the cache the retry
// layer's breaker, so hits served while it is open count as degraded
// serves. Use Find to recover a layer's stats from the returned
// backend.
func Stack(backend Backend, opts ...StackOption) Backend {
	var cfg stackConfig
	for _, o := range opts {
		o(&cfg)
	}
	b := backend
	if cfg.inj == nil && cfg.plan != nil && cfg.plan.Enabled() {
		cfg.inj = faultfs.New(*cfg.plan)
	}
	if cfg.inj != nil {
		if cfg.hub != nil && cfg.hub.Flight != nil {
			// The observer sits outside the injector's PRNG draw
			// schedule, so recording faults cannot shift the sequence.
			flight := cfg.hub.Flight
			cfg.inj.Observe(func(op string, f faultfs.Fault) {
				flight.RecordNote("fault", "inject", op, f.Kind.String(), f.Delay.Microseconds())
			})
		}
		b = NewFaulty(b, cfg.inj)
	}
	var brb breakerBackend
	if cfg.retry != nil {
		ro := *cfg.retry
		if ro.Hub == nil {
			ro.Hub = cfg.hub
		}
		b = NewRetry(b, ro)
		brb, _ = b.(breakerBackend)
	}
	if cfg.cache != nil {
		co := *cfg.cache
		if co.Hub == nil {
			co.Hub = cfg.hub
		}
		b = newCached(b, co, brb)
	}
	if cfg.hub != nil {
		b = Instrument(b, cfg.hub)
	}
	return b
}
