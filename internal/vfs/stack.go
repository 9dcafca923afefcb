package vfs

import (
	"doppio/internal/telemetry"
	"doppio/internal/vfs/faultfs"
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

// StackOption selects and configures one layer of a backend stack.
type StackOption func(*stackConfig)

type stackConfig struct {
	cache *CacheOptions
	retry *RetryOptions
	plan  *faultfs.Plan
	hub   *telemetry.Hub
}

// WithCache adds the caching layer (NewCached) to the stack.
func WithCache(opts CacheOptions) StackOption {
	return func(c *stackConfig) { c.cache = &opts }
}

// WithRetry adds the retry layer (NewRetry) to the stack.
func WithRetry(opts RetryOptions) StackOption {
	return func(c *stackConfig) { c.retry = &opts }
}

// WithFaults adds the fault-injection layer (NewFaulty) to the stack.
// A plan that cannot inject (Plan.Enabled() == false) adds nothing.
func WithFaults(plan faultfs.Plan) StackOption {
	return func(c *stackConfig) { c.plan = &plan }
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
//     transport is flaky: a warm read never reaches the store, so it
//     neither waits out a backoff nor fails when the store does.
//   - Instrument sits outermost so its latency histograms measure what
//     the kernel experiences — including backoff waits and cache hits.
//
// Layers are optional; Stack(b) returns b unchanged. Use Find to
// recover a layer's stats from the returned backend.
func Stack(backend Backend, opts ...StackOption) Backend {
	var cfg stackConfig
	for _, o := range opts {
		o(&cfg)
	}
	b := backend
	if cfg.plan != nil && cfg.plan.Enabled() {
		inj := faultfs.New(*cfg.plan)
		if cfg.hub != nil && cfg.hub.Flight != nil {
			// The observer sits outside the injector's PRNG draw
			// schedule, so recording faults cannot shift the sequence.
			flight := cfg.hub.Flight
			inj.Observe(func(op string, f faultfs.Fault) {
				flight.RecordNote("fault", "inject", op, f.Kind.String(), 0)
			})
		}
		b = NewFaulty(b, inj)
	}
	if cfg.retry != nil {
		ro := *cfg.retry
		if ro.Hub == nil {
			ro.Hub = cfg.hub
		}
		b = NewRetry(b, ro)
	}
	if cfg.cache != nil {
		co := *cfg.cache
		if co.Hub == nil {
			co.Hub = cfg.hub
		}
		b = NewCached(b, co)
	}
	if cfg.hub != nil {
		b = Instrument(b, cfg.hub)
	}
	return b
}
