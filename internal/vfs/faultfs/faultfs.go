// Package faultfs is the deterministic fault-injection engine behind
// the runtime's network fault model. Browsix-style browser "system
// services" must survive flaky async transports; this package supplies
// the flakiness on demand, reproducibly. Under the remote VFS backends
// (§5.1) the retry layer above it can be *proved* to absorb it; in the
// WebSocket gateway (§5.3) a fault ends the mux session, whose streams
// then fail with ECONNRESET.
//
// The engine is transport-agnostic: it knows nothing about the vfs
// Backend API or the socket frame format. A decorator (vfs.NewFaulty,
// the Websockify fault hook) asks the Injector for a decision per
// operation and applies it to its own transport — returning EIO,
// truncating a read, dropping a frame, or resetting a connection.
//
// Determinism is the load-bearing property: an Injector seeded with
// the same Plan issues the identical decision sequence on every run,
// because each Next call consumes a fixed number of PRNG draws
// regardless of which rates are enabled. Replaying a single-threaded
// workload therefore injects the same faults at the same operations,
// which is what makes the A/B harness ("bit-identical op log with
// retry absorbing 10% faults") a meaningful check rather than a coin
// flip.
package faultfs

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// Kind classifies one injected fault.
type Kind int

const (
	// None injects nothing.
	None Kind = iota
	// ErrPre fails the operation before it reaches the transport: the
	// request is lost on the way out.
	ErrPre
	// ErrPost lets the operation commit on the transport and then
	// fails the *reply*: the classic lost-acknowledgement fault that
	// makes blind retries of non-idempotent operations dangerous.
	ErrPost
	// Short truncates a data transfer (short read / short write /
	// truncated frame) and reports a transient error alongside the
	// partial data, so the caller can detect and retry it.
	Short
)

// String names the kind for telemetry and test output.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case ErrPre:
		return "err-pre"
	case ErrPost:
		return "err-post"
	case Short:
		return "short"
	}
	return "unknown"
}

// Fault is one decision: what to do to the current operation. The
// consumer decides what an errno fault (ErrPre, ErrPost) means on its
// transport: EIO in the VFS, a dropped frame or a reset in the gateway.
type Fault struct {
	Kind Kind
	// Keep is the fraction of the transfer to deliver for Short,
	// in (0, 1).
	Keep float64
}

// Faulty reports whether the fault alters the operation's outcome.
func (f Fault) Faulty() bool { return f.Kind != None }

// Plan configures an Injector. The zero Plan injects nothing.
type Plan struct {
	// Seed fixes the decision sequence. Two injectors with the same
	// Plan make identical decisions.
	Seed int64
	// ErrRate is the per-operation probability of an injected errno
	// fault (ErrPre or ErrPost).
	ErrRate float64
	// PostFrac is the fraction of errno faults delivered post-commit
	// (ErrPost). Zero means every errno fault is ErrPre.
	PostFrac float64
	// ShortRate is the per-operation probability of a truncated
	// transfer (applied by consumers only to data-carrying ops).
	ShortRate float64
}

// Enabled reports whether the plan can inject anything at all.
func (p Plan) Enabled() bool { return p.ErrRate > 0 || p.ShortRate > 0 }

// Stats counts the injector's decisions so far. Counters are atomic;
// read them from any goroutine.
type Stats struct {
	Ops      int64 // Next calls
	ErrsPre  int64
	ErrsPost int64
	Shorts   int64
}

// Injector produces the deterministic fault sequence for one Plan.
// It is safe for concurrent use; under concurrency the sequence is
// still fixed but its assignment to operations follows arrival order.
type Injector struct {
	mu   sync.Mutex
	rng  *rand.Rand
	plan Plan

	// observe, when set, is called with every injected (non-None)
	// decision after it is made. It sits outside the PRNG draw schedule,
	// so attaching an observer cannot shift the fault sequence.
	observe func(op string, f Fault)

	ops, errsPre, errsPost, shorts atomic.Int64
}

// Observe registers fn to be called for every faulty decision (None
// decisions are not reported). The hook runs outside the injector's
// PRNG critical section and consumes no draws, preserving
// decision-sequence determinism. The flight recorder attaches here via
// vfs.Stack.
func (in *Injector) Observe(fn func(op string, f Fault)) {
	in.mu.Lock()
	in.observe = fn
	in.mu.Unlock()
}

// New builds an injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(plan.Seed)), plan: plan}
}

// Plan returns the injector's configuration.
func (in *Injector) Plan() Plan { return in.plan }

// Next decides the fate of the next operation. op is advisory (it
// appears nowhere in the decision, keeping sequences alignable across
// consumers); every call consumes the same number of PRNG draws so
// that enabling one fault class does not shift the others' sequence.
func (in *Injector) Next(op string) Fault {
	_ = op
	in.mu.Lock()
	// Fixed draw schedule, seven draws per call, always: err?, post?,
	// a retired errno pick, short?, keep, and two retired latency
	// draws. The retired draws decide nothing; consuming them keeps
	// every recorded seed's decision sequence.
	dErr := in.rng.Float64()
	dPost := in.rng.Float64()
	in.rng.Int63() // retired: errno pick
	dShort := in.rng.Float64()
	dKeep := in.rng.Float64()
	in.rng.Float64() // retired: latency spike?
	in.rng.Float64() // retired: spike length
	observe := in.observe
	in.mu.Unlock()

	in.ops.Add(1)
	var f Fault
	switch {
	case in.plan.ErrRate > 0 && dErr < in.plan.ErrRate:
		if dPost < in.plan.PostFrac {
			f.Kind = ErrPost
			in.errsPost.Add(1)
		} else {
			f.Kind = ErrPre
			in.errsPre.Add(1)
		}
	case in.plan.ShortRate > 0 && dShort < in.plan.ShortRate:
		f.Kind = Short
		// Keep a non-degenerate prefix: between 10% and 90%.
		f.Keep = 0.1 + 0.8*dKeep
		in.shorts.Add(1)
	}
	if observe != nil && f.Faulty() {
		observe(op, f)
	}
	return f
}

// Stats snapshots the decision counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Ops:      in.ops.Load(),
		ErrsPre:  in.errsPre.Load(),
		ErrsPost: in.errsPost.Load(),
		Shorts:   in.shorts.Load(),
	}
}
