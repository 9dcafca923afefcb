// Package fleet is the multi-tenant hosting layer: it runs many
// Doppio tenants — JVM or MiniC VMs, or whole proc pipelines — across
// a pool of shards, one eventloop.Loop per shard pinned to its own
// goroutine.
//
// The paper's runtime is browser-shaped: one event loop, driven
// serially, one VM at a time. Serving many users means carving that
// shape into parallel units (the Servo experience report's lesson)
// without giving up the single-threaded semantics each VM depends on.
// The fleet keeps both properties: within a shard everything is still
// one goroutine of run-to-completion macrotasks, so VMs need no locks;
// across shards the loops run genuinely in parallel.
//
// Isolation between the tenants of one shard is the paper's own
// mechanism: each runtime runs one timeslice per macrotask (§4.1) and
// the loop runs macrotasks in FIFO order (§4.4), so every runnable
// tenant gets one slice per round. Nothing in the fleet can preempt a
// tenant that never reaches a suspend check: such a macrotask holds
// its shard until it returns.
//
// The pieces:
//
//   - Env is the tenant-construction environment: a browser window,
//     buffer factory, telemetry hub, and (under a supervisor) the
//     tenant's root backend. NewEnv is also the shared harness
//     constructor — bench and the cmd binaries build their single
//     windows with it.
//   - Drive is the shared runner: post a workload onto a loop, run the
//     loop to completion, and distinguish "finished", "watchdog
//     killed", and "loop drained before the workload completed".
//   - Tenant + StartFunc describe a workload abstractly; the package
//     never imports a VM, so anything that can run on a loop — a JVM,
//     a MiniC VM, a dsh pipeline — can be a tenant.
//   - Shard hosts tenants on one loop: a repeating monitor tick
//     publishes per-tenant observables (CPU, heap, run-queue depth)
//     and feeds the placement signal.
//   - Supervisor owns the shards: least-loaded placement keyed off
//     run-queue depth, Submit/Wait/Close, and the /debug/fleet
//     snapshot.
package fleet

import (
	"fmt"
	"time"

	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/core"
	"doppio/internal/eventloop"
	"doppio/internal/telemetry"
	"doppio/internal/umheap"
	"doppio/internal/vfs"
)

// Handle is what a started tenant exposes to its shard's monitor:
// the observables /debug/fleet and the metrics publish. Any field may
// be nil — a tenant is monitored only as far as it is observable.
type Handle struct {
	// Runtime is the tenant's scheduler (CPU time, slices, run-queue
	// depth). Pipeline tenants with several runtimes report their
	// primary one.
	Runtime *core.Runtime
	// Heap is the tenant's unmanaged heap (bytes in use).
	Heap *umheap.Heap
}

// StartFunc launches a tenant's workload on env's event loop. It is
// called on the shard's loop goroutine and must not block: start the
// VM (or pipeline) and return its handle; call done exactly once, on
// the loop, when the workload finishes. The fleet package stays
// VM-agnostic — bench and dsh supply the constructors.
type StartFunc func(env *Env, done func(error)) (*Handle, error)

// Tenant describes one workload to host.
type Tenant struct {
	// Label names the tenant in telemetry, flight events, and
	// /debug/fleet.
	Label string
	Start StartFunc
}

// Env is the tenant-construction environment: everything a StartFunc
// needs to build a VM. Outside a supervisor it doubles as the shared
// harness environment — NewEnv replaces the hand-rolled
// window+buffer-factory blocks bench and the cmd binaries used to
// carry.
type Env struct {
	Win  *browser.Window
	Bufs *buffer.Factory
	Hub  *telemetry.Hub

	// Root is set by the supervisor for tenant starts: the tenant's
	// private in-memory root backend.
	Root vfs.Backend
}

// DefaultProfile is the profile every fleet shard runs under (with
// its watchdog off), and the one the shared harness environments
// built on NewEnv take when the caller does not pick one: Chrome 28,
// the paper's primary evaluation target.
func DefaultProfile() browser.Profile {
	p, _ := browser.ByName("Chrome 28")
	return p
}

// NewEnv builds a browser window for the profile with the standard
// buffer factory, attached to hub when non-nil.
func NewEnv(profile browser.Profile, hub *telemetry.Hub) *Env {
	win := browser.NewWindow(profile)
	if hub != nil {
		win.EnableTelemetry(hub)
	}
	return &Env{
		Win: win,
		Bufs: &buffer.Factory{
			Typed:            win.Profile.HasTypedArrays,
			ValidatesStrings: win.Profile.ValidatesStrings,
			OnTypedAlloc:     win.NoteTypedArrayAlloc,
		},
		Hub: hub,
	}
}

// NewFS builds a file-system front end over root, on this
// environment's loop and buffer factory.
func (e *Env) NewFS(root vfs.Backend) *vfs.FS {
	return vfs.New(e.Win.Loop, e.Bufs, root)
}

// Drive is the shared single-loop runner: it posts start onto the
// loop, runs the loop until it drains (or the watchdog kills it), and
// reports the workload's outcome. start receives a done callback to
// invoke (once, on the loop) when the workload completes; a loop that
// drains without done having fired is an error — the workload wedged.
// This is the driver block bench, doppio-bench, and dsh used to
// hand-roll around every win.Loop.Run() call.
func Drive(loop *eventloop.Loop, label string, start func(done func(error))) error {
	finished := false
	var outcome error
	loop.Post(label, func() {
		start(func(err error) {
			if finished {
				return
			}
			finished = true
			outcome = err
		})
	})
	if err := loop.Run(); err != nil {
		return err
	}
	if !finished {
		return fmt.Errorf("fleet: %s: event loop drained before the workload completed", label)
	}
	return outcome
}

// TenantState is a tenant's lifecycle state.
type TenantState string

const (
	// StatePending is submitted but not yet started on its shard.
	StatePending TenantState = "pending"
	// StateRunning is live on a shard.
	StateRunning TenantState = "running"
	// StateDone completed normally (its done callback fired nil).
	StateDone TenantState = "done"
	// StateFailed completed with an error (or failed to start).
	StateFailed TenantState = "failed"
)

// TenantRef is the caller's view of a submitted tenant.
type TenantRef struct {
	t *tenant
}

// Label returns the tenant's label.
func (r *TenantRef) Label() string { return r.t.spec.Label }

// Shard returns the index of the shard the tenant was placed on.
func (r *TenantRef) Shard() int { return r.t.shard.index }

// Done is closed when the tenant reaches a terminal state.
func (r *TenantRef) Done() <-chan struct{} { return r.t.doneCh }

// Err returns the tenant's outcome: nil for StateDone, the workload
// error for StateFailed. Valid once Done is closed.
func (r *TenantRef) Err() error { return r.t.err }

// State returns the tenant's current lifecycle state.
func (r *TenantRef) State() TenantState {
	r.t.sup.mu.Lock()
	defer r.t.sup.mu.Unlock()
	return r.t.state
}

// Latency is submit-to-finish wall clock; valid once Done is closed.
func (r *TenantRef) Latency() time.Duration {
	return r.t.finishedAt.Sub(r.t.submittedAt)
}
