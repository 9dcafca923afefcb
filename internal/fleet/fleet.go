// Package fleet is the multi-tenant hosting layer: it runs many
// isolated Doppio tenants — JVM or MiniC VMs, or whole proc pipelines
// — across a pool of shards, one eventloop.Loop per shard pinned to
// its own goroutine.
//
// The paper's runtime is browser-shaped: one event loop, driven
// serially, one VM at a time. Serving many users means carving that
// shape into parallel isolated units (the Servo experience report's
// lesson) without giving up the single-threaded semantics each VM
// depends on. The fleet keeps both properties: within a shard
// everything is still one goroutine of run-to-completion macrotasks,
// so VMs need no locks; across shards the loops run genuinely in
// parallel.
//
// The pieces:
//
//   - Env is the tenant-construction environment: a browser window,
//     buffer factory, telemetry hub, and (under a supervisor) the
//     tenant's label, shard, root backend, and budget. NewEnv is also
//     the shared harness constructor — bench and the cmd binaries
//     build their single windows with it.
//   - Drive is the shared runner: post a workload onto a loop, run the
//     loop to completion, and distinguish "finished", "watchdog
//     killed", and "loop drained before the workload completed".
//   - Tenant + StartFunc describe a workload abstractly; the package
//     never imports a VM, so anything that can run on a loop — a JVM,
//     a MiniC VM, a dsh pipeline — can be a tenant.
//   - Shard hosts tenants on one loop: a repeating monitor tick
//     publishes per-tenant observables (CPU, heap, fds, run-queue
//     depth), enforces CPU budgets, and feeds the placement signal.
//   - Supervisor owns the shards: admission control against fleet
//     capacities, least-loaded placement keyed off run-queue depth,
//     graceful eviction with SIGKILL-style teardown (kill the VM,
//     drop its fds, invalidate its cache pages), and the /debug/fleet
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

// Budget is a tenant's resource allowance. Zero fields are unlimited.
type Budget struct {
	// CPU is the cumulative execution-time allowance; a tenant whose
	// scheduler has consumed more is evicted at the next monitor tick.
	CPU time.Duration
	// HeapBytes sizes the tenant's unmanaged heap; admission counts it
	// against the fleet's HeapCapacity.
	HeapBytes int
	// MaxFDs caps simultaneously open descriptors on the tenant's FS
	// front end (EMFILE past it); admission counts it against
	// FDCapacity.
	MaxFDs int
	// CacheBytes is the byte budget for the tenant's private VFS page
	// cache; zero mounts the root uncached.
	CacheBytes int
}

// Handle is what a started tenant exposes to its shard's monitor:
// the pieces the supervisor observes (budget consumption, run-queue
// depth) and controls (teardown). Any field may be nil — a tenant is
// monitored only as far as it is observable.
type Handle struct {
	// Runtime is the tenant's scheduler (CPU time, run-queue depth).
	// Pipeline tenants with several runtimes report their primary one.
	Runtime *core.Runtime
	// Heap is the tenant's unmanaged heap (budget consumption).
	Heap *umheap.Heap
	// FS is the tenant's file-system front end; eviction reclaims its
	// descriptors with CloseAll.
	FS *vfs.FS
	// Kill force-terminates the tenant — the SIGKILL. After Kill the
	// tenant's done callback may never fire; the supervisor finishes
	// the bookkeeping itself.
	Kill func()
}

// StartFunc launches a tenant's workload on env's event loop. It is
// called on the shard's loop goroutine and must not block: start the
// VM (or pipeline) and return its handle; call done exactly once, on
// the loop, when the workload finishes. The fleet package stays
// VM-agnostic — bench and dsh supply the constructors.
type StartFunc func(env *Env, done func(error)) (*Handle, error)

// Tenant describes one workload to host.
type Tenant struct {
	// Label names the tenant in telemetry, flight events, the
	// eviction log, and /debug/fleet.
	Label  string
	Budget Budget
	Start  StartFunc
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

	// Label, Shard, Root, and Budget are set by the supervisor for
	// tenant starts: the tenant's name, its shard index, its private
	// root backend (already cache-wrapped per Budget.CacheBytes), and
	// its allowance.
	Label  string
	Shard  int
	Root   vfs.Backend
	Budget Budget
}

// DefaultProfile is the profile the fleet (and the shared harness
// environments built on NewEnv) runs under when the caller does not
// pick one: Chrome 28, the paper's primary evaluation target.
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
	var runErr error
	loop.Post(label, func() {
		start(func(err error) {
			if finished {
				return
			}
			finished = true
			runErr = err
		})
	})
	if err := loop.Run(); err != nil {
		return err
	}
	if !finished {
		return fmt.Errorf("fleet: %s: event loop drained before the workload completed", label)
	}
	return runErr
}

// TenantState is a tenant's lifecycle state.
type TenantState string

const (
	// StatePending is admitted but not yet started on its shard.
	StatePending TenantState = "pending"
	// StateRunning is live on a shard.
	StateRunning TenantState = "running"
	// StateDone completed normally (its done callback fired nil).
	StateDone TenantState = "done"
	// StateFailed completed with an error (or failed to start).
	StateFailed TenantState = "failed"
	// StateEvicted was torn down by the supervisor for exceeding its
	// budget or stalling its shard.
	StateEvicted TenantState = "evicted"
)

// AdmissionError reports a Submit the supervisor refused.
type AdmissionError struct {
	Label  string
	Reason string
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("fleet: tenant %q refused admission: %s", e.Label, e.Reason)
}

// EvictionError is the error an evicted tenant's waiters observe.
type EvictionError struct {
	Label  string
	Reason string
}

func (e *EvictionError) Error() string {
	return fmt.Sprintf("fleet: tenant %q evicted: %s", e.Label, e.Reason)
}

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
// error for StateFailed, an *EvictionError for StateEvicted. Valid
// once Done is closed.
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
