package fleet

import (
	"fmt"
	"sync/atomic"
	"time"

	"doppio/internal/eventloop"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

// Shard hosts tenants on one event loop pinned to one goroutine.
// Everything tenant-facing — starts, monitor ticks, budget
// enforcement, eviction — executes as macrotasks on that loop, so a
// shard's tenants share state with the same no-locks guarantee a
// single browser window gives. Only the published observables (load,
// depth, tenant counters) cross goroutines, as atomics.
type Shard struct {
	index int
	sup   *Supervisor
	env   *Env
	loop  *eventloop.Loop

	// The placement signal is live + depth + pending. live and depth
	// are Store-only (the monitor tick recomputes them from shard
	// state), pending is an exact counter: +1 at Submit, -1 when the
	// admit task lands on the loop — so a burst of Submits spreads
	// across shards before the next tick, and no atomic ever mixes
	// Store with Add (that mix let the counters drift negative when
	// ticks interleaved with admits and releases).
	live    atomic.Int64
	depth   atomic.Int64
	pending atomic.Int64

	// Everything below is loop-goroutine state.
	tenants  []*tenant
	timer    eventloop.TimerID
	stopping bool

	runErr atomic.Value // error, set if the loop died
	joined chan struct{}
}

// newShard builds a shard and starts its loop goroutine. The shard's
// window always runs with the watchdog disabled: a hosted tenant must
// never be able to take the whole shard down, and long macrotasks are
// the stall monitor's and CPU budget's business instead.
func newShard(sup *Supervisor, index int) *Shard {
	profile := sup.cfg.Profile
	profile.WatchdogLimit = 0
	env := NewEnv(profile, sup.hub)
	env.Shard = index
	sh := &Shard{
		index:  index,
		sup:    sup,
		env:    env,
		loop:   env.Win.Loop,
		joined: make(chan struct{}),
	}
	if sup.cfg.StallBudget > 0 {
		sh.loop.SetStallMonitor(sup.cfg.StallBudget, sup.cfg.StallCount, sh.onStall)
	}
	// The pending slot keeps Run alive while the fleet is up, even
	// with no tenants; the monitor timer re-arms itself from the loop.
	sh.loop.AddPending()
	sh.loop.Post("fleet-monitor", sh.monitorTick)
	go func() {
		if err := sh.loop.Run(); err != nil {
			sh.runErr.Store(err)
		}
		close(sh.joined)
	}()
	return sh
}

// loadSignal is the placement key pickShardLocked compares: tenants
// the monitor last saw running, their summed run-queue depth, and
// admits still in flight toward this shard.
func (sh *Shard) loadSignal() int64 {
	return sh.live.Load() + sh.depth.Load() + sh.pending.Load()
}

// startTenant launches an admitted tenant. Loop goroutine.
func (sh *Shard) startTenant(t *tenant) {
	// The admit has landed: from here the tenant is either in
	// sh.tenants (counted by the next tick's live) or terminal.
	sh.pending.Add(-1)
	sh.sup.mu.Lock()
	if t.state != StatePending {
		sh.sup.mu.Unlock()
		return
	}
	t.state = StateRunning
	t.startedAt = time.Now()
	sh.sup.mu.Unlock()

	env := &Env{
		Win: sh.env.Win, Bufs: sh.env.Bufs, Hub: sh.env.Hub,
		Label: t.spec.Label, Shard: sh.index, Root: t.root, Budget: t.spec.Budget,
	}
	sh.flight("start", t.spec.Label, int64(sh.index))
	h, err := t.spec.Start(env, func(err error) {
		// Final observable flush before the terminal transition: a
		// tenant that finishes between monitor ticks still reports its
		// consumption (the CI smoke asserts nonzero per-tenant
		// counters).
		sh.publish(t)
		sh.sup.finish(t, err)
	})
	if err != nil {
		sh.sup.finish(t, fmt.Errorf("fleet: start %s: %w", t.spec.Label, err))
		return
	}
	if h == nil {
		h = &Handle{}
	}
	if h.FS != nil && t.spec.Budget.MaxFDs > 0 {
		h.FS.SetMaxFDs(t.spec.Budget.MaxFDs)
	}
	t.handle = h
	if hub := sh.sup.hub; hub != nil {
		t.mCPU = hub.Registry.LabeledGauge("fleet", "tenant_cpu_us", t.spec.Label)
		t.mHeap = hub.Registry.LabeledGauge("fleet", "tenant_heap_bytes", t.spec.Label)
		t.mDepth = hub.Registry.LabeledGauge("fleet", "tenant_runq_depth", t.spec.Label)
		t.mSlices = hub.Registry.LabeledCounter("fleet", "tenant_slices", t.spec.Label)
	}
	sh.tenants = append(sh.tenants, t)
}

// monitorTick is the shard's heartbeat: publish per-tenant
// observables, enforce CPU budgets, refresh the placement load, and
// re-arm. Loop goroutine; the tick interval is the granularity of
// runtime budget enforcement.
func (sh *Shard) monitorTick() {
	if sh.stopping {
		return
	}
	live := sh.tenants[:0]
	depth := 0
	var evictions []*tenant
	for _, t := range sh.tenants {
		if t.terminal() {
			continue
		}
		live = append(live, t)
		cpu, d := sh.publish(t)
		depth += d
		if t.spec.Budget.CPU > 0 && cpu > t.spec.Budget.CPU {
			evictions = append(evictions, t)
		}
	}
	// Clear the tail so dropped tenants are not retained.
	for i := len(live); i < len(sh.tenants); i++ {
		sh.tenants[i] = nil
	}
	sh.tenants = live
	sh.depth.Store(int64(depth))
	sh.live.Store(int64(len(live)))
	for _, t := range evictions {
		sh.evict(t, fmt.Sprintf("cpu budget exceeded: %v > %v",
			time.Duration(t.cpu.Load()).Round(time.Millisecond), t.spec.Budget.CPU))
	}
	sh.timer = sh.loop.SetTimeout(sh.monitorTick, sh.sup.cfg.MonitorInterval)
}

// publish refreshes one tenant's observables — atomics for Snapshot,
// labeled series for /metrics — and returns its cumulative CPU time
// and current run-queue depth. Loop goroutine.
func (sh *Shard) publish(t *tenant) (cpu time.Duration, depth int) {
	h := t.handle
	if h == nil {
		return 0, 0
	}
	if h.Runtime != nil {
		st := h.Runtime.Stats()
		cpu = st.CPUTime
		depth = h.Runtime.QueueDepth()
		t.cpu.Store(int64(cpu))
		if t.mCPU != nil {
			t.mCPU.Set(cpu.Microseconds())
		}
		if delta := int64(st.Slices) - t.lastSlices; delta > 0 {
			if t.mSlices != nil {
				t.mSlices.Add(delta)
			}
			t.lastSlices = int64(st.Slices)
		}
	}
	if h.Heap != nil {
		used := int64(h.Heap.AllocatedBytes())
		t.heapUsed.Store(used)
		if t.mHeap != nil {
			t.mHeap.Set(used)
		}
	}
	if h.FS != nil {
		t.fds.Store(int64(h.FS.OpenFDs()))
	}
	t.depth.Store(int64(depth))
	if t.mDepth != nil {
		t.mDepth.Set(int64(depth))
	}
	return cpu, depth
}

// onStall fires when macrotask latency has exceeded the stall budget
// for N consecutive tasks — some tenant is freezing the shard. The
// monitor's last published CPU readings date from before the stall,
// so the tenant with the largest CPU growth since then is the
// offender; evict it. Loop goroutine.
func (sh *Shard) onStall(ev eventloop.StallEvent) {
	var worst *tenant
	var worstDelta time.Duration
	for _, t := range sh.tenants {
		if t.terminal() || t.handle == nil || t.handle.Runtime == nil {
			continue
		}
		delta := t.handle.Runtime.Stats().CPUTime - time.Duration(t.cpu.Load())
		if worst == nil || delta > worstDelta {
			worst, worstDelta = t, delta
		}
	}
	if worst == nil {
		return
	}
	sh.evict(worst, fmt.Sprintf("stalled shard %d: %d consecutive tasks over %v (last %q ran %v)",
		sh.index, ev.Consecutive, ev.Budget, ev.Label, ev.Elapsed.Round(time.Millisecond)))
}

// evict tears a tenant down SIGKILL-style: mark it terminal (so its
// own done callback becomes a no-op), kill the VM, reclaim its file
// descriptors and cache pages, drop its per-tenant metric series, and
// log the eviction. Loop goroutine.
func (sh *Shard) evict(t *tenant, reason string) {
	evictErr := &EvictionError{Label: t.spec.Label, Reason: reason}
	if !sh.sup.terminate(t, StateEvicted, evictErr) {
		return
	}
	h := t.handle
	if h != nil && h.Kill != nil {
		h.Kill()
	}
	reclaimedFDs := 0
	if h != nil && h.FS != nil {
		reclaimedFDs = h.FS.CloseAll()
	}
	if t.root != nil {
		if cached, ok := vfs.Find[*vfs.Cached](t.root); ok {
			cached.InvalidateAll()
		}
	}
	if hub := sh.sup.hub; hub != nil {
		hub.Registry.Unregister(t.spec.Label)
	}
	sh.flight("evict", t.spec.Label, int64(reclaimedFDs))
	sh.sup.logEviction(Eviction{
		Label: t.spec.Label, Shard: sh.index, Reason: reason,
		CPUMs: time.Duration(t.cpu.Load()).Milliseconds(), At: time.Now(),
	})
	sh.sup.release(t)
}

// shutdown stops the monitor and releases the pending slot; posted by
// Close. Loop goroutine.
func (sh *Shard) shutdown() {
	if sh.stopping {
		return
	}
	sh.stopping = true
	sh.loop.ClearTimeout(sh.timer)
	sh.loop.DonePending()
	sh.loop.Stop()
}

func (sh *Shard) flight(event, label string, arg int64) {
	if hub := sh.sup.hub; hub != nil && hub.Flight != nil {
		hub.Flight.Record("fleet", event, label, arg)
	}
}

// tenant is the supervisor's record of one hosted workload. Lifecycle
// fields (state, err, timestamps) are guarded by the supervisor mutex
// and transition on the owning shard's loop; observables are atomics
// published by the monitor tick so Snapshot never touches a loop.
type tenant struct {
	spec  Tenant
	sup   *Supervisor
	shard *Shard
	root  vfs.Backend

	state       TenantState
	err         error
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time

	handle *Handle // loop-goroutine only

	cpu      atomic.Int64 // nanoseconds of scheduler CPU time
	heapUsed atomic.Int64
	fds      atomic.Int64
	depth    atomic.Int64

	lastSlices int64 // loop-goroutine only; feeds the slices counter

	mCPU    *telemetry.Gauge
	mHeap   *telemetry.Gauge
	mDepth  *telemetry.Gauge
	mSlices *telemetry.Counter

	doneCh chan struct{}
}

// terminal reports whether the tenant has reached a terminal state.
func (t *tenant) terminal() bool {
	t.sup.mu.Lock()
	defer t.sup.mu.Unlock()
	return t.state == StateDone || t.state == StateFailed || t.state == StateEvicted
}
