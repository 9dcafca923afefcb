package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"doppio/internal/browser"
	"doppio/internal/profile"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

// Config sizes a Supervisor. Zero values take the documented defaults;
// zero capacities are unlimited.
type Config struct {
	// Shards is the number of event loops (and goroutines) to host
	// tenants on. Default: runtime.NumCPU().
	Shards int
	// Profile is the browser profile every shard window runs under.
	// Its watchdog limit is forced to 0 — a hosted tenant must not be
	// able to kill a whole shard. Default: Chrome 28.
	Profile browser.Profile
	// Hub receives fleet metrics, per-tenant labeled series, and
	// flight events. Optional.
	Hub *telemetry.Hub

	// MaxTenants caps live tenants fleet-wide; MaxTenantsPerShard caps
	// them per shard. HeapCapacity, FDCapacity, and CacheCapacity cap
	// the sum of admitted budgets (Budget.HeapBytes / MaxFDs /
	// CacheBytes). Submits past a cap are refused with AdmissionError.
	MaxTenants         int
	MaxTenantsPerShard int
	HeapCapacity       int
	FDCapacity         int
	CacheCapacity      int

	// MonitorInterval is the shard heartbeat — the granularity of
	// budget enforcement and placement-signal refresh. Default: 2ms
	// (clamped up by the profile's minimum timeout delay).
	MonitorInterval time.Duration
	// StallBudget/StallCount arm each shard's stall monitor: after
	// StallCount consecutive macrotasks over StallBudget, the tenant
	// with the largest CPU growth since the last heartbeat is evicted.
	// StallBudget 0 disarms. Note that the shard's own (fast) monitor
	// heartbeat runs between tenant macrotasks and resets the loop's
	// over-budget streak, so counts above 1 effectively require a
	// single macrotask to blow the budget StallCount times in a row
	// without the heartbeat timer coming due — in practice, arm with
	// StallCount 1 and size StallBudget well above the timeslice.
	StallBudget time.Duration
	StallCount  int

	// NewRoot builds a tenant's private root backend; called off-loop
	// by Submit before admission (a refused tenant's root is dropped),
	// wrapped in a page cache when the tenant's budget asks for one.
	// Default: vfs.NewInMemory.
	NewRoot func() vfs.Backend

	// Profiling gives every tenant its own continuous guest profiler
	// (internal/profile), handed to the StartFunc via Env.Prof; the
	// per-tenant top hot methods surface in /debug/fleet. The sampling
	// interval is ProfileInterval (default 10ms — a continuous low
	// rate, an order of magnitude coarser than the on-demand
	// /debug/profile default).
	Profiling       bool
	ProfileInterval time.Duration
}

// Supervisor owns a pool of shards and the tenants placed on them.
type Supervisor struct {
	cfg    Config
	hub    *telemetry.Hub
	shards []*Shard

	mu        sync.Mutex
	tenants   []*tenant
	evictions []Eviction
	admitted  int
	rejected  int
	completed int
	evicted   int
	failed    int
	live      int
	heapUsed  int // sum of admitted Budget.HeapBytes
	fdsUsed   int // sum of admitted Budget.MaxFDs
	cacheUsed int // sum of admitted Budget.CacheBytes
	closed    bool

	wg sync.WaitGroup

	mAdmitted  *telemetry.Counter
	mRejected  *telemetry.Counter
	mCompleted *telemetry.Counter
	mEvictions *telemetry.Counter
	mLive      *telemetry.Gauge
	mLatency   *telemetry.Histogram
}

// NewSupervisor builds the shard pool and starts its loop goroutines.
// Callers must Close the supervisor to join them.
func NewSupervisor(cfg Config) *Supervisor {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.NumCPU()
	}
	if cfg.Profile.Name == "" {
		if p, ok := browser.ByName("Chrome 28"); ok {
			cfg.Profile = p
		}
	}
	if cfg.MonitorInterval <= 0 {
		cfg.MonitorInterval = 2 * time.Millisecond
	}
	if cfg.NewRoot == nil {
		cfg.NewRoot = func() vfs.Backend { return vfs.NewInMemory() }
	}
	sup := &Supervisor{cfg: cfg, hub: cfg.Hub}
	if hub := sup.hub; hub != nil {
		sup.mAdmitted = hub.Registry.Counter("fleet", "admitted")
		sup.mRejected = hub.Registry.Counter("fleet", "rejected")
		sup.mCompleted = hub.Registry.Counter("fleet", "completed")
		sup.mEvictions = hub.Registry.Counter("fleet", "evictions")
		sup.mLive = hub.Registry.Gauge("fleet", "live")
		sup.mLatency = hub.Registry.Histogram("fleet", "latency")
	}
	sup.shards = make([]*Shard, cfg.Shards)
	for i := range sup.shards {
		sup.shards[i] = newShard(sup, i)
	}
	return sup
}

// Shards returns the pool size.
func (s *Supervisor) Shards() int { return len(s.shards) }

// Submit admits and places a tenant. Admission control runs first:
// the fleet-wide live cap and the heap/fd/cache capacity sums, each
// refused with an *AdmissionError. An admitted tenant is placed on
// the least-loaded shard (run-queue depth + live tenants, as last
// published by the shard monitors) and started from that shard's own
// loop. Safe from any goroutine.
func (s *Supervisor) Submit(spec Tenant) (*TenantRef, error) {
	if spec.Start == nil {
		return nil, fmt.Errorf("fleet: tenant %q has no Start", spec.Label)
	}
	// The tenant is fully built before s.tenants can reach it: Snapshot
	// reads it under s.mu from other goroutines. The root backend is
	// built off-loop (in-memory backends are safe to construct
	// anywhere) and outside s.mu, so Submit serializes on neither.
	t := &tenant{
		spec:        spec,
		sup:         s,
		state:       StatePending,
		submittedAt: time.Now(),
		doneCh:      make(chan struct{}),
		root:        s.cfg.NewRoot(),
	}
	if spec.Budget.CacheBytes > 0 {
		t.root = vfs.Stack(t.root, vfs.WithCache(vfs.CacheOptions{ByteBudget: spec.Budget.CacheBytes}))
	}
	if s.cfg.Profiling {
		// Immutable on the tenant thereafter, so Snapshot can rank hot
		// methods without touching the shard.
		interval := s.cfg.ProfileInterval
		if interval <= 0 {
			interval = 10 * time.Millisecond
		}
		t.prof = profile.New(profile.Options{CPUInterval: interval})
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("fleet: supervisor closed")
	}
	if reason := s.admitLocked(spec); reason != "" {
		s.rejected++
		s.mu.Unlock()
		if s.mRejected != nil {
			s.mRejected.Inc()
		}
		return nil, &AdmissionError{Label: spec.Label, Reason: reason}
	}
	sh := s.pickShardLocked()
	if sh == nil {
		s.rejected++
		s.mu.Unlock()
		if s.mRejected != nil {
			s.mRejected.Inc()
		}
		return nil, &AdmissionError{Label: spec.Label, Reason: "every shard is at its per-shard tenant cap"}
	}
	t.shard = sh
	s.admitted++
	s.live++
	s.heapUsed += spec.Budget.HeapBytes
	s.fdsUsed += spec.Budget.MaxFDs
	s.cacheUsed += spec.Budget.CacheBytes
	s.tenants = append(s.tenants, t)
	s.wg.Add(1)
	// Count the in-flight admit immediately so a burst of Submits
	// spreads across shards before the next monitor tick republishes.
	sh.pending.Add(1)
	s.mu.Unlock()

	if s.mAdmitted != nil {
		s.mAdmitted.Inc()
	}
	if s.mLive != nil {
		s.mLive.Add(1)
	}

	sh.loop.InvokeExternal("fleet-admit:"+spec.Label, func() { sh.startTenant(t) })
	return &TenantRef{t: t}, nil
}

// admitLocked returns a refusal reason, or "" to admit.
func (s *Supervisor) admitLocked(spec Tenant) string {
	b := spec.Budget
	if s.cfg.MaxTenants > 0 && s.live >= s.cfg.MaxTenants {
		return fmt.Sprintf("fleet full: %d live tenants (cap %d)", s.live, s.cfg.MaxTenants)
	}
	if s.cfg.HeapCapacity > 0 && s.heapUsed+b.HeapBytes > s.cfg.HeapCapacity {
		return fmt.Sprintf("heap capacity: %d + %d requested > %d", s.heapUsed, b.HeapBytes, s.cfg.HeapCapacity)
	}
	if s.cfg.FDCapacity > 0 && s.fdsUsed+b.MaxFDs > s.cfg.FDCapacity {
		return fmt.Sprintf("fd capacity: %d + %d requested > %d", s.fdsUsed, b.MaxFDs, s.cfg.FDCapacity)
	}
	if s.cfg.CacheCapacity > 0 && s.cacheUsed+b.CacheBytes > s.cfg.CacheCapacity {
		return fmt.Sprintf("cache capacity: %d + %d requested > %d", s.cacheUsed, b.CacheBytes, s.cfg.CacheCapacity)
	}
	return ""
}

// pickShardLocked is work-stealing placement inverted: rather than
// idle shards pulling work, Submit pushes each tenant to the shard
// whose published load (live tenants + run-queue depth) is lowest.
func (s *Supervisor) pickShardLocked() *Shard {
	var best *Shard
	var bestLoad int64
	for _, sh := range s.shards {
		if s.cfg.MaxTenantsPerShard > 0 && sh.live.Load()+sh.pending.Load() >= int64(s.cfg.MaxTenantsPerShard) {
			continue
		}
		load := sh.loadSignal()
		if best == nil || load < bestLoad {
			best, bestLoad = sh, load
		}
	}
	return best
}

// finish records a tenant's own completion (done callback or start
// error). Reached from the shard loop.
func (s *Supervisor) finish(t *tenant, err error) {
	state := StateDone
	if err != nil {
		state = StateFailed
	}
	if !s.terminate(t, state, err) {
		return
	}
	// Completed tenants keep their labeled series (final consumption
	// stays visible in /metrics); only eviction unregisters them.
	s.release(t)
}

// terminate moves a tenant to a terminal state; it returns false if
// the tenant already reached one (finish racing evict — whoever is
// second becomes a no-op).
func (s *Supervisor) terminate(t *tenant, state TenantState, err error) bool {
	s.mu.Lock()
	if t.state == StateDone || t.state == StateFailed || t.state == StateEvicted {
		s.mu.Unlock()
		return false
	}
	t.state = state
	t.err = err
	t.finishedAt = time.Now()
	s.live--
	switch state {
	case StateDone:
		s.completed++
	case StateFailed:
		s.failed++
	case StateEvicted:
		s.evicted++
	}
	s.mu.Unlock()
	return true
}

// release returns a terminated tenant's budget reservations and
// resolves its waiters. Called exactly once per tenant, after
// terminate returned true and teardown ran.
func (s *Supervisor) release(t *tenant) {
	s.mu.Lock()
	s.heapUsed -= t.spec.Budget.HeapBytes
	s.fdsUsed -= t.spec.Budget.MaxFDs
	s.cacheUsed -= t.spec.Budget.CacheBytes
	s.mu.Unlock()

	// The shard's live/depth observables are Store-only: the next
	// monitor tick drops this tenant from the count. No Add(-1) here —
	// mixing Add with the tick's Store is what let the counters go
	// negative.
	if s.mLive != nil {
		s.mLive.Add(-1)
	}
	switch t.state {
	case StateDone:
		if s.mCompleted != nil {
			s.mCompleted.Inc()
		}
	case StateEvicted:
		if s.mEvictions != nil {
			s.mEvictions.Inc()
		}
	}
	if s.mLatency != nil {
		s.mLatency.ObserveDuration(t.finishedAt.Sub(t.submittedAt))
	}
	close(t.doneCh)
	s.wg.Done()
}

func (s *Supervisor) logEviction(ev Eviction) {
	s.mu.Lock()
	s.evictions = append(s.evictions, ev)
	s.mu.Unlock()
}

// Wait blocks until every admitted tenant has reached a terminal
// state. The shards stay up — more tenants may be submitted after.
func (s *Supervisor) Wait() { s.wg.Wait() }

// Close shuts the fleet down: each shard's monitor stops, its pending
// slot is released, its loop is stopped, and its goroutine joined.
// Tenants still live are abandoned mid-flight (callers wanting a
// clean drain call Wait first).
func (s *Supervisor) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	for _, sh := range s.shards {
		sh.loop.InvokeExternal("fleet-shutdown", sh.shutdown)
	}
	for _, sh := range s.shards {
		<-sh.joined
	}
}

// TenantInfo is one tenant's row in a FleetSnapshot.
type TenantInfo struct {
	Label      string      `json:"label"`
	Shard      int         `json:"shard"`
	State      TenantState `json:"state"`
	Detail     string      `json:"detail,omitempty"`
	CPUMs      int64       `json:"cpu_ms"`
	HeapUsed   int64       `json:"heap_used"`
	HeapBudget int         `json:"heap_budget,omitempty"`
	FDs        int64       `json:"fds"`
	RunqDepth  int64       `json:"runq_depth"`
	LatencyMs  int64       `json:"latency_ms,omitempty"`
	// HotMethods is the tenant's top-5 CPU-profile methods (leaf
	// attribution, Value in sampled nanoseconds); present only when
	// the fleet runs with Config.Profiling.
	HotMethods []profile.MethodWeight `json:"hot_methods,omitempty"`
}

// ShardInfo is one shard's row in a FleetSnapshot.
type ShardInfo struct {
	Index     int   `json:"index"`
	Live      int64 `json:"live"`
	Load      int64 `json:"load"`
	RunqDepth int64 `json:"runq_depth"`
	TasksRun  int64 `json:"tasks_run"`
	BusyMs    int64 `json:"busy_ms"`
}

// Eviction is one entry in the eviction log.
type Eviction struct {
	Label  string    `json:"label"`
	Shard  int       `json:"shard"`
	Reason string    `json:"reason"`
	CPUMs  int64     `json:"cpu_ms"`
	At     time.Time `json:"at"`
}

// FleetSnapshot is the /debug/fleet view: shard depths, per-tenant
// state and budget consumption, and the eviction log.
type FleetSnapshot struct {
	Shards    []ShardInfo  `json:"shards"`
	Tenants   []TenantInfo `json:"tenants"`
	Evictions []Eviction   `json:"evictions,omitempty"`
	Admitted  int          `json:"admitted"`
	Rejected  int          `json:"rejected"`
	Completed int          `json:"completed"`
	Evicted   int          `json:"evicted"`
	Failed    int          `json:"failed"`
	Live      int          `json:"live"`
}

// Snapshot captures the fleet's state from the registry and the
// atomics the shard monitors publish. It never touches a shard loop,
// so it stays accurate even when a tenant has a shard wedged — which
// is exactly when an operator needs it.
func (s *Supervisor) Snapshot() FleetSnapshot {
	s.mu.Lock()
	snap := FleetSnapshot{
		Admitted:  s.admitted,
		Rejected:  s.rejected,
		Completed: s.completed,
		Evicted:   s.evicted,
		Failed:    s.failed,
		Live:      s.live,
		Evictions: append([]Eviction(nil), s.evictions...),
	}
	tenants := append([]*tenant(nil), s.tenants...)
	infos := make([]TenantInfo, 0, len(tenants))
	for _, t := range tenants {
		info := TenantInfo{
			Label:      t.spec.Label,
			Shard:      t.shard.index,
			State:      t.state,
			CPUMs:      time.Duration(t.cpu.Load()).Milliseconds(),
			HeapUsed:   t.heapUsed.Load(),
			HeapBudget: t.spec.Budget.HeapBytes,
			FDs:        t.fds.Load(),
			RunqDepth:  t.depth.Load(),
		}
		if t.err != nil {
			info.Detail = t.err.Error()
		}
		if !t.finishedAt.IsZero() {
			info.LatencyMs = t.finishedAt.Sub(t.submittedAt).Milliseconds()
		}
		info.HotMethods = t.prof.TopMethods(profile.CPU, 5)
		infos = append(infos, info)
	}
	s.mu.Unlock()
	snap.Tenants = infos

	for _, sh := range s.shards {
		st := sh.loop.Stats()
		snap.Shards = append(snap.Shards, ShardInfo{
			Index:     sh.index,
			Live:      sh.live.Load(),
			Load:      sh.loadSignal(),
			RunqDepth: sh.depth.Load(),
			TasksRun:  int64(st.TasksRun),
			BusyMs:    st.BusyTime.Milliseconds(),
		})
	}
	return snap
}

// Format renders the snapshot as the /debug/fleet text view.
func (snap FleetSnapshot) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== FLEET (%d shards, %d live) ===\n", len(snap.Shards), snap.Live)
	fmt.Fprintf(&b, "admitted %d  rejected %d  completed %d  evicted %d  failed %d\n\n",
		snap.Admitted, snap.Rejected, snap.Completed, snap.Evicted, snap.Failed)
	b.WriteString("shard  live  load  runq  tasks    busy\n")
	for _, sh := range snap.Shards {
		fmt.Fprintf(&b, "%5d  %4d  %4d  %4d  %6d  %5dms\n",
			sh.Index, sh.Live, sh.Load, sh.RunqDepth, sh.TasksRun, sh.BusyMs)
	}
	if len(snap.Tenants) > 0 {
		b.WriteString("\ntenant                shard  state     cpu       heap        fds  runq\n")
		tenants := append([]TenantInfo(nil), snap.Tenants...)
		sort.Slice(tenants, func(i, j int) bool { return tenants[i].Label < tenants[j].Label })
		for _, t := range tenants {
			heap := fmt.Sprintf("%d", t.HeapUsed)
			if t.HeapBudget > 0 {
				heap = fmt.Sprintf("%d/%d", t.HeapUsed, t.HeapBudget)
			}
			fmt.Fprintf(&b, "%-20s  %5d  %-8s  %6dms  %-10s  %3d  %4d\n",
				t.Label, t.Shard, t.State, t.CPUMs, heap, t.FDs, t.RunqDepth)
			if t.Detail != "" {
				fmt.Fprintf(&b, "    %s\n", t.Detail)
			}
			for _, m := range t.HotMethods {
				fmt.Fprintf(&b, "    hot %-40s %8.1fms\n",
					m.Method, float64(m.Value)/1e6)
			}
		}
	}
	if len(snap.Evictions) > 0 {
		b.WriteString("\nevictions:\n")
		for _, ev := range snap.Evictions {
			fmt.Fprintf(&b, "  [%s] %s (shard %d, %dms cpu): %s\n",
				ev.At.Format("15:04:05.000"), ev.Label, ev.Shard, ev.CPUMs, ev.Reason)
		}
	}
	return b.String()
}
