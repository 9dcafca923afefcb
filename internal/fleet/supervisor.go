package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

// Config sizes a Supervisor.
type Config struct {
	// Shards is the number of event loops (and goroutines) to host
	// tenants on. Default: runtime.NumCPU().
	Shards int
	// Hub receives fleet metrics, per-tenant labeled series, and
	// flight events; every shard window reports into it, so a hub
	// with a Profiler folds every tenant into that one profile.
	// Optional.
	Hub *telemetry.Hub
}

// Supervisor owns a pool of shards and the tenants placed on them.
type Supervisor struct {
	hub    *telemetry.Hub
	shards []*Shard

	mu        sync.Mutex
	tenants   []*tenant
	admitted  int
	completed int
	failed    int
	live      int
	closed    bool

	wg sync.WaitGroup

	mAdmitted  *telemetry.Counter
	mCompleted *telemetry.Counter
	mLive      *telemetry.Gauge
	mLatency   *telemetry.Histogram
}

// NewSupervisor builds the shard pool and starts its loop goroutines.
// Callers must Close the supervisor to join them.
func NewSupervisor(cfg Config) *Supervisor {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.NumCPU()
	}
	sup := &Supervisor{hub: cfg.Hub}
	if hub := sup.hub; hub != nil {
		sup.mAdmitted = hub.Registry.Counter("fleet", "admitted")
		sup.mCompleted = hub.Registry.Counter("fleet", "completed")
		sup.mLive = hub.Registry.Gauge("fleet", "live")
		sup.mLatency = hub.Registry.Histogram("fleet", "latency")
	}
	sup.shards = make([]*Shard, cfg.Shards)
	for i := range sup.shards {
		sup.shards[i] = newShard(sup, i)
	}
	return sup
}

// Submit places a tenant on the least-loaded shard (run-queue depth
// + live tenants, as last published by the shard monitors) and starts
// it from that shard's own loop. Safe from any goroutine.
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
		root:        vfs.NewInMemory(),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("fleet: supervisor closed")
	}
	sh := s.pickShardLocked()
	t.shard = sh
	s.admitted++
	s.live++
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

// pickShardLocked is work-stealing placement inverted: rather than
// idle shards pulling work, Submit pushes each tenant to the shard
// whose published load (live tenants + run-queue depth) is lowest.
func (s *Supervisor) pickShardLocked() *Shard {
	best := s.shards[0]
	bestLoad := best.loadSignal()
	for _, sh := range s.shards[1:] {
		if load := sh.loadSignal(); load < bestLoad {
			best, bestLoad = sh, load
		}
	}
	return best
}

// finish moves a tenant to its terminal state — done, or failed with
// the workload's or start's error — and resolves its waiters. A
// tenant already terminal is left as it is. Reached from the shard
// loop.
func (s *Supervisor) finish(t *tenant, err error) {
	s.mu.Lock()
	if t.state == StateDone || t.state == StateFailed {
		s.mu.Unlock()
		return
	}
	if err != nil {
		t.state = StateFailed
		s.failed++
	} else {
		t.state = StateDone
		s.completed++
	}
	t.err = err
	t.finishedAt = time.Now()
	s.live--
	s.mu.Unlock()

	// The shard's live/depth observables are Store-only: the next
	// monitor tick drops this tenant from the count. No Add(-1) here —
	// mixing Add with the tick's Store is what let the counters go
	// negative. Finished tenants keep their labeled series, so final
	// consumption stays visible in /metrics.
	if s.mLive != nil {
		s.mLive.Add(-1)
	}
	if err == nil && s.mCompleted != nil {
		s.mCompleted.Inc()
	}
	if s.mLatency != nil {
		s.mLatency.ObserveDuration(t.finishedAt.Sub(t.submittedAt))
	}
	close(t.doneCh)
	s.wg.Done()
}

// Wait blocks until every submitted tenant has reached a terminal
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
	Label     string      `json:"label"`
	Shard     int         `json:"shard"`
	State     TenantState `json:"state"`
	Detail    string      `json:"detail,omitempty"`
	CPUMs     int64       `json:"cpu_ms"`
	HeapUsed  int64       `json:"heap_used"`
	RunqDepth int64       `json:"runq_depth"`
	LatencyMs int64       `json:"latency_ms,omitempty"`
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

// FleetSnapshot is the /debug/fleet view: shard depths and
// per-tenant state and consumption.
type FleetSnapshot struct {
	Shards    []ShardInfo  `json:"shards"`
	Tenants   []TenantInfo `json:"tenants"`
	Admitted  int          `json:"admitted"`
	Completed int          `json:"completed"`
	Failed    int          `json:"failed"`
	Live      int          `json:"live"`
}

// Snapshot captures the fleet's state from the registry and the
// atomics the shard monitors publish. It never touches a shard loop,
// so it answers even when a tenant has a shard wedged — which is
// exactly when an operator needs it.
func (s *Supervisor) Snapshot() FleetSnapshot {
	s.mu.Lock()
	snap := FleetSnapshot{
		Admitted:  s.admitted,
		Completed: s.completed,
		Failed:    s.failed,
		Live:      s.live,
	}
	tenants := append([]*tenant(nil), s.tenants...)
	infos := make([]TenantInfo, 0, len(tenants))
	for _, t := range tenants {
		info := TenantInfo{
			Label:     t.spec.Label,
			Shard:     t.shard.index,
			State:     t.state,
			CPUMs:     time.Duration(t.cpu.Load()).Milliseconds(),
			HeapUsed:  t.heapUsed.Load(),
			RunqDepth: t.depth.Load(),
		}
		if t.err != nil {
			info.Detail = t.err.Error()
		}
		if !t.finishedAt.IsZero() {
			info.LatencyMs = t.finishedAt.Sub(t.submittedAt).Milliseconds()
		}
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
	fmt.Fprintf(&b, "admitted %d  completed %d  failed %d\n\n",
		snap.Admitted, snap.Completed, snap.Failed)
	b.WriteString("shard  live  load  runq  tasks    busy\n")
	for _, sh := range snap.Shards {
		fmt.Fprintf(&b, "%5d  %4d  %4d  %4d  %6d  %5dms\n",
			sh.Index, sh.Live, sh.Load, sh.RunqDepth, sh.TasksRun, sh.BusyMs)
	}
	if len(snap.Tenants) > 0 {
		b.WriteString("\ntenant                shard  state     cpu       heap        runq\n")
		tenants := append([]TenantInfo(nil), snap.Tenants...)
		sort.Slice(tenants, func(i, j int) bool { return tenants[i].Label < tenants[j].Label })
		for _, t := range tenants {
			fmt.Fprintf(&b, "%-20s  %5d  %-8s  %6dms  %-10d  %4d\n",
				t.Label, t.Shard, t.State, t.CPUMs, t.HeapUsed, t.RunqDepth)
			if t.Detail != "" {
				fmt.Fprintf(&b, "    %s\n", t.Detail)
			}
		}
	}
	return b.String()
}
