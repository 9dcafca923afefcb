// Package ops is the runtime's live-operations layer: a stdlib-only
// HTTP server exposing the telemetry hub, scheduler state, flight
// recorder, and pprof while a workload runs, plus the post-mortem
// report the runtime emits automatically when a JVM deadlocks, the
// watchdog kills the script, or stall detection trips.
//
// The paper's evaluation (§7) observes the system only after the fact;
// the ROADMAP's production north star needs the Browsix-style ability
// to inspect the runtime *while it runs* and a black-box record when
// it dies. Both views are assembled from the same Source descriptors.
//
// Concurrency: core.Runtime, the VFS decorator stack, and the
// unmanaged heap all execute on the single event-loop goroutine.
// Collect therefore must run either on that goroutine (the server's
// handlers arrange this via Loop.Post with a timeout) or after
// Loop.Run has returned (the post-mortem paths). The telemetry hub's
// registry, tracer, flight recorder, and guest profiler are internally
// synchronized and safe from any goroutine.
package ops

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"doppio/internal/core"
	"doppio/internal/eventloop"
	"doppio/internal/jvm"
	"doppio/internal/proc"
	"doppio/internal/profile"
	"doppio/internal/telemetry"
	"doppio/internal/umheap"
	"doppio/internal/vfs"
	"doppio/internal/vfs/faultfs"
)

// Source names one inspectable runtime instance: the event loop it
// runs on and whichever subsystems it actually has. Nil fields are
// simply absent from reports.
type Source struct {
	// Name distinguishes sources when several browsers run in one
	// process (doppio-bench's Browsers > 1).
	Name string
	// Loop is the event loop everything below executes on. Required
	// for live collection; may be nil for post-Run collection.
	Loop *eventloop.Loop
	// Runtime is the Doppio scheduler, for thread dumps.
	Runtime *core.Runtime
	// Backend is the outermost layer of the VFS decorator stack; cache,
	// retry/breaker, and fault-injector state are discovered by walking
	// its Unwrap chain.
	Backend vfs.Backend
	// Heap is the JVM's unmanaged heap, for the free-list map.
	Heap *umheap.Heap
	// Proc is the process kernel, for the ps-style table
	// (/debug/proc). Nil when the source runs no process layer.
	Proc *proc.Kernel
	// JVM lists the source's bytecode engines for the quickening
	// counters (/debug/jvm); empty when no JVM runs here.
	JVM []JVMEngine
}

// JVMEngine names one bytecode engine exposing quickening counters.
type JVMEngine struct {
	// Engine distinguishes the interpreters ("doppio", "native").
	Engine string
	Stats  jvm.QuickStatser
}

// JVMEngineState is one engine's quickening slice of a report.
type JVMEngineState struct {
	Engine string `json:"engine"`
	jvm.QuickStats
}

// VFSState is the VFS slice of a report.
type VFSState struct {
	Backend string          `json:"backend,omitempty"`
	Cache   *vfs.CacheStats `json:"cache,omitempty"`
	Retry   *vfs.RetryStats `json:"retry,omitempty"`
	Faults  *faultfs.Stats  `json:"faults,omitempty"`
}

// HeapState is the unmanaged-heap slice of a report.
type HeapState struct {
	Size       int             `json:"size"`
	Allocated  int             `json:"allocated"`
	AllocCount int             `json:"alloc_count"`
	FreeList   []umheap.Extent `json:"free_list"`
}

// FlightTail is how many flight-recorder events a post-mortem keeps.
const FlightTail = 200

// Report is one diagnostics capture: the jstack-style post-mortem the
// runtime emits on deadlock/watchdog/stall, and the payload behind the
// server's debug endpoints. Nil sections were unavailable at capture.
type Report struct {
	Reason    string              `json:"reason"`
	Detail    string              `json:"detail,omitempty"`
	Source    string              `json:"source,omitempty"`
	Scheduler *core.SchedulerDump `json:"scheduler,omitempty"`
	VFS       *VFSState           `json:"vfs,omitempty"`
	Heap      *HeapState          `json:"heap,omitempty"`
	Procs     []proc.ProcInfo     `json:"procs,omitempty"`
	JVM       []JVMEngineState    `json:"jvm,omitempty"`
	// HotStacks is the head of the guest CPU profile at capture time
	// (collapsed stacks, Value in sampled nanoseconds) — where the
	// workload was spending its guest time when it died.
	HotStacks []profile.Entry         `json:"hot_stacks,omitempty"`
	Flight    []telemetry.FlightEvent `json:"flight,omitempty"`
	// FlightDropped counts events the ring had already overwritten —
	// how much history beyond Flight is gone.
	FlightDropped uint64 `json:"flight_dropped,omitempty"`
}

// Collect assembles a report from whatever the source has, plus the
// hub's flight tail and guest hot stacks when those pillars are on.
// It reads scheduler, VFS, and heap state directly — call it on the
// event-loop goroutine or after Loop.Run has returned (see the package
// comment).
func Collect(hub *telemetry.Hub, src Source, reason, detail string) *Report {
	r := &Report{Reason: reason, Detail: detail, Source: src.Name}
	if src.Runtime != nil {
		d := src.Runtime.Dump()
		r.Scheduler = &d
	}
	if src.Backend != nil {
		r.VFS = collectVFS(src.Backend)
	}
	if src.Heap != nil {
		r.Heap = &HeapState{
			Size:       src.Heap.Size(),
			Allocated:  src.Heap.AllocatedBytes(),
			AllocCount: src.Heap.AllocCount(),
			FreeList:   src.Heap.FreeList(),
		}
	}
	if src.Proc != nil {
		r.Procs = src.Proc.Snapshot()
	}
	for _, e := range src.JVM {
		if e.Stats == nil {
			continue
		}
		r.JVM = append(r.JVM, JVMEngineState{Engine: e.Engine, QuickStats: e.Stats.QuickStats()})
	}
	if hub != nil && hub.Profiler != nil {
		const hotStackCount = 10
		snap := hub.Profiler.Snapshot(profile.CPU)
		if len(snap.Entries) > hotStackCount {
			snap.Entries = snap.Entries[:hotStackCount]
		}
		r.HotStacks = snap.Entries
	}
	if hub != nil && hub.Flight != nil {
		r.Flight = hub.Flight.Tail(FlightTail)
		r.FlightDropped = hub.Flight.Dropped()
	}
	return r
}

// FormatProcs renders the process table ps-style.
func FormatProcs(procs []proc.ProcInfo) string {
	var b strings.Builder
	b.WriteString("== processes ==\n")
	fmt.Fprintf(&b, "%5s %5s %-12s %-8s %4s %-28s %s\n",
		"PID", "PPID", "NAME", "STATE", "EXIT", "BLOCKED-ON", "CHILDREN")
	for _, p := range procs {
		kids := ""
		for i, c := range p.Children {
			if i > 0 {
				kids += ","
			}
			kids += fmt.Sprint(c)
		}
		fmt.Fprintf(&b, "%5d %5d %-12s %-8s %4d %-28s %s\n",
			p.PID, p.PPID, p.Name, p.State, p.ExitCode, p.Blocked, kids)
	}
	return b.String()
}

func collectVFS(b vfs.Backend) *VFSState {
	st := &VFSState{Backend: b.Name()}
	if cs, ok := vfs.Find[vfs.CacheStatser](b); ok {
		s := cs.CacheStats()
		st.Cache = &s
	}
	if rs, ok := vfs.Find[vfs.RetryStatser](b); ok {
		s := rs.RetryStats()
		st.Retry = &s
	}
	if fs, ok := vfs.Find[vfs.FaultStatser](b); ok {
		s := fs.FaultStats()
		st.Faults = &s
	}
	return st
}

// Text renders the report as the human-readable post-mortem.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "==== doppio post-mortem: %s ====\n", r.Reason)
	if r.Detail != "" {
		fmt.Fprintf(&b, "%s\n", r.Detail)
	}
	if r.Source != "" {
		fmt.Fprintf(&b, "source: %s\n", r.Source)
	}
	if r.Scheduler != nil {
		b.WriteString(r.Scheduler.Format())
		if blocked := r.Scheduler.Blocked(); len(blocked) > 0 {
			fmt.Fprintf(&b, "blocked threads (%d):\n", len(blocked))
			for _, t := range blocked {
				fmt.Fprintf(&b, "  %s#%d on %s\n", t.Name, t.ID, t.BlockedOn)
			}
		}
	}
	if r.VFS != nil {
		fmt.Fprintf(&b, "== vfs (%s) ==\n", r.VFS.Backend)
		if c := r.VFS.Cache; c != nil {
			fmt.Fprintf(&b, "cache: hits=%d misses=%d stat-hits=%d negative-hits=%d degraded=%d bytes=%d\n",
				c.Hits, c.Misses, c.StatHits, c.NegativeHits, c.DegradedServes, c.BytesUsed)
		}
		if rt := r.VFS.Retry; rt != nil {
			fmt.Fprintf(&b, "retry: ops=%d attempts=%d retries=%d recovered=%d fastfails=%d breaker=%s\n",
				rt.Ops, rt.Attempts, rt.Retries, rt.Recovered, rt.FastFails, rt.BreakerState)
		}
		if f := r.VFS.Faults; f != nil {
			fmt.Fprintf(&b, "faults: ops=%d err-pre=%d err-post=%d shorts=%d delays=%d\n",
				f.Ops, f.ErrsPre, f.ErrsPost, f.Shorts, f.Delays)
		}
	}
	if len(r.Procs) > 0 {
		b.WriteString(FormatProcs(r.Procs))
	}
	if len(r.JVM) > 0 {
		b.WriteString("== jvm quickening ==\n")
		for _, e := range r.JVM {
			if !e.Enabled {
				fmt.Fprintf(&b, "%s: quickening off\n", e.Engine)
				continue
			}
			fmt.Fprintf(&b, "%s: sites=%d ic-hits=%d ic-misses=%d deopts=%d fusions=%d fused-exec=%d\n",
				e.Engine, e.Sites, e.ICHits, e.ICMisses, e.Deopts, e.Fusions, e.FusedExec)
		}
	}
	if r.Heap != nil {
		fmt.Fprintf(&b, "== unmanaged heap ==\nsize=%d allocated=%d live-allocs=%d free-blocks=%d\nfree list:\n",
			r.Heap.Size, r.Heap.Allocated, r.Heap.AllocCount, len(r.Heap.FreeList))
		for _, e := range r.Heap.FreeList {
			fmt.Fprintf(&b, "  [%8d, %8d) %d bytes\n", e.Addr, e.Addr+e.Size, e.Size)
		}
	}
	if len(r.HotStacks) > 0 {
		b.WriteString("== guest hot stacks (cpu) ==\n")
		for _, e := range r.HotStacks {
			fmt.Fprintf(&b, "  %8.1fms  %s\n",
				float64(e.Value)/1e6, strings.Join(e.Stack, ";"))
		}
	}
	if r.Flight != nil {
		if r.FlightDropped > 0 {
			fmt.Fprintf(&b, "(flight recorder: %d older events overwritten)\n", r.FlightDropped)
		}
		b.WriteString(telemetry.FormatFlight(r.Flight))
	}
	return b.String()
}

// WriteJSON serializes the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// CollectOnLoop runs Collect on the source's event-loop goroutine and
// waits up to timeout for it — the safe way to capture a report while
// the loop is running. When the loop is nil the collection happens
// inline (legal only post-Run). A timeout returns the error along
// with a degraded report carrying just the reason and the flight tail
// (the flight recorder is goroutine-safe, so the black box survives
// even an unresponsive loop).
func CollectOnLoop(hub *telemetry.Hub, src Source, reason, detail string, timeout time.Duration) (*Report, error) {
	if src.Loop == nil {
		return Collect(hub, src, reason, detail), nil
	}
	done := make(chan *Report, 1)
	src.Loop.Post("ops-collect", func() {
		done <- Collect(hub, src, reason, detail)
	})
	select {
	case r := <-done:
		return r, nil
	case <-time.After(timeout):
		r := &Report{Reason: reason, Detail: detail, Source: src.Name}
		if hub != nil && hub.Flight != nil {
			r.Flight = hub.Flight.Tail(FlightTail)
			r.FlightDropped = hub.Flight.Dropped()
		}
		return r, fmt.Errorf("ops: event loop unresponsive after %v", timeout)
	}
}
