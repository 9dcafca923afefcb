// Package profile is the guest-level sampling profiler: it folds
// guest call stacks — JVM frames on either engine, MiniC frames —
// into weighted flat profiles for three kinds of cost:
//
//   - cpu: on-CPU time, sampled at safepoint boundaries. The engines
//     attribute the time elapsed since the previous sample to the
//     stack observed at the sample point, so the weights are wall-ns
//     of guest execution, not sample counts.
//   - alloc: allocation sites, sampled 1-in-N allocation events and
//     scaled back up by N (bytes and object counts are estimators).
//   - block: blocked time by stack, folded from the labelled
//     core.Completion block events (monitorenter, pipes, sockets).
//
// Stacks are root-first slices of frame strings ("Class.method" for
// caller frames, "Class.method:pc" at the leaf; MiniC uses function
// names). The profiler itself is engine-agnostic: engines walk their
// own explicit frame arrays and hand the strings over.
//
// All methods are safe on a nil *Profiler (they no-op), so VMs can
// hold one unconditionally and the hot paths stay branch-cheap when
// profiling is off. A non-nil Profiler is safe for concurrent use —
// the ops server snapshots it from HTTP goroutines while the VM's
// loop goroutine keeps sampling.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind names one of the three profile dimensions.
type Kind string

const (
	// CPU is on-CPU guest time by stack (value: nanoseconds).
	CPU Kind = "cpu"
	// Alloc is allocation by stack (value: bytes; count: objects).
	Alloc Kind = "alloc"
	// Block is blocked time by stack (value: nanoseconds of waiting;
	// count: contention events).
	Block Kind = "block"
)

// Kinds lists the valid profile kinds.
func Kinds() []Kind { return []Kind{CPU, Alloc, Block} }

// AllocRate samples one in this many allocation events.
const AllocRate = 61

// CPUInterval is the minimum spacing between CPU samples. The
// safepoint clock fires far more often than this; the engines skip
// sample points until the interval has elapsed and then attribute the
// whole elapsed window to the current stack — classic sampling.
const CPUInterval = time.Millisecond

// Entry is one folded stack with its accumulated weight.
type Entry struct {
	// Stack is root-first: Stack[0] is the outermost caller, the
	// last element the sampled leaf.
	Stack []string `json:"stack"`
	// Count is samples (cpu), estimated objects (alloc), or
	// contention events (block).
	Count int64 `json:"count"`
	// Value is nanoseconds (cpu, block) or estimated bytes (alloc).
	Value int64 `json:"value"`
}

type bucket struct {
	stack []string
	count int64
	value int64
}

// Profiler folds samples into per-kind weighted stack maps.
type Profiler struct {
	mu    sync.Mutex
	kinds map[Kind]map[string]*bucket

	allocCred  atomic.Int64 // countdown to the next sampled alloc
	cpuSamples atomic.Int64 // cheap liveness signal for tests/smoke
}

// New builds an empty Profiler.
func New() *Profiler {
	p := &Profiler{
		kinds: map[Kind]map[string]*bucket{
			CPU:   {},
			Alloc: {},
			Block: {},
		},
	}
	p.allocCred.Store(AllocRate)
	return p
}

// Samples reports the number of CPU samples folded so far. Safe on
// nil (zero).
func (p *Profiler) Samples() int64 {
	if p == nil {
		return 0
	}
	return p.cpuSamples.Load()
}

func (p *Profiler) add(kind Kind, stack []string, count, value int64) {
	if len(stack) == 0 {
		stack = []string{"(unknown)"}
	}
	key := strings.Join(stack, ";")
	p.mu.Lock()
	m := p.kinds[kind]
	b := m[key]
	if b == nil {
		b = &bucket{stack: append([]string(nil), stack...)}
		m[key] = b
	}
	b.count += count
	b.value += value
	p.mu.Unlock()
}

// SampleCPU attributes d of on-CPU guest time to stack. Safe on nil.
func (p *Profiler) SampleCPU(stack []string, d time.Duration) {
	if p == nil || d <= 0 {
		return
	}
	p.cpuSamples.Add(1)
	p.add(CPU, stack, 1, int64(d))
}

// AllocReady reports whether the next allocation event should be
// sampled, advancing the 1-in-N gate. Callers walk the stack only
// when it returns true. Safe on nil (always false).
func (p *Profiler) AllocReady() bool {
	if p == nil {
		return false
	}
	if p.allocCred.Add(-1) > 0 {
		return false
	}
	p.allocCred.Store(AllocRate)
	return true
}

// SampleAlloc records one sampled allocation event of bytes at stack,
// scaling bytes and the object count by the sampling rate so the
// profile estimates totals. Safe on nil.
func (p *Profiler) SampleAlloc(stack []string, bytes int64) {
	if p == nil {
		return
	}
	p.add(Alloc, stack, AllocRate, bytes*AllocRate)
}

// SampleBlock attributes d of blocked time (one contention event) to
// stack. Safe on nil.
func (p *Profiler) SampleBlock(stack []string, d time.Duration) {
	if p == nil || d <= 0 {
		return
	}
	p.add(Block, stack, 1, int64(d))
}

// Snapshot is a point-in-time copy of one kind's folded profile.
type Snapshot struct {
	Kind    Kind      `json:"kind"`
	Taken   time.Time `json:"taken"`
	Entries []Entry   `json:"entries"`
}

// Snapshot copies the folded profile for kind, entries sorted by
// descending Value. Safe on nil (empty snapshot).
func (p *Profiler) Snapshot(kind Kind) Snapshot {
	s := Snapshot{Kind: kind, Taken: time.Now()}
	if p == nil {
		return s
	}
	p.mu.Lock()
	for _, b := range p.kinds[kind] {
		s.Entries = append(s.Entries, Entry{Stack: b.stack, Count: b.count, Value: b.value})
	}
	p.mu.Unlock()
	sortEntries(s.Entries)
	return s
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Value != es[j].Value {
			return es[i].Value > es[j].Value
		}
		return strings.Join(es[i].Stack, ";") < strings.Join(es[j].Stack, ";")
	})
}

// Delta returns the growth from prev to cur — the profile of the
// window between the two snapshots. Entries that shrank or vanished
// (impossible under normal operation) are dropped.
func Delta(prev, cur Snapshot) Snapshot {
	base := make(map[string]Entry, len(prev.Entries))
	for _, e := range prev.Entries {
		base[strings.Join(e.Stack, ";")] = e
	}
	out := Snapshot{Kind: cur.Kind, Taken: cur.Taken}
	for _, e := range cur.Entries {
		if b, ok := base[strings.Join(e.Stack, ";")]; ok {
			e.Count -= b.Count
			e.Value -= b.Value
		}
		if e.Count > 0 || e.Value > 0 {
			out.Entries = append(out.Entries, e)
		}
	}
	sortEntries(out.Entries)
	return out
}

// WriteCollapsed renders the snapshot in Brendan Gregg's collapsed
// stack format ("frame;frame;frame weight"), one line per folded
// stack, weighted by Value — ready for flamegraph.pl / speedscope.
func (s Snapshot) WriteCollapsed(w io.Writer) error {
	for _, e := range s.Entries {
		if _, err := fmt.Fprintf(w, "%s %d\n", strings.Join(e.Stack, ";"), e.Value); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes the snapshot to path, picking the format by
// extension: ".pb.gz" gets the pprof protobuf (open with
// `go tool pprof path`), ".json" the JSON snapshot, anything else the
// collapsed-stack text.
func (s Snapshot) WriteFile(path string, duration time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch {
	case strings.HasSuffix(path, ".pb.gz"):
		err = s.WritePprof(f, duration)
	case strings.HasSuffix(path, ".json"):
		err = s.WriteJSON(f)
	default:
		err = s.WriteCollapsed(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReportAtExit is the cmd drivers' shared -prof/-prof-out exit path:
// with a path it writes the CPU profile there (WriteFile, spanning
// elapsed), otherwise it prints the ten hottest methods and the sample
// count. Messages go to w, prefixed with the driver's name. Safe on
// nil (prints nothing).
func (p *Profiler) ReportAtExit(w io.Writer, tool, path string, elapsed time.Duration) {
	if p == nil {
		return
	}
	if path != "" {
		if err := p.Snapshot(CPU).WriteFile(path, elapsed); err != nil {
			fmt.Fprintf(w, "%s: writing profile: %v\n", tool, err)
		} else {
			fmt.Fprintf(w, "%s: guest profile written to %s\n", tool, path)
		}
		return
	}
	fmt.Fprintf(w, "%s: guest hot methods (%d cpu samples):\n%s",
		tool, p.Samples(), formatTop(p.Snapshot(CPU), 10))
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// MethodWeight is one entry of a per-method (leaf-attributed,
// pc-stripped) ranking.
type MethodWeight struct {
	Method string `json:"method"`
	Count  int64  `json:"count"`
	Value  int64  `json:"value"`
}

// LeafMethod strips the ":pc" suffix off a leaf frame.
func LeafMethod(frame string) string {
	if i := strings.LastIndexByte(frame, ':'); i >= 0 {
		return frame[:i]
	}
	return frame
}

// TopMethods ranks methods by leaf-attributed Value for kind and
// returns the top n. Safe on nil (empty).
func (p *Profiler) TopMethods(kind Kind, n int) []MethodWeight {
	if p == nil {
		return nil
	}
	return TopMethods(p.Snapshot(kind), n)
}

// TopMethods ranks the snapshot's leaf methods by Value.
func TopMethods(s Snapshot, n int) []MethodWeight {
	acc := map[string]*MethodWeight{}
	for _, e := range s.Entries {
		if len(e.Stack) == 0 {
			continue
		}
		m := LeafMethod(e.Stack[len(e.Stack)-1])
		w := acc[m]
		if w == nil {
			w = &MethodWeight{Method: m}
			acc[m] = w
		}
		w.Count += e.Count
		w.Value += e.Value
	}
	out := make([]MethodWeight, 0, len(acc))
	for _, w := range acc {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Method < out[j].Method
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// formatTop renders the snapshot's top-n hot methods one per line.
func formatTop(s Snapshot, n int) string {
	var b strings.Builder
	for _, m := range TopMethods(s, n) {
		fmt.Fprintf(&b, "  %10.1fms  %6d  %s\n", float64(m.Value)/1e6, m.Count, m.Method)
	}
	return b.String()
}
