package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an instantaneous level (queue depth, adaptive quantum).
// The zero value is ready to use; all methods are safe for concurrent
// use.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// SetMax raises the gauge to n if n is greater — a high-watermark.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		old := g.v.Load()
		if n <= old || g.v.CompareAndSwap(old, n) {
			return
		}
	}
}

// Add moves the level by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) reset() { g.v.Store(0) }

// metricKey identifies a metric within the registry. The label is
// empty for plain process-wide metrics; multi-tenant hosts (the fleet
// supervisor) use it to attribute a metric to one tenant.
type metricKey struct {
	subsystem, name, label string
}

// Registry is the process-wide metric store: named counters, gauges,
// and histograms keyed by (subsystem, name). Lookup takes a mutex;
// instrumented hot paths should resolve their metrics once and hold
// the returned pointers, whose operations are lock-free atomics.
type Registry struct {
	mu         sync.Mutex
	counters   map[metricKey]*Counter
	gauges     map[metricKey]*Gauge
	histograms map[metricKey]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[metricKey]*Counter),
		gauges:     make(map[metricKey]*Gauge),
		histograms: make(map[metricKey]*Histogram),
	}
}

// Counter returns the counter for (subsystem, name), creating it on
// first use.
func (r *Registry) Counter(subsystem, name string) *Counter {
	return r.LabeledCounter(subsystem, name, "")
}

// LabeledCounter returns the counter for (subsystem, name) attributed
// to label — a tenant name in fleet hosting — creating it on first
// use. An empty label is the plain Counter.
func (r *Registry) LabeledCounter(subsystem, name, label string) *Counter {
	k := metricKey{subsystem, name, label}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge for (subsystem, name), creating it on first
// use.
func (r *Registry) Gauge(subsystem, name string) *Gauge {
	return r.LabeledGauge(subsystem, name, "")
}

// LabeledGauge returns the gauge for (subsystem, name) attributed to
// label, creating it on first use. An empty label is the plain Gauge.
func (r *Registry) LabeledGauge(subsystem, name, label string) *Gauge {
	k := metricKey{subsystem, name, label}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the latency histogram for (subsystem, name),
// creating it on first use.
func (r *Registry) Histogram(subsystem, name string) *Histogram {
	return r.LabeledHistogram(subsystem, name, "")
}

// LabeledHistogram returns the latency histogram for (subsystem,
// name) attributed to label, creating it on first use. An empty label
// is the plain Histogram.
func (r *Registry) LabeledHistogram(subsystem, name, label string) *Histogram {
	k := metricKey{subsystem, name, label}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[k]
	if !ok {
		h = newHistogram()
		r.histograms[k] = h
	}
	return h
}

// Reset zeroes every registered metric (the metrics stay registered).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.histograms {
		h.Reset()
	}
}

// CounterValue is one counter in a snapshot. Label is empty for plain
// metrics, or the tenant the metric is attributed to.
type CounterValue struct {
	Subsystem, Name, Label string
	Value                  int64
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Subsystem, Name, Label string
	Value                  int64
}

// HistogramValue is one histogram in a snapshot.
type HistogramValue struct {
	Subsystem, Name, Label string
	HistogramStats
}

// Snapshot is a point-in-time copy of every metric, sorted by
// subsystem then name.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// Snapshot captures the current value of every metric. Individual
// metrics are read atomically; the snapshot as a whole is not a
// consistent cut across metrics (none of the consumers need one).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for k, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{k.subsystem, k.name, k.label, c.Value()})
	}
	for k, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{k.subsystem, k.name, k.label, g.Value()})
	}
	for k, h := range r.histograms {
		s.Histograms = append(s.Histograms, HistogramValue{k.subsystem, k.name, k.label, h.Stats()})
	}
	sort.Slice(s.Counters, func(i, j int) bool {
		a, b := s.Counters[i], s.Counters[j]
		return metricLess(a.Subsystem, a.Name, a.Label, b.Subsystem, b.Name, b.Label)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		a, b := s.Gauges[i], s.Gauges[j]
		return metricLess(a.Subsystem, a.Name, a.Label, b.Subsystem, b.Name, b.Label)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		a, b := s.Histograms[i], s.Histograms[j]
		return metricLess(a.Subsystem, a.Name, a.Label, b.Subsystem, b.Name, b.Label)
	})
	return s
}

func metricLess(sa, na, la, sb, nb, lb string) bool {
	if sa != sb {
		return sa < sb
	}
	if na != nb {
		return na < nb
	}
	return la < lb
}

// metricName renders "subsystem/name" with a "{label}" suffix for
// labeled (per-tenant) series.
func metricName(subsystem, name, label string) string {
	s := subsystem + "/" + name
	if label != "" {
		s += "{" + label + "}"
	}
	return s
}

// Format renders the snapshot as a human-readable table (the -metrics
// output of doppio-bench and doppio-jvm).
func (s Snapshot) Format() string {
	var b strings.Builder
	b.WriteString("== telemetry metrics ==\n")
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-44s %12d\n", metricName(c.Subsystem, c.Name, c.Label), c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "  %-44s %12d\n", metricName(g.Subsystem, g.Name, g.Label), g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("latency histograms:\n")
		fmt.Fprintf(&b, "  %-44s %9s %10s %10s %10s %10s %10s\n",
			"", "count", "mean", "p50", "p95", "p99", "max")
		for _, h := range s.Histograms {
			if h.Count == 0 {
				fmt.Fprintf(&b, "  %-44s %9d\n", metricName(h.Subsystem, h.Name, h.Label), 0)
				continue
			}
			fmt.Fprintf(&b, "  %-44s %9d %10s %10s %10s %10s %10s\n",
				metricName(h.Subsystem, h.Name, h.Label), h.Count,
				fmtNanos(h.Mean), fmtNanos(h.P50), fmtNanos(h.P95), fmtNanos(h.P99), fmtNanos(h.Max))
		}
	}
	return b.String()
}

// fmtNanos renders a nanosecond reading compactly.
func fmtNanos(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
