// Command perfbench is the repository's end-to-end benchmark. It runs
// unmodified guest programs on the Doppio runtime the way a page would
// (a fresh browser window and VM per program run, storage persisting
// across runs), checks every output, and prints its metrics by name
// and unit. One workload runs per invocation:
//
//	bash perfbench/run.sh --workload interp --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans at its own wrappers around each layer and reports the
// per-layer metrics instead, writing the spans as Chrome trace_event
// JSON. The last line of standard output is the result object; the
// line before it stamps the run (seed, host width, Go version) and
// says why the workload exists. perfbench/README.md lists the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

var processStart = time.Now()

// params are the knobs of one benchmark run.
type params struct {
	seed     int64
	duration time.Duration
	trace    bool
	small    bool // smoke-test sizes
	setups   int  // set-ups per run; setup_s is their median
	traceOut string
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup builds what the timed iterations need: compiled guests,
	// generated inputs, seeded storage, servers.
	setup(b *bench) error
	// iterate runs each program of the workload once, in an order
	// that rotates with k so a slow phase of the host hits all alike.
	iterate(b *bench, k int)
	// close releases what setup started.
	close()
}

// workloadInfo records why a workload exists, which layers it loads,
// and which change it should not move.
type workloadInfo struct {
	name, why, layers, noChange string
	// wallLatency keeps latency in wall time: input lag is bounded by
	// the wall-clock timeslice, so scaling it by host speed adds noise.
	wallLatency bool
	make        func() workload
}

var allWorkloads = []workloadInfo{
	{
		name:        "interp",
		why:         "interpretation is nearly all the work and there is no I/O; input events measure §4.1 responsiveness",
		layers:      "jvm (quickened), classfile, core, eventloop",
		noChange:    "VFS, mux and gateway changes leave it flat; suspend/resume changes move only its latency",
		wallLatency: true,
		make:        func() workload { return &interpWorkload{} },
	},
	{
		name:     "fs",
		why:      "every guest file op crosses the VFS front end, the cache, the suspend/resume bridge and the event loop",
		layers:   "jvm (generic) + classfile via VFSClassProvider, vfs + cache, buffer, minic, umheap, core, eventloop",
		noChange: "dispatch/quickening and mux/gateway changes leave it flat",
		make:     func() workload { return &fsWorkload{} },
	},
	{
		name:     "sock",
		why:      "guest socket round trips through the mux and gateway; guest CPU is small and the loop mostly waits",
		layers:   "sockets (WebSocket, mux, gateway), core completions, eventloop, jvm (generic)",
		noChange: "dispatch/quickening and VFS/cache changes leave it flat",
		make:     func() workload { return &sockWorkload{} },
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: interp, fs or sock")
	seed := fl.Int64("seed", 1, "seed for every generated input")
	seconds := fl.Float64("seconds", 10, "measuring time in seconds (set-up excluded)")
	trace := fl.Int("trace", 0, "1 records spans and reports per-layer metrics")
	traceOut := fl.String("trace-out", "", "Chrome trace file for --trace 1 (default .bench_build/perfbench/trace-<workload>-<seed>.json)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var info *workloadInfo
	for i := range allWorkloads {
		if allWorkloads[i].name == *name {
			info = &allWorkloads[i]
		}
	}
	if info == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload interp|fs|sock, --seconds > 0 and --trace 0|1")
		return 2
	}
	p := params{seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, setups: 7, traceOut: *traceOut}
	if p.traceOut == "" {
		p.traceOut = fmt.Sprintf(".bench_build/perfbench/trace-%s-%d.json", info.name, p.seed)
	}
	// A wedged guest must not hold the run past its time limit.
	watchdog := time.AfterFunc(p.duration+150*time.Second, func() {
		fmt.Fprintln(stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()
	res, err := measure(*info, p)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	enc := json.NewEncoder(stdout)
	enc.Encode(map[string]interface{}{"perfbench": res.stamp})
	enc.Encode(res.out)
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type report struct {
	out      result
	stamp    map[string]interface{}
	failures []string
}

// bench is the state shared by the harness and the workloads.
type bench struct {
	p   params
	tr  *recorder // non-nil while the current iteration is traced
	rec *recorder

	iterSpan int // span id of the current iteration

	attempted, failed int
	failures          []string

	iterMs    []float64 // end-to-end: reference time per untraced iteration
	tracedMs  []float64 // reference time per traced iteration (--trace 1)
	latencyUs []float64 // this iteration's per-operation latencies, folded into a hist after it
	heapMiB   []float64 // post-GC live heap, one per iteration
	layer     samples   // per-layer values, one per program run or iteration
	keep      []interface{}
}

// check collects the failures of one attempted unit of work.
type check struct {
	b    *bench
	what string
	bad  int
}

func (b *bench) check(what string) *check { return &check{b: b, what: what} }

// expect records a failure when ok is false.
func (c *check) expect(ok bool, format string, args ...interface{}) {
	if ok {
		return
	}
	c.bad++
	if len(c.b.failures) < 10 {
		c.b.failures = append(c.b.failures, c.what+": "+fmt.Sprintf(format, args...))
	}
}

// done counts the attempt, and a failure if any expectation failed.
func (c *check) done() {
	c.b.attempted++
	if c.bad > 0 {
		c.b.failed++
	}
}

// keepAlive holds v until the iteration's heap sample is taken, so the
// sample sees the guest VMs still reachable.
func (b *bench) keepAlive(v interface{}) { b.keep = append(b.keep, v) }

func (b *bench) sampleHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.heapMiB = append(b.heapMiB, float64(m.HeapAlloc)/(1<<20))
	b.keep = nil
}

// iterate runs one iteration of w under an iteration span.
func (b *bench) iterate(w workload, k int) time.Duration {
	start := time.Now()
	b.iterSpan = b.tr.begin(layerIteration, "", 0)
	w.iterate(b, k)
	b.tr.end(b.iterSpan)
	elapsed := time.Since(start)
	if b.tr != nil {
		b.tr.finishIter()
	}
	return elapsed
}

// measure sets w up p.setups times, then runs iterations for
// p.duration and reduces them to metrics.
func measure(info workloadInfo, p params) (*report, error) {
	b := &bench{p: p, layer: samples{}}
	// Everything recorded per iteration is pre-sized, so the benchmark's
	// own bookkeeping does not grow the heap that heap_mib measures.
	const maxIters = 1 << 12
	b.iterMs = make([]float64, 0, maxIters)
	b.heapMiB = make([]float64, 0, maxIters)
	iterRaw := make([]float64, 0, maxIters)
	probes := make([]float64, 0, maxIters)
	var latency, latRaw hist
	var setups []float64
	var w workload
	for i := 0; i < p.setups; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		w = info.make()
		if err := w.setup(b); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", info.name, err)
		}
		// Warm-up: one untimed iteration, checked like the rest.
		b.iterate(w, i)
		setups = append(setups, time.Since(start).Seconds())
		b.keep = nil
	}
	defer w.close()
	var layers samples
	if p.trace {
		layers = samples{}
		b.tracedMs = make([]float64, 0, maxIters)
	}
	b.latencyUs = b.latencyUs[:0]
	if p.trace {
		b.rec = newRecorder()
	}
	deadline := time.Now().Add(p.duration)
	iters := 0
	runtime.GC()
	prev := probe()
	for k := 0; iters < 2 || time.Now().Before(deadline); k++ {
		// Traced runs alternate traced and untraced iterations, so the
		// run measures its own tracing overhead.
		traced := p.trace && k%2 == 1
		// Per-layer metrics come from traced iterations only.
		b.tr, b.layer = nil, nil
		if traced {
			b.tr, b.layer = b.rec, layers
		}
		d := b.iterate(w, k)
		b.sampleHeap()
		// Each iteration is scaled by the probes on either side of it.
		next := probe()
		f := refFactor(prev, next)
		prev = next
		probes = append(probes, ms(next))
		for _, v := range b.latencyUs {
			latRaw.add(v)
			if !info.wallLatency {
				v *= f
			}
			latency.add(v)
		}
		b.latencyUs = b.latencyUs[:0]
		if traced {
			b.tracedMs = append(b.tracedMs, ms(d)*f)
		} else {
			iterRaw = append(iterRaw, ms(d))
			b.iterMs = append(b.iterMs, ms(d)*f)
		}
		iters++
	}
	b.tr, b.layer = nil, layers

	out := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	if p.trace {
		vals := b.layer.medians()
		for k, v := range b.rec.selfMs() {
			vals[k] = v
		}
		vals["trace.overhead_ratio"] = ratio(median(b.tracedMs), median(b.iterMs))
		for _, m := range perLayerMetrics() {
			out.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
		if err := b.rec.writeChrome(p.traceOut); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	} else {
		vals := map[string]float64{
			// Set-up is scaled by the run's median probe: one probe per
			// set-up would be too noisy a sample.
			"setup_s":        median(setups) * ms(probeRef) / median(probes),
			"heap_mib":       median(b.heapMiB),
			"iter_ref_ms":    median(b.iterMs),
			"latency_us_p50": latency.quantile(0.5),
			"latency_us_p90": latency.quantile(0.9),
		}
		for _, m := range endToEndMetrics {
			out.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
		}
	}
	stamp := map[string]interface{}{
		"workload":   info.name,
		"why":        info.why,
		"layers":     info.layers,
		"no_change":  info.noChange,
		"seed":       p.seed,
		"seconds":    p.duration.Seconds(),
		"setups_s":   setups,
		"trace":      p.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"iterations": iters,
		"samples":    map[string]int{"iterations": len(b.iterMs), "latency": latency.n},
		// Unscaled figures, for reading the reference-time metrics.
		"wall": map[string]float64{
			"setup_s":        median(setups),
			"iter_ms":        median(iterRaw),
			"latency_us_p50": latRaw.quantile(0.5),
			"latency_us_p90": latRaw.quantile(0.9),
			"probe_ms":       median(probes),
		},
	}
	if p.trace {
		stamp["trace_file"] = p.traceOut
	}
	return &report{out: out, stamp: stamp, failures: b.failures}, nil
}

type metric struct{ name, unit string }

// endToEndMetrics are what a user of the system sees. Every workload
// reports all of them; latency is the workload's own small operation
// (input event lag, guest file op, socket round trip).
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"heap_mib", "MiB"},
	{"iter_ref_ms", "ms"},
	{"latency_us_p50", "us"},
	{"latency_us_p90", "us"},
}

// Program ids, used as metric suffixes.
var (
	fsPrograms = []string{"javac_trace", "game"}
	sockPhases = []string{"echo", "bulk"}
	fileOps    = []string{"stat", "read", "readdir", "write"}
)

// sockProgram is the id of the sock workload's one guest program.
const sockProgram = "sock"

// perLayerMetrics are the traced run's metrics. Every workload reports
// all of them; a layer a workload does not load reads 0 there.
func perLayerMetrics() []metric {
	var out []metric
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metric{n, unit})
		}
	}
	each := func(prefix string, ids []string) []string {
		var ns []string
		for _, id := range ids {
			ns = append(ns, prefix+"."+id)
		}
		return ns
	}
	var interpPrograms []string
	for _, r := range interpRuns {
		interpPrograms = append(interpPrograms, r.id)
	}
	guests := append(append([]string(nil), fsPrograms...), sockProgram)
	all := append(append(append([]string(nil), interpPrograms...), fsPrograms...), sockPhases...)
	add("ms", each("run_ms", all)...)
	add("count", each("jvm.instructions", interpPrograms)...)
	add("ns", each("jvm.ns_per_instruction", interpPrograms)...)
	add("MiB", each("go.alloc_mib", interpPrograms)...)
	add("count", each("go.gc_cycles", interpPrograms)...)
	add("ms", each("core.slice_ms_mean", interpPrograms)...)
	add("ms", each("eventloop.longest_task_ms", interpPrograms)...)
	add("ms", "input.gen_late_ms_p90")
	add("count", "jvm.classes_loaded")
	add("us", "jvm.classload_us_p50")
	add("count", each("core.suspensions", guests)...)
	add("ratio", each("core.suspended_share", guests)...)
	add("count", each("eventloop.tasks", guests)...)
	add("ms", each("eventloop.outside_slices_ms", guests)...)
	add("us", each("vfs.guest_op_us_p50", fileOps)...)
	add("us", each("vfs.guest_op_us_p90", fileOps)...)
	add("count", "vfs.front_ops", "vfs.backend_ops")
	add("ratio", "vfs.cache_hit_ratio")
	add("us", "vfs.backend_us_p50")
	add("B", "vfs.bytes_read", "vfs.bytes_written")
	add("count", "minic.steps")
	add("ns", "minic.ns_per_step")
	add("count", "umheap.alloc_count", "umheap.free_blocks")
	add("count", "core.context_switches."+sockProgram)
	add("ms", "eventloop.idle_ms."+sockProgram)
	add("ratio", "sockets.wire_bytes_per_payload_byte", "sockets.wire_writes_per_msg")
	var self []string
	for _, l := range traceLayers {
		self = append(self, "self_ms."+l)
	}
	add("ms", self...)
	add("ratio", "trace.overhead_ratio")
	return out
}
