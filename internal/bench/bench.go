// Package bench regenerates every table and figure of the paper's
// evaluation (§7): the DoppioJVM macro benchmarks (Figure 3), the
// microbenchmark CPU/wall-clock split (Figure 4), suspension overhead
// (Figure 5), file system performance on the recorded trace
// (Figure 6), the feature matrix (Table 1), and the storage-mechanism
// matrix (Table 2). EXPERIMENTS.md records paper-vs-measured numbers.
package bench

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"doppio/internal/bench/workloads"
	"doppio/internal/browser"
	"doppio/internal/fleet"
	"doppio/internal/jvm"
	"doppio/internal/ops"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

// Config tunes a benchmark run.
type Config struct {
	// Scale multiplies workload sizes; 1 is a CI-friendly quick run,
	// 3-5 approaches paper-scale runtimes.
	Scale int
	// Browsers to sweep; defaults to the paper's five (Figure 3).
	Browsers []browser.Profile
	// Timeslice for the Doppio execution environment.
	Timeslice time.Duration
	// DisableEngineTax turns off the per-browser JS-engine speed
	// model (DESIGN.md substitution).
	DisableEngineTax bool
	// Telemetry, when non-nil, instruments every run: the window's
	// event loop, the core runtime, the JVM, and the VFS backend all
	// report into this hub, and a hub with a Profiler folds every
	// Doppio-engine run into that one profile. Corpus seeding happens
	// before the hub is attached to the event loop, so
	// dispatch/responsiveness metrics cover only the measured workload
	// (backend op histograms do include seeding traffic — it is
	// genuine backend I/O).
	Telemetry *telemetry.Hub
	// Seed picks the arm that leads each A/B's first pair and seeds
	// the fault sequence and retry jitter of the fsfaults A/B.
	Seed int64
	// Ops, when non-nil, has each Doppio run register itself as an
	// inspectable source, so the live endpoints (/debug/threads,
	// /debug/vfs, ...) can see the workload while it executes.
	Ops *ops.Server
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if len(c.Browsers) == 0 {
		c.Browsers = browser.Population()
	}
	return c
}

// WorkloadSpec describes one benchmark program.
type WorkloadSpec struct {
	ID   string // "deltablue", ...
	Main string
	// Args produces command-line arguments for a scale level.
	Args func(scale int) []string
	// Corpus selects the file tree the workload reads: "", "classes"
	// (the compiled class corpus under /classes) or "sources" (the
	// workload sources under /src).
	Corpus string
}

// Fig3Workloads are the paper's four macro benchmarks (§7.1) in
// presentation order, each mapped to its substitute (DESIGN.md).
var Fig3Workloads = []WorkloadSpec{
	{ID: "disasm (javap)", Main: "Disasm", Corpus: "classes",
		Args: func(s int) []string { return []string{"/classes"} }},
	{ID: "mjparse (javac)", Main: "MJParse", Corpus: "sources",
		Args: func(s int) []string { return []string{"/src"} }},
	{ID: "miniscript (Rhino)", Main: "MiniScript",
		Args: func(s int) []string { return []string{fmt.Sprint(3 + s)} }},
	{ID: "scheme (Kawa)", Main: "SchemeMain",
		Args: func(s int) []string { return []string{fmt.Sprint(min(5+s, 8))} }},
}

// MicroWorkloads are the Figure 4/5 microbenchmarks.
var MicroWorkloads = []WorkloadSpec{
	{ID: "DeltaBlue", Main: "DeltaBlue",
		Args: func(s int) []string { return []string{fmt.Sprint(2 * s)} }},
	{ID: "pidigits", Main: "PiDigits",
		Args: func(s int) []string { return []string{fmt.Sprint(40 * s)} }},
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// corpusFiles materializes a corpus as path→bytes. The class corpus
// is capped proportionally to scale so quick runs stay quick; the
// paper-scale run (scale ≥ 5) disassembles everything.
func corpusFiles(which string, scale int) (map[string][]byte, error) {
	out := make(map[string][]byte)
	switch which {
	case "":
	case "classes":
		classes, err := workloads.Classes()
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, len(classes))
		for name := range classes {
			names = append(names, name)
		}
		sort.Strings(names)
		limit := 8 * scale
		if scale >= 5 || limit > len(names) {
			limit = len(names)
		}
		for _, name := range names[:limit] {
			out["/classes/"+strings.ReplaceAll(name, "/", "_")+".class"] = classes[name]
		}
	case "sources":
		srcs := workloads.Sources()
		names := make([]string, 0, len(srcs))
		for name := range srcs {
			names = append(names, name)
		}
		sort.Strings(names)
		limit := 2 * scale
		if scale >= 5 || limit > len(names) {
			limit = len(names)
		}
		for _, name := range names[:limit] {
			out["/src/"+strings.ReplaceAll(name, "/", "_")] = []byte(srcs[name])
		}
	default:
		return nil, fmt.Errorf("bench: unknown corpus %q", which)
	}
	return out, nil
}

// RunNative executes a workload on the native baseline engine,
// returning the wall-clock time and program output.
func RunNative(spec WorkloadSpec, scale int) (time.Duration, string, error) {
	classes, err := workloads.Classes()
	if err != nil {
		return 0, "", err
	}
	files, err := corpusFiles(spec.Corpus, scale)
	if err != nil {
		return 0, "", err
	}
	hostFS := jvm.NewMemHostFS()
	for p, d := range files {
		hostFS.Put(p, d)
	}
	var stdout bytes.Buffer
	vm := jvm.NewNativeVM(jvm.MapProvider(classes), jvm.NativeOptions{
		Stdout: &stdout, Stderr: &stdout, FS: hostFS,
	})
	start := time.Now()
	err = vm.RunMain(spec.Main, spec.Args(scale))
	return time.Since(start), stdout.String(), err
}

// DoppioRun captures one Doppio-engine execution.
type DoppioRun struct {
	Wall        time.Duration
	CPU         time.Duration
	Suspended   time.Duration
	Suspensions int
	// Instructions is the executed bytecode count.
	Instructions int64
	Output       string
}

// RunDoppio executes a workload on the Doppio engine inside the given
// browser profile, with the workload's corpus seeded into the Doppio
// file system (in-memory backend) beforehand.
func RunDoppio(spec WorkloadSpec, scale int, profile browser.Profile, cfg Config) (*DoppioRun, error) {
	classes, err := workloads.Classes()
	if err != nil {
		return nil, err
	}
	files, err := corpusFiles(spec.Corpus, scale)
	if err != nil {
		return nil, err
	}
	env := fleet.NewEnv(profile, nil)
	win := env.Win
	root := vfs.Instrument(vfs.NewInMemory(), cfg.Telemetry)
	fs := env.NewFS(root)

	// Seed the corpus before timing starts.
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	if err := fleet.Drive(win.Loop, "seed", func(done func(error)) {
		var seed func(i int)
		seed = func(i int) {
			if i == len(paths) {
				done(nil)
				return
			}
			p := paths[i]
			dir := p[:strings.LastIndexByte(p, '/')]
			if dir == "" {
				dir = "/"
			}
			fs.MkdirAll(dir, func(err error) {
				if err != nil {
					done(err)
					return
				}
				fs.WriteFile(p, files[p], func(err error) {
					if err != nil {
						done(err)
						return
					}
					seed(i + 1)
				})
			})
		}
		seed(0)
	}); err != nil {
		return nil, err
	}
	if cfg.Telemetry != nil {
		win.EnableTelemetry(cfg.Telemetry)
	}

	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		FS:               &jvm.VFSHostFS{FS: fs},
		Timeslice:        cfg.Timeslice,
		DisableEngineTax: cfg.DisableEngineTax,
	})
	if cfg.Ops != nil {
		cfg.Ops.Register(ops.Source{
			Name:    spec.ID + " @ " + profile.Name,
			Loop:    win.Loop,
			Runtime: vm.Runtime(),
			Backend: root,
			Heap:    vm.Heap(),
			JVM:     []ops.JVMEngine{{Engine: "doppio", Stats: vm}},
		})
	}
	start := time.Now()
	if err := vm.RunMain(spec.Main, spec.Args(scale)); err != nil {
		return nil, fmt.Errorf("%s on %s: %w\n%s", spec.ID, profile.Name, err, stdout.String())
	}
	wall := time.Since(start)
	st := vm.Runtime().Stats()
	return &DoppioRun{
		Wall:         wall,
		CPU:          st.CPUTime,
		Suspended:    st.SuspendedTime,
		Suspensions:  st.Suspensions,
		Instructions: vm.Instructions,
		Output:       stdout.String(),
	}, nil
}

// runJVM runs main once on a fresh VM in win. The sample carries wall
// time, scheduler CPU time (thread execution only: where an
// observer's cost lands, free of the timer jitter that dominates wall
// on a workload that suspends often) and stdout as the output. A
// *firstWrite stdout is timed from the same start as wall time.
func runJVM(win *browser.Window, opts jvm.DoppioOptions, main string, args []string) (Sample, *jvm.DoppioVM, error) {
	var stdout strings.Builder
	fw, _ := opts.Stdout.(*firstWrite)
	if opts.Stdout != nil {
		opts.Stdout = io.MultiWriter(&stdout, opts.Stdout)
	} else {
		opts.Stdout = &stdout
	}
	vm := jvm.NewDoppioVM(win, opts)
	start := time.Now()
	if fw != nil {
		fw.start = start
	}
	if err := vm.RunMain(main, args); err != nil {
		return Sample{}, nil, fmt.Errorf("%s: %w\n%s", main, err, stdout.String())
	}
	return Sample{
		Metrics: map[string]float64{
			"wall_ns": float64(time.Since(start)),
			"cpu_ns":  float64(vm.Runtime().Stats().CPUTime),
		},
		Output: stdout.String(),
	}, vm, nil
}
