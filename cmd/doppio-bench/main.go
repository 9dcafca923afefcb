// doppio-bench regenerates the paper's tables and figures (§7).
//
//	doppio-bench -all                 # everything at quick scale
//	doppio-bench -fig3 -scale 3       # closer to paper scale
//	doppio-bench -table1 -table2
//	doppio-bench -resp                # §7.1.3 responsiveness report
//	doppio-bench -metrics -trace t.json   # instrumented default pass
//	doppio-bench -fig3 -ops :6060     # live ops endpoints while it runs
//	doppio-bench -ab sched,fscache -out /tmp -check   # A/Bs, gated
//
// With -metrics and/or -trace but no figure selected, a default
// telemetry pass runs: the disasm workload through DoppioJVM plus a
// small file system trace replay, both fully instrumented. SIGINT or
// SIGTERM dumps the metrics snapshot and closes the trace file before
// exiting.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"doppio/internal/bench"
	"doppio/internal/browser"
	"doppio/internal/fleet"
	"doppio/internal/fstrace"
	"doppio/internal/ops"
	gprof "doppio/internal/profile"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

func main() {
	fig3 := flag.Bool("fig3", false, "macro benchmarks: DoppioJVM vs native (Figure 3)")
	fig45 := flag.Bool("fig45", false, "microbenchmarks + suspension (Figures 4 and 5)")
	fig6 := flag.Bool("fig6", false, "file system trace replay (Figure 6)")
	table1 := flag.Bool("table1", false, "feature matrix with live probes (Table 1)")
	table2 := flag.Bool("table2", false, "storage mechanisms (Table 2)")
	resp := flag.Bool("resp", false, "responsiveness report: longest event-loop pause per workload (§7.1.3)")
	all := flag.Bool("all", false, "run everything")
	scale := flag.Int("scale", 1, "workload scale (>=5 is paper scale)")
	browsersFlag := flag.String("browsers", "", "comma-separated browser names (default: the paper's five)")
	noTax := flag.Bool("noenginetax", false, "disable the JS-engine speed model")
	metrics := flag.Bool("metrics", false, "print the telemetry metrics snapshot on exit")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file (open in chrome://tracing)")
	opsAddr := flag.String("ops", "", "serve the live ops endpoints (/metrics, /debug/threads, pprof, ...) on this address, e.g. :6060")
	flightCap := flag.Int("flight", 0, "enable the flight recorder with this event capacity (0 disables; -ops enables it at the default capacity)")
	traceCap := flag.Int("trace-cap", 0, "trace-event retention cap for -trace (0 = default 262144; negative = unlimited); overflow drops oldest events, counted in telemetry.trace_dropped")
	profFlag := flag.Bool("prof", false, "attach the guest sampling profiler to every Doppio-engine run; prints the hot methods at exit")
	profPath := flag.String("prof-out", "", "write the guest CPU profile here at exit (.pb.gz = pprof protobuf, .json = snapshot, else collapsed stacks); implies -prof")
	abFlag := flag.String("ab", "", "run these A/Bs, comma-separated ("+strings.Join(abNames(), ", ")+"); each writes BENCH_<name>.json to -out")
	outDir := flag.String("out", ".", "directory for the -ab reports")
	check := flag.Bool("check", false, "exit nonzero if any check of an -ab report failed")
	seed := flag.Int64("seed", 42, "-ab seed: picks the arm that leads the first pair and seeds fault sequences and retry jitter")
	flag.Parse()

	var hub *telemetry.Hub
	if *metrics || *tracePath != "" || *opsAddr != "" || *flightCap > 0 {
		hub = telemetry.NewHub()
		if *tracePath != "" {
			hub.EnableTracing()
			hub.Tracer.SetEventCap(*traceCap)
		}
		if *flightCap > 0 {
			hub.EnableFlight(*flightCap)
		} else if *opsAddr != "" {
			// The ops endpoints are the flight ring's consumer; a
			// black box costs too little to leave off here.
			hub.EnableFlight(telemetry.DefaultFlightCapacity)
		}
	}
	var abs []string
	if *abFlag != "" {
		abs = strings.Split(*abFlag, ",")
		for _, name := range abs {
			if bench.ABs[name] == nil {
				fmt.Fprintf(os.Stderr, "doppio-bench: unknown A/B %q (have %s)\n", name, strings.Join(abNames(), ", "))
				os.Exit(2)
			}
		}
	}
	anyFigure := *fig3 || *fig45 || *fig6 || *table1 || *table2 || *resp || *all || len(abs) > 0
	if !anyFigure && hub == nil && !*profFlag && *profPath == "" {
		// -prof alone runs the instrumented default pass, like -metrics.
		flag.Usage()
		os.Exit(2)
	}
	cfg := bench.Config{Scale: *scale, DisableEngineTax: *noTax, Telemetry: hub, Seed: *seed}
	var guestProf *gprof.Profiler
	if *profFlag || *profPath != "" {
		guestProf = gprof.New(gprof.Options{})
		cfg.Profiler = guestProf
	}
	var opsSrv *ops.Server
	if *opsAddr != "" {
		opsSrv = ops.NewServer(hub)
		addr, err := opsSrv.Serve(*opsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "doppio-bench: ops server on http://%s\n", addr)
		cfg.Ops = opsSrv
	}
	if *browsersFlag != "" {
		for _, name := range strings.Split(*browsersFlag, ",") {
			p, ok := browser.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "doppio-bench: unknown browser %q\n", name)
				os.Exit(2)
			}
			cfg.Browsers = append(cfg.Browsers, p)
		}
	}

	// On SIGINT/SIGTERM (and on the normal exit path) dump the metrics
	// snapshot and close the trace file exactly once.
	benchStart := time.Now()
	var finishOnce sync.Once
	var finishErr error
	finish := func() {
		finishOnce.Do(func() {
			if guestProf != nil {
				if *profPath != "" {
					if err := guestProf.Snapshot(gprof.CPU).WriteFile(*profPath, time.Since(benchStart)); err != nil {
						fmt.Fprintln(os.Stderr, "doppio-bench: writing profile:", err)
					} else {
						fmt.Fprintf(os.Stderr, "doppio-bench: guest profile written to %s\n", *profPath)
					}
				} else {
					fmt.Fprintf(os.Stderr, "doppio-bench: guest hot methods (%d cpu samples):\n%s",
						guestProf.Samples(), gprof.FormatTop(guestProf.Snapshot(gprof.CPU), 10))
				}
			}
			if hub == nil {
				return
			}
			if *metrics {
				fmt.Print(hub.Registry.Snapshot().Format())
			}
			if *tracePath != "" {
				if err := hub.Tracer.WriteFile(*tracePath); err != nil {
					finishErr = err
					fmt.Fprintln(os.Stderr, "doppio-bench: writing trace:", err)
				} else {
					fmt.Printf("trace written to %s\n", *tracePath)
				}
			}
		})
	}
	if hub != nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			s := <-sig
			fmt.Fprintf(os.Stderr, "doppio-bench: %v: dumping telemetry\n", s)
			// Thread dumps first (they need the still-running loops),
			// then the flight tail, then the metrics/trace files.
			if opsSrv != nil {
				for _, rep := range opsSrv.Reports("signal") {
					fmt.Fprint(os.Stderr, rep.Text())
				}
			} else if hub.Flight != nil {
				fmt.Fprint(os.Stderr, telemetry.FormatFlight(hub.Flight.Tail(50)))
			}
			finish()
			os.Exit(130)
		}()
	}

	if *all || *table1 {
		fmt.Println(bench.FormatTable1(bench.Table1()))
	}
	if *all || *table2 {
		fmt.Println(bench.FormatTable2(bench.Table2()))
	}
	if *all || *fig3 {
		start := time.Now()
		res, err := bench.RunFig3(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatFig3(res))
		fmt.Printf("(figure 3 sweep took %v)\n\n", time.Since(start).Round(time.Second))
	}
	if *all || *fig45 {
		rows, err := bench.RunFig45(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatFig45(rows))
	}
	if *all || *fig6 {
		params := fstrace.PaperParams()
		if *scale < 3 {
			// Quick runs replay a proportionally smaller trace.
			params = fstrace.GenerateParams{
				Ops:          3185 * *scale / 3,
				UniqueFiles:  1560 * *scale / 3,
				BytesRead:    10_500_000 * *scale / 3,
				BytesWritten: 97_000 * *scale / 3,
			}
		}
		rows, err := bench.RunFig6(cfg, params)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatFig6(rows))
	}
	if *all || *resp {
		rows, err := bench.RunResponsiveness(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatResponsiveness(rows))
	}
	for _, name := range abs {
		rep, err := bench.ABs[name](cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.Format())
		path := filepath.Join(*outDir, "BENCH_"+name+".json")
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		if err := rep.WriteFile(path); err != nil {
			fatal(err)
		}
		fmt.Printf("%s report written to %s\n\n", name, path)
		if failed := rep.Failed(); *check && len(failed) > 0 {
			finishErr = fmt.Errorf("%s: %d of %d checks failed", name, len(failed), len(rep.Checks))
			fmt.Fprintln(os.Stderr, "doppio-bench:", finishErr)
		}
	}
	if !anyFigure {
		if err := runTelemetryPass(cfg); err != nil {
			fatal(err)
		}
	}
	finish()
	if finishErr != nil {
		os.Exit(1)
	}
}

// runTelemetryPass exercises the instrumented runtime when no figure
// was requested: the disasm workload (which reads its class corpus
// through the VFS) on one browser profile, then a small file system
// trace replay. Together they populate event-loop dispatch latencies,
// per-backend VFS op latencies, JVM opcode counts, and fstrace per-op
// histograms in cfg.Telemetry.
func runTelemetryPass(cfg bench.Config) error {
	profile := browser.Chrome28
	if len(cfg.Browsers) > 0 {
		profile = cfg.Browsers[0]
	}
	spec := bench.Fig3Workloads[0]
	run, err := bench.RunDoppio(spec, cfg.Scale, profile, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("telemetry pass: %s on %s: %d bytecodes in %v\n",
		spec.ID, profile.Name, run.Instructions, run.Wall.Round(time.Millisecond))

	trace := fstrace.Generate(fstrace.GenerateParams{
		Ops: 400, UniqueFiles: 120, BytesRead: 600_000, BytesWritten: 8_000,
	})
	env := fleet.NewEnv(profile, cfg.Telemetry)
	fs := env.NewFS(vfs.Instrument(vfs.NewInMemory(), cfg.Telemetry))
	var okOps int
	if err := fleet.Drive(env.Win.Loop, "fstrace", func(done func(error)) {
		fstrace.SeedVFS(fs, trace, func(err error) {
			if err != nil {
				done(err)
				return
			}
			fstrace.ReplayVFSWith(env.Win.Loop, fs, trace, cfg.Telemetry, func(ok int, err error) {
				okOps = ok
				done(err)
			})
		})
	}); err != nil {
		return err
	}
	fmt.Printf("telemetry pass: fstrace replay completed %d/%d ops\n", okOps, len(trace.Ops))
	return nil
}

// abNames lists the A/Bs -ab accepts.
func abNames() []string {
	names := make([]string, 0, len(bench.ABs))
	for name := range bench.ABs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doppio-bench:", err)
	os.Exit(1)
}
