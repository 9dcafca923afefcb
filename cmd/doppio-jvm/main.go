// doppio-jvm runs a JVM program on DoppioJVM inside a simulated
// browser window — the paper's in-browser JVM (§6). Sources are
// compiled with the bundled MiniJava compiler; class files from -cp
// directories are loaded as-is.
//
//	doppio-jvm -browser "IE 10" -src prog.mj Main arg1 arg2
//	doppio-jvm -cp classes/ Main
//	doppio-jvm -ops :6060 -src prog.mj Main    # live ops endpoints
//
// When the program deadlocks, the watchdog kills a runaway task, or
// stall detection (-stall-budget) trips, doppio-jvm emits a
// jstack-style post-mortem — per-thread state with the Completion
// label each blocked thread waits on, run-queue depths, the
// unmanaged-heap free list, and the flight-recorder tail — to stderr,
// and as JSON to the -postmortem path if given. SIGINT/SIGTERM dump
// the same report for a live (hung but not yet failed) run.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"doppio/internal/browser"
	"doppio/internal/eventloop"
	"doppio/internal/jvm"
	"doppio/internal/jvm/rt"
	"doppio/internal/ops"
	"doppio/internal/telemetry"
)

func main() {
	browserName := flag.String("browser", "Chrome 28", "browser profile (see -list)")
	srcFlag := flag.String("src", "", "comma-separated .mj sources to compile and run")
	cpFlag := flag.String("cp", "", "comma-separated directories of .class files")
	list := flag.Bool("list", false, "list browser profiles")
	tax := flag.Bool("enginetax", false, "model the browser's JS-engine speed")
	quicken := flag.Bool("jvm-quicken", false, "enable the interpreter speed tier: quickened bytecodes, inline caches, superinstructions")
	stats := flag.Bool("stats", false, "print runtime statistics after execution")
	timeslice := flag.Duration("timeslice", 10*time.Millisecond, "Doppio timeslice")
	metrics := flag.Bool("metrics", false, "print the telemetry metrics snapshot after execution")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file (open in chrome://tracing)")
	traceMethods := flag.Bool("trace-methods", false, "record a trace span per method invocation (with -trace; verbose)")
	traceCap := flag.Int("trace-cap", 0, "trace-event retention cap for -trace (0 = default 262144; negative = unlimited); overflow drops oldest events, counted in telemetry.trace_dropped")
	opsAddr := flag.String("ops", "", "serve the live ops endpoints (/metrics, /debug/threads, pprof, ...) on this address, e.g. :6060")
	flightCap := flag.Int("flight", 0, "enable the flight recorder with this event capacity (0 disables; -ops and -postmortem enable it at the default capacity)")
	postmortem := flag.String("postmortem", "", "write the automatic post-mortem report as JSON to this path (text always goes to stderr)")
	stallBudget := flag.Duration("stall-budget", 0, "responsiveness budget per macrotask; exceeded -stall-count times in a row triggers a post-mortem (0 disables)")
	stallCount := flag.Int("stall-count", 3, "consecutive over-budget macrotasks before -stall-budget trips")
	profFlag := flag.Bool("prof", false, "enable the guest sampling profiler (CPU, alloc, contention); serves /debug/profile and /debug/guest-pprof with -ops, prints the hot methods at exit")
	profOut := flag.String("prof-out", "", "write the guest CPU profile here at exit (.pb.gz = pprof protobuf, .json = snapshot, else collapsed stacks); implies -prof")
	flag.Parse()

	if *list {
		for _, p := range browser.All() {
			fmt.Printf("%-14s typedArrays=%v setImmediate=%v engineFactor=%.1f\n",
				p.Name, p.HasTypedArrays, p.HasSetImmediate, p.EngineFactor)
		}
		return
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: doppio-jvm [-browser name] [-src a.mj,b.mj | -cp dir] Main [args...]")
		os.Exit(2)
	}
	mainClass := flag.Arg(0)
	args := flag.Args()[1:]

	classes := map[string][]byte{}
	if *srcFlag != "" {
		sources := map[string]string{}
		for _, path := range strings.Split(*srcFlag, ",") {
			data, err := os.ReadFile(path)
			if err != nil {
				fatal(err)
			}
			sources[path] = string(data)
		}
		compiled, err := rt.CompileWith(sources)
		if err != nil {
			fatal(err)
		}
		classes = compiled
	} else {
		rtClasses, err := rt.Classes()
		if err != nil {
			fatal(err)
		}
		for k, v := range rtClasses {
			classes[k] = v
		}
	}
	if *cpFlag != "" {
		for _, dir := range strings.Split(*cpFlag, ",") {
			err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
				if err != nil || info.IsDir() || !strings.HasSuffix(path, ".class") {
					return err
				}
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				rel, _ := filepath.Rel(dir, path)
				name := strings.TrimSuffix(filepath.ToSlash(rel), ".class")
				classes[name] = data
				return nil
			})
			if err != nil {
				fatal(err)
			}
		}
	}

	profile, ok := browser.ByName(*browserName)
	if !ok {
		fatal(fmt.Errorf("unknown browser %q (try -list)", *browserName))
	}
	win := browser.NewWindow(profile)
	diagnosing := *opsAddr != "" || *flightCap > 0 || *postmortem != "" || *stallBudget > 0
	profiling := *profFlag || *profOut != ""
	var hub *telemetry.Hub
	if *metrics || *tracePath != "" || diagnosing || profiling {
		hub = telemetry.NewHub()
		if *tracePath != "" {
			hub.EnableTracing()
			hub.Tracer.SetEventCap(*traceCap)
		}
		if *flightCap > 0 {
			hub.EnableFlight(*flightCap)
		} else if diagnosing {
			// Every diagnostics path wants the black box.
			hub.EnableFlight(telemetry.DefaultFlightCapacity)
		}
		if profiling {
			hub.EnableProfiling()
		}
		hub.MethodSpans = *traceMethods
		win.EnableTelemetry(hub)
	}
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           os.Stdout,
		Stderr:           os.Stderr,
		Provider:         jvm.MapProvider(classes),
		Timeslice:        *timeslice,
		DisableEngineTax: !*tax,
		Quicken:          *quicken,
	})
	src := ops.Source{Name: mainClass, Loop: win.Loop, Runtime: vm.Runtime(), Heap: vm.Heap(), JVM: vm}
	emit := func(rep *ops.Report) {
		fmt.Fprint(os.Stderr, rep.Text())
		if *postmortem != "" {
			f, err := os.Create(*postmortem)
			if err == nil {
				err = rep.WriteJSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "doppio-jvm: writing post-mortem:", err)
			} else {
				fmt.Fprintf(os.Stderr, "doppio-jvm: post-mortem written to %s\n", *postmortem)
			}
		}
	}
	if *opsAddr != "" {
		srv := ops.NewServer(hub)
		srv.Register(src)
		addr, err := srv.Serve(*opsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "doppio-jvm: ops server on http://%s\n", addr)
	}
	if diagnosing {
		// SIGINT/SIGTERM on a hung run: dump the same report the
		// failure paths produce, then exit. The loop is still running,
		// so collection goes through it (degrading to the flight tail
		// if it is wedged).
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			s := <-sig
			rep, err := ops.CollectOnLoop(hub, src, "signal", s.String(), time.Second)
			if err != nil {
				rep.Detail = err.Error()
			}
			emit(rep)
			os.Exit(130)
		}()
	}
	if *stallBudget > 0 {
		// The callback runs on the loop goroutine, so inline
		// collection is safe; report the first stall only.
		tripped := false
		win.Loop.SetStallMonitor(*stallBudget, *stallCount, func(ev eventloop.StallEvent) {
			if tripped {
				return
			}
			tripped = true
			detail := fmt.Sprintf("macrotask %q ran %v (budget %v) %d times in a row",
				ev.Label, ev.Elapsed.Round(time.Microsecond), ev.Budget, ev.Consecutive)
			emit(ops.Collect(hub, src, "stall", detail))
		})
	}
	start := time.Now()
	dumpProf := func(elapsed time.Duration) {
		if hub != nil {
			hub.Profiler.ReportAtExit(os.Stderr, "doppio-jvm", *profOut, elapsed)
		}
	}
	if err := vm.RunMain(mainClass, args); err != nil {
		// The loop has returned, so inline collection is safe here.
		if _, isWatchdog := err.(*eventloop.WatchdogError); isWatchdog {
			emit(ops.Collect(hub, src, "watchdog", err.Error()))
		} else if strings.Contains(err.Error(), "deadlock") {
			emit(ops.Collect(hub, src, "deadlock", err.Error()))
		}
		dumpProf(time.Since(start))
		fatal(err)
	}
	dumpProf(time.Since(start))
	if *stats {
		st := vm.Runtime().Stats()
		fmt.Fprintf(os.Stderr, "doppio-jvm: %s: %d bytecodes in %v; %d suspensions (%v suspended) via %s; %d classes loaded\n",
			profile.Name, vm.Instructions, time.Since(start).Round(time.Millisecond),
			st.Suspensions, st.SuspendedTime.Round(time.Millisecond),
			vm.Runtime().Mechanism(), vm.Reg.Loaded())
		if *quicken {
			q := vm.QuickStats()
			fmt.Fprintf(os.Stderr, "doppio-jvm: quickening: %d sites, %d IC hits, %d IC misses, %d deopts, %d fusions, %d fused executions\n",
				q.Sites, q.ICHits, q.ICMisses, q.Deopts, q.Fusions, q.FusedExec)
		}
	}
	if hub != nil {
		if *metrics {
			// Stderr, so the program's stdout stays clean.
			fmt.Fprint(os.Stderr, hub.Registry.Snapshot().Format())
		}
		if *tracePath != "" {
			if err := hub.Tracer.WriteFile(*tracePath); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "doppio-jvm: trace written to %s\n", *tracePath)
		}
	}
	os.Exit(int(vm.ExitCode()))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doppio-jvm:", err)
	os.Exit(1)
}
