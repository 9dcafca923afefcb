// doppio-native runs a JVM program on the native baseline engine —
// the reproduction's HotSpot-interpreter analog used as the Figure 3/4
// comparison point.
//
//	doppio-native -src prog.mj Main [args...]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"doppio/internal/jvm"
	"doppio/internal/jvm/rt"
	"doppio/internal/telemetry"
)

func main() {
	srcFlag := flag.String("src", "", "comma-separated .mj sources to compile and run")
	cpFlag := flag.String("cp", "", "comma-separated directories of .class files")
	stats := flag.Bool("stats", false, "print statistics after execution")
	quicken := flag.Bool("jvm-quicken", false, "enable the interpreter speed tier: quickened bytecodes, inline caches, superinstructions")
	profFlag := flag.Bool("prof", false, "enable the guest sampling profiler; prints the hot methods at exit")
	profOut := flag.String("prof-out", "", "write the guest CPU profile here at exit (.pb.gz = pprof protobuf, .json = snapshot, else collapsed stacks); implies -prof")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: doppio-native [-src a.mj | -cp dir] Main [args...]")
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
				classes[strings.TrimSuffix(filepath.ToSlash(rel), ".class")] = data
				return nil
			})
			if err != nil {
				fatal(err)
			}
		}
	}

	var hub *telemetry.Hub
	if *profFlag || *profOut != "" {
		hub = telemetry.NewHub().EnableProfiling()
	}
	vm := jvm.NewNativeVM(jvm.MapProvider(classes), jvm.NativeOptions{
		Stdout: os.Stdout, Stderr: os.Stderr, Stdin: os.Stdin,
		Quicken:   *quicken,
		Telemetry: hub,
	})
	start := time.Now()
	runErr := vm.RunMain(mainClass, args)
	if hub != nil {
		hub.Profiler.ReportAtExit(os.Stderr, "doppio-native", *profOut, time.Since(start))
	}
	if runErr != nil {
		fatal(runErr)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "doppio-native: %d bytecodes in %v; %d classes loaded\n",
			vm.Instructions, time.Since(start).Round(time.Millisecond), vm.Reg.Loaded())
	}
	os.Exit(int(vm.ExitCode()))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doppio-native:", err)
	os.Exit(1)
}
