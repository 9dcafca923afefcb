// dsh is the Doppio shell: a Unix-flavored front end for the process
// layer. Every command is a pipeline of guest processes — MiniC
// stages on minic VMs, MiniJava stages on Doppio JVMs — bridged by
// in-kernel pipes over a shared virtual file system.
//
//	dsh                               # interactive
//	dsh -c 'seq 20 | jgrep 7 | wc'    # one-shot; exits with the status
//	dsh -ops :6060                    # serve /debug/proc etc. while running
//
// Several commands may be chained with ';' in -c mode.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"doppio/internal/browser"
	"doppio/internal/core"
	"doppio/internal/fleet"
	opspkg "doppio/internal/ops"
	"doppio/internal/proc"
	"doppio/internal/shell"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

func main() {
	cmd := flag.String("c", "", "run this command line (';'-separated) and exit with its status")
	browserName := flag.String("browser", "Chrome 28", "browser profile")
	opsAddr := flag.String("ops", "", "serve the live ops endpoints on this address (e.g. :6060)")
	profFlag := flag.Bool("prof", false, "enable the guest sampling profiler across every process the shell spawns; prints the hot methods at exit")
	profOut := flag.String("prof-out", "", "write the guest CPU profile here at exit (.pb.gz = pprof protobuf, .json = snapshot, else collapsed stacks); implies -prof")
	flag.Parse()

	profile, ok := browser.ByName(*browserName)
	if !ok {
		fmt.Fprintf(os.Stderr, "dsh: unknown browser %q\n", *browserName)
		os.Exit(2)
	}
	hub := telemetry.NewHub().EnableFlight(0)
	if *profFlag || *profOut != "" {
		// One profiler for the whole process tree: every pipeline stage
		// the kernel spawns — MiniC or JVM — reports into the window's
		// hub and folds into its profiler.
		hub.EnableProfiling()
	}
	win := fleet.NewEnv(profile, hub).Win
	k := proc.NewKernel(win, vfs.NewInMemory())
	sh, err := shell.New(k, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *opsAddr != "" {
		srv := opspkg.NewServer(hub)
		srv.Register(opspkg.Source{
			Name:    "dsh",
			Loop:    win.Loop,
			Backend: k.Root(),
			Proc:    k,
		})
		addr, err := srv.Serve(*opsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsh: ops:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dsh: ops server on http://%s (try /debug/proc)\n", addr)
	}

	start := time.Now()
	dumpProf := func() {
		hub.Profiler.ReportAtExit(os.Stderr, "dsh", *profOut, time.Since(start))
	}

	var last int32
	if *cmd != "" {
		lines := splitCommands(*cmd)
		if err := fleet.Drive(win.Loop, "dsh-c", func(done func(error)) {
			var runAt func(i int)
			runAt = func(i int) {
				if i == len(lines) {
					done(nil)
					return
				}
				sh.Run(lines[i], func(status int32) {
					last = status
					if exited, code := sh.Exited(); exited {
						last = code
						done(nil)
						return
					}
					runAt(i + 1)
				})
			}
			runAt(0)
		}); err != nil {
			dumpProf()
			fmt.Fprintln(os.Stderr, "dsh:", err)
			os.Exit(1)
		}
		dumpProf()
		os.Exit(int(last))
	}

	// Interactive: read a line off the host's stdin (a goroutine feeds
	// it back through a labelled Completion, holding the loop's pending
	// slot), run it, prompt again. EOF or the exit builtin ends the
	// session.
	reader := bufio.NewReader(os.Stdin)
	if err := fleet.Drive(win.Loop, "dsh-repl", func(done func(error)) {
		var repl func()
		repl = func() {
			fmt.Fprint(os.Stdout, "dsh$ ")
			c := core.NewCompletion(win.Loop, "dsh.stdin")
			c.Then(func(v interface{}, err error) {
				line, _ := v.(string)
				if err != nil && line == "" {
					fmt.Fprintln(os.Stdout)
					done(nil) // EOF: the loop drains and dsh exits
					return
				}
				sh.Run(strings.TrimRight(line, "\r\n"), func(status int32) {
					last = status
					if exited, code := sh.Exited(); exited {
						last = code
						done(nil)
						return
					}
					repl()
				})
			})
			resolve := c.Resolver()
			go func() {
				line, err := reader.ReadString('\n')
				resolve(line, err)
			}()
		}
		repl()
	}); err != nil {
		dumpProf()
		fmt.Fprintln(os.Stderr, "dsh:", err)
		os.Exit(1)
	}
	dumpProf()
	os.Exit(int(last))
}

// splitCommands splits a -c argument on ';' (quotes are respected by
// the shell's own tokenizer, but ';' never appears inside dsh quoting
// in practice — keep the split simple).
func splitCommands(s string) []string {
	parts := strings.Split(s, ";")
	out := parts[:0]
	for _, p := range parts {
		if strings.TrimSpace(p) != "" {
			out = append(out, p)
		}
	}
	return out
}
