package shell_test

import (
	"bytes"
	"strings"
	"testing"

	"doppio/internal/browser"
	"doppio/internal/proc"
	"doppio/internal/profile"
	"doppio/internal/shell"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

// newShell builds a kernel + shell on an in-memory VFS. Compiling the
// embedded userland (notably the MiniJava half) is the slow part, so
// tests share one shell where they can.
func newShell(t *testing.T) (*shell.Shell, *browser.Window, *bytes.Buffer) {
	t.Helper()
	win := browser.NewWindow(browser.Chrome28)
	win.EnableTelemetry(telemetry.NewHub().EnableFlight(0))
	k := proc.NewKernel(win, vfs.NewInMemory())
	var out bytes.Buffer
	sh, err := shell.New(k, &out)
	if err != nil {
		t.Fatal(err)
	}
	return sh, win, &out
}

// run executes one command line to completion and returns its status.
func run(t *testing.T, sh *shell.Shell, win *browser.Window, line string) int32 {
	t.Helper()
	var status int32 = -1
	fired := false
	win.Loop.Post("dsh-test", func() {
		sh.Run(line, func(code int32) {
			status = code
			fired = true
		})
	})
	if err := win.Loop.Run(); err != nil {
		t.Fatalf("%q: loop: %v", line, err)
	}
	if !fired {
		t.Fatalf("%q: pipeline never completed", line)
	}
	return status
}

func TestEchoAndStatus(t *testing.T) {
	sh, win, out := newShell(t)
	if code := run(t, sh, win, `echo hello doppio world`); code != 0 {
		t.Fatalf("status = %d", code)
	}
	if got := out.String(); got != "hello doppio world\n" {
		t.Errorf("out = %q", got)
	}
}

func TestMinicPipelineSeqGrepWc(t *testing.T) {
	sh, win, out := newShell(t)
	// 1..20 contains "7" in 7 and 17.
	if code := run(t, sh, win, `seq 20 | grep 7 | wc`); code != 0 {
		t.Fatalf("status = %d", code)
	}
	if got := strings.TrimSpace(out.String()); got != "2 2 5" {
		t.Errorf("wc = %q, want \"2 2 5\" (2 lines, 2 words, 5 bytes)", got)
	}
}

// TestProfiledPipelineFoldsBothRuntimes runs dsh -prof's pipeline
// shape under a profiled hub: the MiniC seq and wc stages and the JVM
// jgrep stage all fold into the window's one profile.
func TestProfiledPipelineFoldsBothRuntimes(t *testing.T) {
	win := browser.NewWindow(browser.Chrome28)
	hub := telemetry.NewHub().EnableProfiling()
	win.EnableTelemetry(hub)
	var out bytes.Buffer
	sh, err := shell.New(proc.NewKernel(win, vfs.NewInMemory()), &out)
	if err != nil {
		t.Fatal(err)
	}
	if code := run(t, sh, win, `seq 200 | jgrep 7 | wc`); code != 0 {
		t.Fatalf("status = %d", code)
	}
	if got := strings.TrimSpace(out.String()); got != "38 38 132" {
		t.Fatalf("wc = %q, want \"38 38 132\"", got)
	}
	sawJVM, sawMinic := false, false
	for _, e := range hub.Profiler.Snapshot(profile.CPU).Entries {
		switch root := e.Stack[0]; {
		case strings.HasPrefix(root, "JGrep.main"):
			sawJVM = true
		case root == "main":
			sawMinic = true
		}
	}
	if !sawJVM || !sawMinic {
		t.Errorf("CPU profile has JGrep frames %v, MiniC main frames %v; want both:\n%+v",
			sawJVM, sawMinic, hub.Profiler.Snapshot(profile.CPU).Entries)
	}
}

// TestMixedJVMAndMinicPipeline is the acceptance pipeline: a MiniC
// cat feeding a JVM grep feeding a MiniC wc, bytes crossing two
// kernel pipes and two VM flavors.
func TestMixedJVMAndMinicPipeline(t *testing.T) {
	sh, win, out := newShell(t)
	if code := run(t, sh, win, `write /data.txt one seven two`); code != 0 {
		t.Fatalf("write status = %d", code)
	}
	run(t, sh, win, `write /more.txt seven eight`)
	out.Reset()

	// cat streams both files; jgrep (JVM) keeps lines containing
	// "seven"; wc (MiniC) counts 2 lines, 5 words, 26 bytes
	// ("one seven two\n" = 14 + "seven eight\n" = 12).
	if code := run(t, sh, win, `cat /data.txt /more.txt | jgrep seven | wc`); code != 0 {
		t.Fatalf("status = %d, out = %q", code, out.String())
	}
	if got := strings.TrimSpace(out.String()); got != "2 5 26" {
		t.Errorf("wc = %q, want \"2 5 26\"", got)
	}
}

func TestExitCodePropagatesFromLastStage(t *testing.T) {
	sh, win, _ := newShell(t)
	// grep with no match exits 1; the pipeline reports the last stage.
	if code := run(t, sh, win, `seq 3 | grep nope`); code != 1 {
		t.Errorf("no-match grep status = %d, want 1", code)
	}
	if code := run(t, sh, win, `seq 3 | jgrep nope`); code != 1 {
		t.Errorf("no-match jgrep status = %d, want 1", code)
	}
}

func TestRedirections(t *testing.T) {
	sh, win, out := newShell(t)
	if code := run(t, sh, win, `seq 1 3 > /nums.txt`); code != 0 {
		t.Fatalf("redirect out status = %d", code)
	}
	out.Reset()
	if code := run(t, sh, win, `jupper < /nums.txt`); code != 0 {
		t.Fatalf("redirect in status = %d", code)
	}
	if got := out.String(); got != "1\n2\n3\n" {
		t.Errorf("jupper out = %q", got)
	}
	out.Reset()
	if code := run(t, sh, win, `wc < /nums.txt > /counts.txt`); code != 0 {
		t.Fatalf("both redirects status = %d", code)
	}
	out.Reset()
	run(t, sh, win, `cat /counts.txt`)
	if got := strings.TrimSpace(out.String()); got != "3 3 6" {
		t.Errorf("counts = %q", got)
	}
}

func TestCommandNotFound(t *testing.T) {
	sh, win, out := newShell(t)
	if code := run(t, sh, win, `frobnicate | wc`); code != 127 {
		t.Errorf("status = %d, want 127", code)
	}
	if !strings.Contains(out.String(), "command not found") {
		t.Errorf("out = %q", out.String())
	}
}

func TestBuiltins(t *testing.T) {
	sh, win, out := newShell(t)
	run(t, sh, win, `pwd`)
	if got := out.String(); got != "/\n" {
		t.Errorf("pwd = %q", got)
	}
	out.Reset()
	run(t, sh, win, `write /d/x.txt hi`)
	if code := run(t, sh, win, `cd /d`); code != 0 {
		t.Skipf("cd unsupported on this backend: %s", out.String())
	}
	out.Reset()
	run(t, sh, win, `pwd`)
	if got := out.String(); got != "/d\n" {
		t.Errorf("pwd after cd = %q", got)
	}

	out.Reset()
	if code := run(t, sh, win, `exit 7`); code != 7 {
		t.Errorf("exit status = %d", code)
	}
	if exited, code := sh.Exited(); !exited || code != 7 {
		t.Errorf("Exited() = %v, %d", exited, code)
	}
}

// TestChildrenInheritCwd: children started after `cd` must resolve
// relative paths against the shell's working directory, not "/" —
// the spawn path passes the shell's cwd through proc.SpawnSpec.Cwd.
func TestChildrenInheritCwd(t *testing.T) {
	sh, win, out := newShell(t)
	run(t, sh, win, `write /d/data.txt seven words here`)
	if code := run(t, sh, win, `cd /d`); code != 0 {
		t.Skipf("cd unsupported on this backend: %s", out.String())
	}
	out.Reset()
	// Relative argv path: cat must find /d/data.txt as "data.txt".
	if code := run(t, sh, win, `cat data.txt`); code != 0 {
		t.Fatalf("cat data.txt after cd: status %d, out %q", code, out.String())
	}
	if got := out.String(); got != "seven words here\n" {
		t.Errorf("cat out = %q", got)
	}
	out.Reset()
	// Through a pipeline too — every stage inherits the cwd.
	if code := run(t, sh, win, `cat data.txt | wc`); code != 0 {
		t.Fatalf("cat | wc after cd: status %d, out %q", code, out.String())
	}
	if got := strings.TrimSpace(out.String()); got != "1 3 17" {
		t.Errorf("wc = %q, want \"1 3 17\"", got)
	}
}

// TestSigpipeTerminatesYes: `yes | wc` would never end if the writer
// ignored its broken pipe. wc sees EOF... never — so instead drive
// `yes` into a dead pipe: spawn the pipeline, kill the reader, and
// the writer must die of SIGPIPE (141), ending the pipeline.
func TestSigpipeTerminatesYes(t *testing.T) {
	sh, win, _ := newShell(t)
	var status int32 = -1
	fired := false
	win.Loop.Post("dsh-test", func() {
		sh.Run(`yes | grep nope`, func(code int32) {
			status = code
			fired = true
		})
		// grep never matches and never exits on its own; kill it once
		// the pipeline is rolling. yes then writes into a closed pipe
		// and dies of SIGPIPE.
		win.Loop.SetTimeout(func() {
			for _, p := range sh.K.Snapshot() {
				if p.Name == "grep" {
					sh.K.Kill(p.PID, proc.SIGKILL)
				}
			}
		}, 2)
	})
	if err := win.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("pipeline never completed")
	}
	// Last stage was SIGKILLed: 128+9.
	if status != proc.SIGKILL.ExitStatus() {
		t.Errorf("status = %d, want %d", status, proc.SIGKILL.ExitStatus())
	}
	// And nothing is left in the table.
	if rows := sh.K.Snapshot(); len(rows) != 0 {
		t.Errorf("process table not empty after pipeline: %+v", rows)
	}
}
