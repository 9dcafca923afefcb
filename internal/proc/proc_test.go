package proc_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"doppio/internal/browser"
	"doppio/internal/minic"
	"doppio/internal/proc"
	"doppio/internal/profile"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

func newKernel(t *testing.T) (*proc.Kernel, *browser.Window) {
	t.Helper()
	win := browser.NewWindow(browser.Chrome28)
	win.EnableTelemetry(telemetry.NewHub().EnableFlight(0))
	return proc.NewKernel(win, vfs.NewInMemory()), win
}

func compileC(t *testing.T, src string) *minic.Program {
	t.Helper()
	prog, err := minic.CompileC(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// TestPipeBackpressureAndEPIPE drives a raw pipe: a writer larger
// than the ring must block until the reader drains; once the reader
// end closes, the blocked writer and every later write fail EPIPE.
func TestPipeBackpressureAndEPIPE(t *testing.T) {
	k, _ := newKernel(t)
	p := k.NewPipe(8)

	var wN int
	var wErr error
	wDone := false
	p.Write([]byte("0123456789abcdef"), func(n int, err error) {
		wN, wErr, wDone = n, err, true
	})
	if wDone {
		t.Fatal("16-byte write into an 8-byte ring completed without a reader")
	}

	// Drain 8 bytes: the freed space absorbs the writer's tail, so the
	// write completes — buffered, pipe-style, not yet read.
	var got []byte
	p.Read(8, func(b []byte, err error) { got = b })
	if string(got) != "01234567" {
		t.Fatalf("first read = %q", got)
	}
	if !wDone || wErr != nil || wN != 16 {
		t.Fatalf("writer done=%v n=%d err=%v, want clean 16 once the tail fits the ring", wDone, wN, wErr)
	}

	// The buffered tail is still there for the reader.
	p.Read(8, func(b []byte, err error) { got = b })
	if string(got) != "89abcdef" {
		t.Fatalf("second read = %q", got)
	}

	// Park another writer, then close the read end: EPIPE, with the
	// already-accepted byte count reported.
	wDone = false
	p.Write(bytes.Repeat([]byte("x"), 12), func(n int, err error) {
		wN, wErr, wDone = n, err, true
	})
	if wDone {
		t.Fatal("oversized writer completed with no reader pending")
	}
	p.CloseRead()
	if !wDone || !vfs.IsErrno(wErr, vfs.EPIPE) {
		t.Fatalf("after CloseRead: done=%v err=%v, want EPIPE", wDone, wErr)
	}
	if wN != 8 {
		t.Errorf("partial write reported %d accepted bytes, want 8 (the ring's worth)", wN)
	}

	// A fresh write against the broken pipe fails immediately.
	var fresh error
	p.Write([]byte("y"), func(_ int, err error) { fresh = err })
	if !vfs.IsErrno(fresh, vfs.EPIPE) {
		t.Fatalf("write after close = %v, want EPIPE", fresh)
	}
}

// TestPipeEOF: readers drain buffered data after the last writer
// closes, then see EOF; line reads flush their partial line.
func TestPipeEOF(t *testing.T) {
	k, _ := newKernel(t)
	p := k.NewPipe(64)
	p.Write([]byte("tail with no newline"), func(int, error) {})
	p.CloseWrite()

	var line []byte
	p.ReadLine(80, func(b []byte, err error) { line = b })
	if string(line) != "tail with no newline" {
		t.Fatalf("line = %q", line)
	}
	var eof error
	p.Read(8, func(_ []byte, err error) { eof = err })
	if eof != io.EOF {
		t.Fatalf("read at end = %v, want io.EOF", eof)
	}
}

// TestMinicPipeline runs `seq | sum`: two MiniC processes bridged by
// a kernel pipe, with backpressure (the ring is smaller than the
// output) and EOF driving the consumer's exit.
func TestMinicPipeline(t *testing.T) {
	k, win := newKernel(t)
	producer := compileC(t, `
int main() {
    for (int i = 1; i <= 200; i++) {
        putint(i); putchar('\n');
    }
    return 0;
}`)
	consumer := compileC(t, `
int main() {
    char buf[64];
    int sum = 0;
    while (getline(buf, 64) >= 0) {
        sum = sum + atoi(buf);
    }
    putint(sum); putchar('\n');
    return 0;
}`)

	pipe := k.NewPipe(32) // much smaller than 200 lines of output
	var out bytes.Buffer
	p1, err := k.SpawnMinic(producer, proc.SpawnSpec{
		Name: "seq", Stdout: &proc.PipeWriter{P: pipe},
	})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := k.SpawnMinic(consumer, proc.SpawnSpec{
		Name: "sum", Stdin: &proc.PipeReader{P: pipe}, Stdout: &proc.WriterStream{W: &out},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := win.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.TrimSpace(out.String()), "20100"; got != want {
		t.Errorf("sum = %q, want %q", got, want)
	}
	if !p1.Exited() || p1.ExitCode() != 0 || !p2.Exited() || p2.ExitCode() != 0 {
		t.Errorf("exit codes: seq=%d sum=%d", p1.ExitCode(), p2.ExitCode())
	}
}

// TestForkWaitpid exercises fork-lite: the child diverges on fork's
// return value, exits with its own code, and the parent's waitpid
// (a labelled Completion under the hood) observes it.
func TestForkWaitpid(t *testing.T) {
	k, win := newKernel(t)
	prog := compileC(t, `
int main() {
    int pid = fork();
    if (pid == 0) {
        puts("child\n");
        exit(42);
    }
    int status = waitpid(pid);
    puts("parent saw ");
    putint(status);
    putchar('\n');
    return status;
}`)
	var out bytes.Buffer
	p, err := k.SpawnMinic(prog, proc.SpawnSpec{
		Name: "forker", Stdout: &proc.WriterStream{W: &out},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := win.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "child\n") || !strings.Contains(out.String(), "parent saw 42\n") {
		t.Errorf("output = %q", out.String())
	}
	if p.ExitCode() != 42 {
		t.Errorf("parent exit = %d, want 42", p.ExitCode())
	}
}

// TestForkedChildKeepsSampling forks under a profiled hub: the child
// gets a fresh runtime and a cloned heap, and both must keep folding
// into the window's profiler — CPU time in the child's own helper, its
// mallocs at the child's stack, and the parent's wait as blocked time.
func TestForkedChildKeepsSampling(t *testing.T) {
	win := browser.NewWindow(browser.Chrome28)
	hub := telemetry.NewHub().EnableProfiling()
	win.EnableTelemetry(hub)
	k := proc.NewKernel(win, vfs.NewInMemory())
	prog := compileC(t, `
int childwork(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) { acc = (acc * 31 + i) % 1000003; }
    return acc;
}
int childalloc(int n) {
    int sum = 0;
    for (int i = 0; i < n; i++) { int *q = malloc(8); q[0] = 1; sum = sum + q[0]; free(q); }
    return sum;
}
int main() {
    int pid = fork();
    if (pid == 0) {
        childwork(2000000);
        exit(childalloc(5 * 61) % 256);
    }
    return waitpid(pid);
}`)
	p, err := k.SpawnMinic(prog, proc.SpawnSpec{Name: "forker"})
	if err != nil {
		t.Fatal(err)
	}
	if err := win.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if got := p.ExitCode(); got != 305%256 {
		t.Fatalf("parent exit = %d, want the child's %d", got, 305%256)
	}
	has := func(kind profile.Kind, prefix string) bool {
		for _, e := range hub.Profiler.Snapshot(kind).Entries {
			if strings.HasPrefix(strings.Join(e.Stack, ";"), prefix) {
				return true
			}
		}
		return false
	}
	if !has(profile.CPU, "main;childwork") {
		t.Errorf("no CPU sample in the child's childwork: %+v", hub.Profiler.Snapshot(profile.CPU).Entries)
	}
	if !has(profile.Alloc, "main;childalloc;(umheap)") {
		t.Errorf("no alloc sample at the child's childalloc: %+v", hub.Profiler.Snapshot(profile.Alloc).Entries)
	}
	if !has(profile.Block, "main;minic.waitpid(") {
		t.Errorf("the parent's waitpid folded no blocked time: %+v", hub.Profiler.Snapshot(profile.Block).Entries)
	}
}

// TestSignalInterruptsBlockedRead is the EINTR acceptance path: a
// process parked on an empty pipe's read gets SIGINT; the in-flight
// read is cancelled with EINTR, the process terminates with 130, and
// a waiter observes it.
func TestSignalInterruptsBlockedRead(t *testing.T) {
	k, win := newKernel(t)
	prog := compileC(t, `
int main() {
    char buf[64];
    getline(buf, 64);
    return 99;
}`)
	pipe := k.NewPipe(0) // writer end stays open: the read never completes
	p, err := k.SpawnMinic(prog, proc.SpawnSpec{
		Name: "reader", Stdin: &proc.PipeReader{P: pipe},
	})
	if err != nil {
		t.Fatal(err)
	}

	var status int32 = -1
	var waitErr error
	k.Waitpid(nil, p.PID).Then(func(v interface{}, err error) {
		if err != nil {
			waitErr = err
			return
		}
		status = v.(int32)
	})

	// Let the reader run until it parks on the pipe, then interrupt.
	fired := false
	win.Loop.SetTimeout(func() {
		fired = true
		if err := k.Kill(p.PID, proc.SIGINT); err != nil {
			t.Errorf("kill: %v", err)
		}
	}, 0)
	if err := win.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("timer never fired")
	}
	if waitErr != nil {
		t.Fatalf("waitpid: %v", waitErr)
	}
	if status != proc.SIGINT.ExitStatus() {
		t.Errorf("wait status = %d, want %d (128+SIGINT)", status, proc.SIGINT.ExitStatus())
	}

	// The black box recorded the delivery and the interrupted process
	// left no queue residue: a fresh write to the pipe still works
	// (its reader reference was closed by exit → EPIPE, the *correct*
	// residue).
	var werr error
	pipe.Write([]byte("late"), func(_ int, err error) { werr = err })
	if !vfs.IsErrno(werr, vfs.EPIPE) {
		t.Errorf("write after reader death = %v, want EPIPE", werr)
	}
	sawSignal := false
	for _, ev := range win.Telemetry.Flight.Events() {
		if ev.Cat == "proc" && ev.Event == "signal" && strings.Contains(ev.Label, "SIGINT") {
			sawSignal = true
		}
	}
	if !sawSignal {
		t.Error("flight recorder has no proc/signal SIGINT event")
	}
}

// TestWaitpidECHILDAndKillESRCH: the errno edges of the process API.
func TestWaitpidECHILDAndKillESRCH(t *testing.T) {
	k, _ := newKernel(t)
	var werr error
	k.Waitpid(nil, 4242).Then(func(_ interface{}, err error) { werr = err })
	if !vfs.IsErrno(werr, vfs.ECHILD) {
		t.Errorf("waitpid(4242) = %v, want ECHILD", werr)
	}
	if err := k.Kill(4242, proc.SIGKILL); !vfs.IsErrno(err, vfs.ESRCH) {
		t.Errorf("kill(4242) = %v, want ESRCH", err)
	}
}

// TestSnapshotShowsBlockedProcess: /debug/proc's data source reports
// pid, state, and the blocked-on Completion label mid-run.
func TestSnapshotShowsBlockedProcess(t *testing.T) {
	k, win := newKernel(t)
	prog := compileC(t, `
int main() {
    char buf[16];
    getline(buf, 16);
    return 0;
}`)
	pipe := k.NewPipe(0)
	p, err := k.SpawnMinic(prog, proc.SpawnSpec{
		Name: "blocked-cat", Stdin: &proc.PipeReader{P: pipe},
	})
	if err != nil {
		t.Fatal(err)
	}
	var snap []proc.ProcInfo
	win.Loop.SetTimeout(func() {
		snap = k.Snapshot()
		// Unblock so the loop can drain.
		pipe.CloseWrite()
	}, 0)
	if err := win.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 {
		t.Fatalf("snapshot rows = %d, want 1: %+v", len(snap), snap)
	}
	row := snap[0]
	if row.PID != p.PID || row.Name != "blocked-cat" {
		t.Errorf("row = %+v", row)
	}
	if row.State != "blocked" || row.Blocked != "minic.getline" {
		t.Errorf("state=%q blocked-on=%q, want blocked on minic.getline", row.State, row.Blocked)
	}
}

// TestSpawnExitCodesPropagate: a plain spawn's exit code reaches
// Waitpid, and zombies reap on wait.
func TestSpawnExitCodesPropagate(t *testing.T) {
	k, win := newKernel(t)
	prog := compileC(t, `int main() { return 3; }`)
	p, err := k.SpawnMinic(prog, proc.SpawnSpec{Name: "ret3"})
	if err != nil {
		t.Fatal(err)
	}
	if err := win.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	var status int32 = -1
	k.Waitpid(nil, p.PID).Then(func(v interface{}, err error) {
		if err == nil {
			status = v.(int32)
		}
	})
	if status != 3 {
		t.Errorf("wait status = %d, want 3", status)
	}
	if k.Lookup(p.PID) != nil {
		t.Error("process not reaped after waitpid")
	}
	var echild error
	k.Waitpid(nil, p.PID).Then(func(_ interface{}, err error) { echild = err })
	if !vfs.IsErrno(echild, vfs.ECHILD) {
		t.Errorf("second waitpid = %v, want ECHILD", echild)
	}
}
