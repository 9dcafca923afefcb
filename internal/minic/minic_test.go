package minic_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/minic"
	"doppio/internal/vfs"
)

func runC(t *testing.T, src string, opts minic.VMOptions) (string, int32) {
	t.Helper()
	prog, err := minic.CompileC(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	win := browser.NewWindow(browser.Chrome28)
	var stdout bytes.Buffer
	opts.Stdout = &stdout
	vm, err := minic.NewVM(win, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	exit, err := vm.Run()
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, stdout.String())
	}
	return stdout.String(), exit
}

func TestHelloC(t *testing.T) {
	out, exit := runC(t, `
int main() {
    puts("hello from minic\n");
    return 7;
}`, minic.VMOptions{})
	if out != "hello from minic\n" || exit != 7 {
		t.Errorf("out=%q exit=%d", out, exit)
	}
}

// The programs of TestArithControlFlow, TestPointersAndArrays and
// TestIncDecAndCompound; TestHeapBackingsAgree reruns them on both
// heap backings.
const arithSrc = `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}

int main() {
    int sum = 0;
    for (int i = 0; i < 10; i++) {
        sum += i * i;
    }
    putint(sum); putchar('\n');
    putint(fib(15)); putchar('\n');
    int j = 0;
    while (1) {
        j++;
        if (j == 3) continue;
        if (j >= 6) break;
        putint(j);
    }
    putchar('\n');
    putint(-17 / 5); putint(-17 % 5); putchar('\n');
    putint(1 << 10); putchar('\n');
    putint(!0); putint(!5); putint(~0); putchar('\n');
    return 0;
}`

const pointersSrc = `
int g;
int table[10];
char name[16];

int main() {
    int xs[5];
    for (int i = 0; i < 5; i++) xs[i] = i * 3;
    putint(xs[4]); putchar('\n');

    int *p = &g;
    *p = 42;
    putint(g); putchar('\n');

    table[7] = 99;
    putint(table[7]); putchar('\n');

    strcpy(name, "doppio");
    putint(strlen(name)); putchar('\n');
    puts(name); putchar('\n');
    name[0] = 'D';
    puts(name); putchar('\n');

    char *buf = (char*) malloc(32);
    strcpy(buf, "heap!");
    puts(buf); putchar('\n');
    free(buf);

    int *arr = (int*) malloc(40);
    for (int i = 0; i < 10; i++) arr[i] = i;
    int sum = 0;
    for (int i = 0; i < 10; i++) sum += arr[i];
    putint(sum); putchar('\n');
    free(arr);
    return 0;
}`

const incDecSrc = `
int main() {
    int i = 5;
    putint(i++); putint(i); putint(--i); putchar('\n');
    int a[3];
    a[1] = 10;
    putint(a[1]++); putint(a[1]); putchar('\n');
    a[1] *= 3;
    putint(a[1]); putchar('\n');
    int x = 7;
    x <<= 2;
    putint(x); putchar('\n');
    return 0;
}`

func TestArithControlFlow(t *testing.T) {
	out, _ := runC(t, arithSrc, minic.VMOptions{})
	want := "285\n610\n1245\n-3-2\n1024\n10-1\n"
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestPointersAndArrays(t *testing.T) {
	out, _ := runC(t, pointersSrc, minic.VMOptions{})
	want := "12\n42\n99\n6\ndoppio\nDoppio\nheap!\n45\n"
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestIncDecAndCompound(t *testing.T) {
	out, _ := runC(t, incDecSrc, minic.VMOptions{})
	want := "565\n1011\n33\n28\n"
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

func TestFileIOSyncOverAsync(t *testing.T) {
	out, _ := runC(t, `
int main() {
    writefile("/data.txt", "persist me", 10);
    if (exists("/data.txt")) puts("exists\n");
    char *content = readfile("/data.txt");
    if (content == 0) { puts("missing\n"); return 1; }
    puts(content); putchar('\n');
    putint(strlen(content)); putchar('\n');
    if (readfile("/nope") == 0) puts("no such file\n");
    return 0;
}`, minic.VMOptions{})
	want := "exists\npersist me\n10\nno such file\n"
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

// TestReadFileCopiesIntoHeap pins readfile's one copy: the VFS shares
// stored contents read-only, and the heap block readfile returns is
// the program's own, so writing into it must change neither the
// cached page nor the stored file that a second readfile sees.
func TestReadFileCopiesIntoHeap(t *testing.T) {
	win := browser.NewWindow(browser.Chrome28)
	store := vfs.NewInMemory()
	store.Sync("/data.txt", []byte("stored"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	fs := vfs.New(win.Loop, &buffer.Factory{Typed: true}, vfs.Stack(store, vfs.WithCache(vfs.CacheOptions{})))
	prog, err := minic.CompileC(`
int main() {
    char *first = readfile("/data.txt");
    int i = 0;
    while (first[i] != 0) {
        first[i] = 'x';
        i++;
    }
    char *second = readfile("/data.txt");
    puts(first); putchar('\n');
    puts(second); putchar('\n');
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	vm, err := minic.NewVM(win, prog, minic.VMOptions{Stdout: &stdout, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := stdout.String(), "xxxxxx\nstored\n"; got != want {
		t.Errorf("out = %q, want %q", got, want)
	}
	store.Open("/data.txt", func(data []byte, err error) {
		if err != nil || string(data) != "stored" {
			t.Errorf("stored file = %q, %v; want \"stored\"", data, err)
		}
	})
}

// fileOpsC writes, checks and reads back a file n times: 3n blocking
// file syscalls.
func fileOpsC(n int) string {
	return fmt.Sprintf(`
int main() {
    int total = 0;
    for (int i = 0; i < %d; i++) {
        writefile("/data.txt", "payload", 7);
        total += exists("/data.txt");
        char *s = readfile("/data.txt");
        total += strlen(s);
        free(s);
    }
    putint(total); putchar('\n');
    return 0;
}`, n)
}

// TestFileSyscallsSettleInline pins vfs.FS.Blocking under MiniC's file
// syscalls, with a timeslice too long to expire so that every
// suspension is a bridge crossing. Over a cached InMemory stack every
// syscall settles before the thread would suspend, so ten times the
// syscalls cost no more suspensions; over the asynchronous OS backend
// the same program prints the same output and suspends at least once
// per syscall.
func TestFileSyscallsSettleInline(t *testing.T) {
	run := func(n int, backend func(*browser.Window) vfs.Backend) (string, int) {
		t.Helper()
		prog, err := minic.CompileC(fileOpsC(n))
		if err != nil {
			t.Fatal(err)
		}
		win := browser.NewWindow(browser.Chrome28)
		fs := vfs.New(win.Loop, &buffer.Factory{Typed: true}, backend(win))
		var stdout bytes.Buffer
		vm, err := minic.NewVM(win, prog, minic.VMOptions{Stdout: &stdout, FS: fs, Timeslice: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Run(); err != nil {
			t.Fatalf("run: %v\n%s", err, stdout.String())
		}
		return stdout.String(), vm.Runtime().Stats().Suspensions
	}
	inline := func(*browser.Window) vfs.Backend {
		return vfs.Stack(vfs.NewInMemory(), vfs.WithCache(vfs.CacheOptions{}))
	}
	const few, many = 10, 100
	_, fewSusp := run(few, inline)
	want, manySusp := run(many, inline)
	if manySusp != fewSusp {
		t.Errorf("suspensions grow with file syscalls: %d for %d, %d for %d", fewSusp, 3*few, manySusp, 3*many)
	}
	got, asyncSusp := run(many, func(w *browser.Window) vfs.Backend {
		return vfs.NewOSBackend(w.Loop, t.TempDir())
	})
	t.Logf("suspensions: %d and %d inline, %d over the OS backend", fewSusp, manySusp, asyncSusp)
	if got != want || want != "800\n" {
		t.Errorf("OS backend printed %q, cached InMemory %q, want \"800\\n\"", got, want)
	}
	if asyncSusp < 3*many {
		t.Errorf("OS backend: %d suspensions for %d file syscalls; an asynchronous backend must still suspend", asyncSusp, 3*many)
	}
}

func TestGetlineBlockingInput(t *testing.T) {
	// The paper's §3.2 motivating example: synchronous console input.
	lines := []string{"Ada Lovelace"}
	idx := 0
	var win *browser.Window
	stdin := func(max int, cb func(string, bool)) {
		// Deliver like a keyboard event: asynchronously.
		win.Loop.AddPending()
		win.Loop.InvokeExternal("keyboard", func() {
			if idx < len(lines) {
				cb(lines[idx], false)
				idx++
			} else {
				cb("", true)
			}
			win.Loop.DonePending()
		})
	}
	prog, err := minic.CompileC(`
int main() {
    char name[64];
    puts("Please enter your name: ");
    int n = getline(name, 64);
    if (n < 0) { puts("eof\n"); return 1; }
    puts("Your name is ");
    puts(name);
    putchar('\n');
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	win = browser.NewWindow(browser.Chrome28)
	var stdout bytes.Buffer
	vm, err := minic.NewVM(win, prog, minic.VMOptions{Stdout: &stdout, Stdin: stdin})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	want := "Please enter your name: Your name is Ada Lovelace\n"
	if stdout.String() != want {
		t.Errorf("out = %q, want %q", stdout.String(), want)
	}
}

func TestSegmentationSurvivesWatchdogC(t *testing.T) {
	p := browser.Chrome28
	p.WatchdogLimit = 80 * time.Millisecond
	prog, err := minic.CompileC(`
int spin(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc = acc + i * 7 % 13;
    }
    return acc;
}

int work(int rounds) {
    int acc = 0;
    for (int i = 0; i < rounds; i++) {
        acc = acc ^ spin(20000);
    }
    return acc;
}

int main() {
    putint(work(300));
    putchar('\n');
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	win := browser.NewWindow(p)
	var stdout bytes.Buffer
	vm, err := minic.NewVM(win, prog, minic.VMOptions{Stdout: &stdout})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(); err != nil {
		t.Fatalf("watchdog killed segmented MiniC program: %v", err)
	}
	if !strings.HasSuffix(stdout.String(), "\n") || len(stdout.String()) < 2 {
		t.Errorf("out = %q", stdout.String())
	}
}

func TestCompileErrors(t *testing.T) {
	bad := map[string]string{
		"no main":     `int helper() { return 1; }`,
		"undef var":   `int main() { return x; }`,
		"undef fn":    `int main() { return nope(); }`,
		"bad lvalue":  `int main() { 3 = 4; return 0; }`,
		"dup global":  "int g; int g;\nint main() { return 0; }",
		"break loose": `int main() { break; return 0; }`,
		"argc":        `int f(int a) { return a; } int main() { return f(1, 2); }`,
	}
	for name, src := range bad {
		if _, err := minic.CompileC(src); err == nil {
			t.Errorf("%s: compiled without error", name)
		}
	}
}

func TestStackOverflowDetected(t *testing.T) {
	prog, err := minic.CompileC(`
int down(int n) { return down(n + 1); }
int main() { return down(0); }`)
	if err != nil {
		t.Fatal(err)
	}
	win := browser.NewWindow(browser.Chrome28)
	vm, err := minic.NewVM(win, prog, minic.VMOptions{StackSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(); err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Errorf("err = %v, want stack overflow", err)
	}
}

func TestPersistentSaveAcrossRuns(t *testing.T) {
	// The §7.2 save-game property: a second program run sees files the
	// first wrote, because they live in the mounted persistent store.
	win := browser.NewWindow(browser.Chrome28)
	bufs := &buffer.Factory{Typed: true}
	mount := vfs.NewMountFS(vfs.NewInMemory())
	mount.Mount("/save", vfs.NewLocalStorageFS(win.LocalStorage, bufs))
	fs := vfs.New(win.Loop, bufs, mount)

	writer, err := minic.CompileC(`
int main() {
    writefile("/save/progress", "level-3", 7);
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	vm1, err := minic.NewVM(win, writer, minic.VMOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm1.Run(); err != nil {
		t.Fatal(err)
	}

	// A fresh window with the same localStorage: the save persists.
	win2 := browser.NewWindow(browser.Chrome28)
	win2.LocalStorage = win.LocalStorage
	bufs2 := &buffer.Factory{Typed: true}
	mount2 := vfs.NewMountFS(vfs.NewInMemory())
	mount2.Mount("/save", vfs.NewLocalStorageFS(win2.LocalStorage, bufs2))
	fs2 := vfs.New(win2.Loop, bufs2, mount2)
	reader, err := minic.CompileC(`
int main() {
    char *p = readfile("/save/progress");
    if (p == 0) { puts("lost\n"); return 1; }
    puts(p);
    putchar('\n');
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	vm2, err := minic.NewVM(win2, reader, minic.VMOptions{Stdout: &stdout, FS: fs2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm2.Run(); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != "level-3\n" {
		t.Errorf("out = %q", stdout.String())
	}
}

func TestSetPriorityBuiltin(t *testing.T) {
	// setpriority(p) moves the calling thread to run-queue level p and
	// returns the effective (clamped) priority — syscall 14.
	out, _ := runC(t, `
int main() {
    putint(setpriority(8)); putchar('\n');
    putint(setpriority(99)); putchar('\n');
    putint(setpriority(-3)); putchar('\n');
    return 0;
}`, minic.VMOptions{})
	if out != "8\n10\n1\n" {
		t.Errorf("out = %q, want clamped priorities 8, 10, 1", out)
	}
}

// runOn runs src in a window of the given browser profile and returns
// its output, exit code, step count and Run's error.
func runOn(t *testing.T, p browser.Profile, src string, opts minic.VMOptions) (string, int32, int64, error) {
	t.Helper()
	prog, err := minic.CompileC(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	win := browser.NewWindow(p)
	if opts.Stdin != nil {
		// A keyboard-style stdin needs the program's own event loop.
		stdin := opts.Stdin
		opts.Stdin = func(max int, cb func(string, bool)) {
			win.Loop.AddPending()
			win.Loop.InvokeExternal("keyboard", func() {
				stdin(max, cb)
				win.Loop.DonePending()
			})
		}
	}
	var stdout bytes.Buffer
	opts.Stdout = &stdout
	vm, err := minic.NewVM(win, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	exit, err := vm.Run()
	return stdout.String(), exit, vm.Steps, err
}

// TestHeapBackingsAgree runs the same programs over the typed-array
// heap (Chrome 28) and the §5.2 number-array fallback (IE 8): one
// dispatch loop serves both, so output, exit code and step count must
// be identical.
func TestHeapBackingsAgree(t *testing.T) {
	const loopsAndCalls = `
int table[64];

int mix(int a, int b) { return (a * 31 + b) % 1000003; }

int walk(int n) {
    if (n == 0) return 1;
    return mix(walk(n - 1), n);
}

int main() {
    char *buf = (char*) malloc(256);
    int acc = 0;
    for (int i = 0; i < 20000; i++) {
        table[i % 64] = table[(i * 7) % 64] + i;
        buf[i % 256] = i;
        acc = mix(acc, table[i % 64] + buf[(i * 3) % 256]);
    }
    int *odd = (int*) (buf + 1);
    *odd = 67305985;
    putint(acc); putchar(' '); putint(walk(300)); putchar(' ');
    putint(buf[1]); putint(buf[4]); putint(*odd); putchar('\n');
    return acc % 7;
}`
	for name, src := range map[string]string{
		"arith": arithSrc, "pointers": pointersSrc, "incdec": incDecSrc, "loops-and-calls": loopsAndCalls,
	} {
		out, exit, steps, err := runOn(t, browser.Chrome28, src, minic.VMOptions{})
		nOut, nExit, nSteps, nErr := runOn(t, browser.IE8, src, minic.VMOptions{})
		if err != nil || nErr != nil {
			t.Fatalf("%s: typed err %v, number err %v", name, err, nErr)
		}
		if out != nOut || exit != nExit || steps != nSteps {
			t.Errorf("%s: typed %q exit %d in %d steps; number array %q exit %d in %d steps",
				name, out, exit, steps, nOut, nExit, nSteps)
		}
		if steps == 0 || out == "" {
			t.Errorf("%s: ran %d steps, printed %q", name, steps, out)
		}
	}
}

// TestWildPointerEndsGuest: an access outside the heap, by an opcode or
// inside a syscall, ends the program with a segmentation fault on both
// backings; the host keeps running. getline's buffer is checked before
// the thread blocks, since its stdin callback writes guest memory from
// a later macrotask.
func TestWildPointerEndsGuest(t *testing.T) {
	faults := map[string]string{
		"store":     `int main() { int *p = 0; p[-1] = 5; return 0; }`,
		"load":      `int main() { int *p = 0; return p[-1]; }`,
		"strlen":    `int main() { char *p = 0; return strlen(p - 1); }`,
		"writefile": `int main() { char buf[8]; return writefile("/x", buf, -5); }`,
		"getline":   `int main() { char *p = 0; return getline(p - 8, 16); }`,
	}
	stdin := func(max int, cb func(string, bool)) { cb("typed later", false) }
	for _, p := range []browser.Profile{browser.Chrome28, browser.IE8} {
		for name, src := range faults {
			out, _, _, err := runOn(t, p, src, minic.VMOptions{Stdin: stdin})
			if err == nil || !strings.Contains(err.Error(), "segmentation fault") {
				t.Errorf("%s/%s: err %v, out %q; want a segmentation fault", p.Name, name, err, out)
			}
		}
	}
}
