package minic_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/minic"
	"doppio/internal/profile"
	"doppio/internal/telemetry"
)

// runProfiledC runs src in a window whose hub carries a fresh guest
// profiler and returns the program's output and the profiler.
func runProfiledC(t *testing.T, src string, opts minic.VMOptions) (string, *profile.Profiler) {
	t.Helper()
	prog, err := minic.CompileC(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	win := browser.NewWindow(browser.Chrome28)
	hub := telemetry.NewHub().EnableProfiling()
	win.EnableTelemetry(hub)
	var stdout bytes.Buffer
	opts.Stdout = &stdout
	vm, err := minic.NewVM(win, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, stdout.String())
	}
	return stdout.String(), hub.Profiler
}

// stacks renders a snapshot's folded stacks, one "a;b;c" per entry.
func stacks(p *profile.Profiler, kind profile.Kind) []string {
	var out []string
	for _, e := range p.Snapshot(kind).Entries {
		out = append(out, strings.Join(e.Stack, ";"))
	}
	return out
}

// TestProfilerCPUByFunction checks that a CPU-bound MiniC program
// folds CPU samples keyed by its own function names, rooted at main.
func TestProfilerCPUByFunction(t *testing.T) {
	out, p := runProfiledC(t, `
int mix(int x) { return (x * 31 + 7) % 1000003; }
int spin(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) { acc = mix(acc + i); }
    return acc;
}
int main() {
    int acc = 0;
    for (int r = 0; r < 20; r++) { acc = acc + spin(50000); }
    putint(acc > 0); putchar('\n');
    return 0;
}`, minic.VMOptions{Timeslice: time.Millisecond})
	if out != "1\n" {
		t.Fatalf("output %q", out)
	}
	all := stacks(p, profile.CPU)
	if len(all) == 0 || p.Samples() == 0 {
		t.Fatal("no CPU samples folded")
	}
	sawHelper := false
	for _, st := range all {
		if !strings.HasPrefix(st, "main") {
			t.Errorf("stack %q is not rooted at main", st)
		}
		if strings.HasPrefix(st, "main;spin") {
			sawHelper = true
		}
	}
	if !sawHelper {
		t.Errorf("no CPU sample under main;spin: %q", all)
	}
}

// TestProfilerMallocSamples checks that malloc folds allocation
// samples at the calling function with "(umheap)" as the leaf.
func TestProfilerMallocSamples(t *testing.T) {
	out, p := runProfiledC(t, `
int grab(int n) {
    int *q = malloc(n);
    q[0] = n;
    int v = q[0];
    free(q);
    return v;
}
int main() {
    int sum = 0;
    for (int i = 0; i < 20 * 61; i++) { sum = sum + grab(16); }
    putint(sum); putchar('\n');
    return 0;
}`, minic.VMOptions{})
	if out != "19520\n" {
		t.Fatalf("output %q", out)
	}
	snap := p.Snapshot(profile.Alloc)
	var objects int64
	for _, e := range snap.Entries {
		st := strings.Join(e.Stack, ";")
		if st != "main;grab;(umheap)" {
			t.Errorf("alloc stack %q, want main;grab;(umheap)", st)
		}
		objects += e.Count
	}
	// 1,220 mallocs through the 1-in-61 gate: 20 samples, each
	// standing for 61 objects.
	if objects != 20*profile.AllocRate {
		t.Errorf("estimated %d objects, want %d", objects, 20*profile.AllocRate)
	}
}

// TestProfilerGetlineBlocks checks that a getline parked on console
// input folds blocked time at its call site, with the completion label
// as the leaf.
func TestProfilerGetlineBlocks(t *testing.T) {
	var win *browser.Window
	stdin := func(max int, cb func(string, bool)) {
		// A keystroke that arrives 3 ms later.
		win.Loop.SetTimeout(func() { cb("typed", false) }, 3*time.Millisecond)
	}
	prog, err := minic.CompileC(`
int ask() {
    char buf[64];
    return getline(buf, 64);
}
int main() {
    putint(ask()); putchar('\n');
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	win = browser.NewWindow(browser.Chrome28)
	hub := telemetry.NewHub().EnableProfiling()
	win.EnableTelemetry(hub)
	var stdout bytes.Buffer
	vm, err := minic.NewVM(win, prog, minic.VMOptions{Stdout: &stdout, Stdin: stdin})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != "5\n" {
		t.Fatalf("output %q", stdout.String())
	}
	snap := hub.Profiler.Snapshot(profile.Block)
	if len(snap.Entries) != 1 {
		t.Fatalf("block entries %+v, want one", snap.Entries)
	}
	e := snap.Entries[0]
	if st := strings.Join(e.Stack, ";"); st != "main;ask;minic.getline" || e.Count != 1 {
		t.Errorf("block entry %q x%d, want main;ask;minic.getline x1", st, e.Count)
	}
	if e.Value < int64(2*time.Millisecond) {
		t.Errorf("blocked %v, want at least the 3 ms wait", time.Duration(e.Value))
	}
}
