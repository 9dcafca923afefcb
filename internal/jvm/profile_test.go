package jvm_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/jvm"
	"doppio/internal/jvm/rt"
	"doppio/internal/profile"
	"doppio/internal/telemetry"
)

// runDoppioProf runs source on the Doppio engine in a window whose
// hub carries a fresh guest profiler, returning stdout, the run error,
// and the profiler.
func runDoppioProf(t *testing.T, source string, quicken bool, slice time.Duration) (string, error, *profile.Profiler) {
	t.Helper()
	classes, err := rt.CompileWith(map[string]string{"Main.mj": source})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	win := browser.NewWindow(browser.Chrome28)
	hub := telemetry.NewHub().EnableProfiling()
	win.EnableTelemetry(hub)
	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		DisableEngineTax: true,
		Timeslice:        slice,
		Quicken:          quicken,
	})
	runErr := vm.RunMain("Main", nil)
	return stdout.String(), runErr, hub.Profiler
}

// runNativeProf is the native-engine counterpart of runDoppioProf.
func runNativeProf(t *testing.T, source string, quicken bool) (string, error, *profile.Profiler) {
	t.Helper()
	classes, err := rt.CompileWith(map[string]string{"Main.mj": source})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	hub := telemetry.NewHub().EnableProfiling()
	var stdout bytes.Buffer
	vm := jvm.NewNativeVM(jvm.MapProvider(classes), jvm.NativeOptions{
		Stdout:    &stdout,
		Stderr:    &stdout,
		Quicken:   quicken,
		Telemetry: hub,
	})
	runErr := vm.RunMain("Main", nil)
	return stdout.String(), runErr, hub.Profiler
}

// TestProfilerEquivalenceCorpus runs every conformance program on both
// engines with the profiler attached and compares against the plain
// runs: sampling must be invisible to the guest — byte-identical
// output and the same error outcome.
func TestProfilerEquivalenceCorpus(t *testing.T) {
	for name, src := range conformancePrograms {
		t.Run(name, func(t *testing.T) {
			nOff, nOffErr, _ := runNativeQuick(t, src, false)
			nOn, nOnErr, _ := runNativeProf(t, src, false)
			dOff, dOffErr, _ := runDoppioQuick(t, src, false, 2*time.Millisecond)
			dOn, dOnErr, _ := runDoppioProf(t, src, false, 2*time.Millisecond)
			if (nOffErr == nil) != (nOnErr == nil) || (dOffErr == nil) != (dOnErr == nil) {
				t.Fatalf("error outcome changed under profiling: native %v/%v doppio %v/%v",
					nOffErr, nOnErr, dOffErr, dOnErr)
			}
			if nOn != nOff {
				t.Errorf("native output diverged under profiling:\noff: %q\non:  %q", nOff, nOn)
			}
			if dOn != dOff {
				t.Errorf("doppio output diverged under profiling:\noff: %q\non:  %q", dOff, dOn)
			}
		})
	}
}

// allocStacks renders a profiler's allocation snapshot as sorted
// "stack = count/bytes" lines — a canonical form for equality checks.
func allocStacks(p *profile.Profiler) []string {
	snap := p.Snapshot(profile.Alloc)
	out := make([]string, 0, len(snap.Entries))
	for _, e := range snap.Entries {
		out = append(out, fmt.Sprintf("%s = %d/%d", strings.Join(e.Stack, ";"), e.Count, e.Value))
	}
	sort.Strings(out)
	return out
}

// TestProfilerQuickenPCMapping pins the tentpole's attribution
// property: the quickened tiers map samples back to ORIGINAL bytecode
// pcs. The allocation profile is sampled on a deterministic 1-in-N
// allocation counter, so for a deterministic program the sampled
// alloc sites — stacks with leaf pcs — must be byte-identical with
// quickening on and off. A single differing pc (e.g. a fused
// superinstruction reporting its rewritten index) fails this test.
func TestProfilerQuickenPCMapping(t *testing.T) {
	t.Run("doppio", func(t *testing.T) {
		out0, err0, p0 := runDoppioProf(t, hotProgram, false, 2*time.Millisecond)
		out1, err1, p1 := runDoppioProf(t, hotProgram, true, 2*time.Millisecond)
		if err0 != nil || err1 != nil {
			t.Fatalf("run errors: %v / %v", err0, err1)
		}
		if out0 != out1 {
			t.Fatalf("output diverged: %q vs %q", out0, out1)
		}
		a0, a1 := allocStacks(p0), allocStacks(p1)
		if len(a0) == 0 {
			t.Fatal("no allocation samples folded")
		}
		if strings.Join(a0, "\n") != strings.Join(a1, "\n") {
			t.Errorf("alloc attribution diverged under quickening:\ngeneric:\n%s\nquickened:\n%s",
				strings.Join(a0, "\n"), strings.Join(a1, "\n"))
		}
	})
	t.Run("native", func(t *testing.T) {
		out0, err0, p0 := runNativeProf(t, hotProgram, false)
		out1, err1, p1 := runNativeProf(t, hotProgram, true)
		if err0 != nil || err1 != nil {
			t.Fatalf("run errors: %v / %v", err0, err1)
		}
		if out0 != out1 {
			t.Fatalf("output diverged: %q vs %q", out0, out1)
		}
		a0, a1 := allocStacks(p0), allocStacks(p1)
		if len(a0) == 0 {
			t.Fatal("no allocation samples folded")
		}
		if strings.Join(a0, "\n") != strings.Join(a1, "\n") {
			t.Errorf("alloc attribution diverged under quickening:\ngeneric:\n%s\nquickened:\n%s",
				strings.Join(a0, "\n"), strings.Join(a1, "\n"))
		}
	})
}

// TestProfilerCPUSamples checks that a CPU-bound run folds samples
// with well-formed frames on both engines: dotted class.method
// callers and a ":pc" leaf, no Go host frames.
func TestProfilerCPUSamples(t *testing.T) {
	check := func(t *testing.T, p *profile.Profiler) {
		snap := p.Snapshot(profile.CPU)
		if len(snap.Entries) == 0 {
			t.Fatal("no CPU samples folded")
		}
		sawHot := false
		for _, e := range snap.Entries {
			leaf := e.Stack[len(e.Stack)-1]
			if !strings.Contains(leaf, ":") {
				t.Errorf("leaf frame %q carries no pc", leaf)
			}
			for _, fr := range e.Stack {
				if strings.Contains(fr, "/") || strings.HasPrefix(fr, "doppio/") {
					t.Errorf("host-looking frame %q in guest profile", fr)
				}
			}
			for _, fr := range e.Stack {
				if strings.HasPrefix(fr, "Main.walk") || strings.HasPrefix(fr, "Cell.get") {
					sawHot = true
				}
			}
		}
		if !sawHot {
			t.Errorf("hot method never sampled; stacks: %v", snap.Entries)
		}
	}
	t.Run("doppio", func(t *testing.T) {
		_, err, p := runDoppioProf(t, hotProgram, true, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		check(t, p)
	})
	t.Run("native", func(t *testing.T) {
		_, err, p := runNativeProf(t, hotProgram, true)
		if err != nil {
			t.Fatal(err)
		}
		check(t, p)
	})
}

// blockProgram parks a thread on a monitor so the contention profile
// has something to fold.
const blockProgram = `
class Waiter extends Thread {
    Object lock;
    Waiter(Object lock) { this.lock = lock; }
    public void run() {
        synchronized (lock) {
            lock.wait();
        }
    }
}
public class Main {
    public static void main(String[] args) {
        Object lock = new Object();
        Waiter w = new Waiter(lock);
        w.start();
        Thread.sleep(5);
        synchronized (lock) {
            lock.notifyAll();
        }
        w.join();
        System.out.println("done");
    }
}`

// TestProfilerBlockSamples checks that Doppio-engine Completion waits
// land in the contention profile with the wait label as the leaf.
func TestProfilerBlockSamples(t *testing.T) {
	out, err, p := runDoppioProf(t, blockProgram, false, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "done") {
		t.Fatalf("unexpected output %q", out)
	}
	snap := p.Snapshot(profile.Block)
	if len(snap.Entries) == 0 {
		t.Fatal("no contention samples folded")
	}
	for _, e := range snap.Entries {
		leaf := e.Stack[len(e.Stack)-1]
		if strings.Contains(leaf, ":") && !strings.Contains(leaf, "(") {
			t.Errorf("block leaf %q looks like a pc frame, want a wait label", leaf)
		}
	}
}
