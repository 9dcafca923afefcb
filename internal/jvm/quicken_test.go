package jvm_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/jvm"
	"doppio/internal/jvm/rt"
)

// runDoppioQuick runs source on the Doppio engine with quickening
// toggled, returning stdout, the run error, and the quickening stats.
func runDoppioQuick(t *testing.T, source string, quicken bool, slice time.Duration) (string, error, jvm.QuickStats) {
	t.Helper()
	classes, err := rt.CompileWith(map[string]string{"Main.mj": source})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	win := browser.NewWindow(browser.Chrome28)
	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		DisableEngineTax: true,
		Timeslice:        slice,
		Quicken:          quicken,
	})
	runErr := vm.RunMain("Main", nil)
	return stdout.String(), runErr, vm.QuickStats()
}

// TestQuickenEquivalenceCorpus runs every conformance program on the
// Doppio engine with quickening on and off, against the native
// engine's run as the reference. The speed tier is a pure
// optimization: all three runs must produce byte-identical output and
// agree on the error outcome.
func TestQuickenEquivalenceCorpus(t *testing.T) {
	for name, src := range conformancePrograms {
		t.Run(name, func(t *testing.T) {
			nOut, nErr := runNativeErr(t, src)
			dOff, dOffErr, _ := runDoppioQuick(t, src, false, 2*time.Millisecond)
			dOn, dOnErr, _ := runDoppioQuick(t, src, true, 2*time.Millisecond)
			if (nErr == nil) != (dOffErr == nil) || (dOffErr == nil) != (dOnErr == nil) {
				t.Fatalf("error outcomes differ: native %v, doppio %v/%v", nErr, dOffErr, dOnErr)
			}
			if dOn != dOff {
				t.Errorf("doppio quickened output diverged:\noff: %q\non:  %q", dOff, dOn)
			}
			if dOn != nOut {
				t.Errorf("engines disagree under quickening:\nnative: %q\ndoppio: %q", nOut, dOn)
			}
		})
	}
}

// hotProgram drives a call site and field accesses well past the
// fusion warm-up thresholds so the deep quickening tier (fused
// superinstructions plus pre-decoded simple forms) is exercised, not
// just the lazily installed field/invoke kinds.
const hotProgram = `
class Cell {
    int v;
    Cell next;
    Cell(int v) { this.v = v; }
    int get() { return v; }
}
public class Main {
    static int walk(Cell head) {
        int sum = 0;
        for (Cell c = head; c != null; c = c.next) {
            sum = sum * 31 + c.get();
        }
        return sum;
    }
    public static void main(String[] args) {
        Cell head = null;
        for (int i = 0; i < 64; i++) {
            Cell c = new Cell(i);
            c.next = head;
            head = c;
        }
        int acc = 0;
        for (int r = 0; r < 400; r++) {
            acc = acc ^ walk(head) + r;
        }
        System.out.println(acc);
    }
}`

func TestQuickenHotLoopEquivalence(t *testing.T) {
	dOff, _, _ := runDoppioQuick(t, hotProgram, false, 2*time.Millisecond)
	dOn, _, st := runDoppioQuick(t, hotProgram, true, 2*time.Millisecond)
	if dOn != dOff {
		t.Fatalf("hot loop output diverged:\noff: %q\non:  %q", dOff, dOn)
	}
	if st.Sites == 0 || st.ICHits == 0 {
		t.Errorf("hot loop did not quicken: %+v", st)
	}
	if st.Fusions == 0 || st.FusedExec == 0 {
		t.Errorf("hot loop did not reach the fusion tier: %+v", st)
	}
	if nOut := runNative(t, hotProgram); dOn != nOut {
		t.Errorf("engines disagree on the hot loop:\nnative: %q\ndoppio: %q", nOut, dOn)
	}
}

// gateProgram drives the getfield;ifeq fused pair: drain()'s loop
// condition is a boolean field read whose value feeds ifeq directly.
// The receiver comes through a getstatic (not an aload), so the fused
// QGetfieldIfeq form itself executes rather than being shadowed by
// QAloadGetfield. The loop body avoids every other fusable pair, so a
// nonzero Fusions count pins the new form specifically. The final
// round nulls the receiver to check the fused handler throws the same
// NullPointerException at the same site as the generic pair.
const gateProgram = `
class Gate {
    boolean open;
}
public class Main {
    static Gate gate = new Gate();
    static int drain() {
        int n = 0;
        while (gate.open) {
            n = n + 1;
            if (n >= 40) { gate.open = false; }
        }
        return n;
    }
    public static void main(String[] args) {
        int acc = 0;
        for (int r = 0; r < 200; r++) {
            gate.open = true;
            acc = acc + drain();
        }
        System.out.println(acc);
        gate = null;
        System.out.println(drain());
    }
}`

// boundProgram drives the iload;if_icmplt fused pair: the loop
// condition compares against a local bound, and the body sticks to
// xor so the only fusable hot pair is the bound load feeding
// if_icmplt. The Main.seed read exists to give sweep a quickened
// site — the fusion pass only visits methods that own a side table.
const boundProgram = `
public class Main {
    static int seed = 0;
    static int sweep(int limit) {
        int s = 0;
        int i = 0;
        while (i < limit) {
            s = (s ^ i) + Main.seed;
            i = i + 1;
        }
        return s;
    }
    public static void main(String[] args) {
        int acc = 0;
        for (int r = 0; r < 200; r++) {
            acc = acc ^ sweep(64 + r % 7);
        }
        System.out.println(acc);
    }
}`

// TestQuickenFusedBranchPairs checks the branch-fused
// superinstructions (getfield;ifeq and iload;if_icmplt) for output
// and error-outcome equivalence against the Doppio engine's generic
// interpreter and the native engine, and that each program actually
// reaches the fused tier.
func TestQuickenFusedBranchPairs(t *testing.T) {
	for name, src := range map[string]string{"gate": gateProgram, "bound": boundProgram} {
		t.Run(name, func(t *testing.T) {
			dOff, dOffErr, _ := runDoppioQuick(t, src, false, 2*time.Millisecond)
			dOn, dOnErr, st := runDoppioQuick(t, src, true, 2*time.Millisecond)
			if dOn != dOff {
				t.Errorf("doppio output diverged:\noff: %q\non:  %q", dOff, dOn)
			}
			if (dOffErr == nil) != (dOnErr == nil) {
				t.Errorf("doppio error outcome changed: off=%v on=%v", dOffErr, dOnErr)
			}
			if st.Fusions == 0 || st.FusedExec == 0 {
				t.Errorf("doppio run did not reach the fused tier: %+v", st)
			}
			nOut, nErr := runNativeErr(t, src)
			if (nErr == nil) != (dOnErr == nil) {
				t.Errorf("engines' error outcomes differ: native=%v doppio=%v", nErr, dOnErr)
			}
			// An uncaught-exception banner names the engine's own
			// main thread id (native 0, Doppio 1); the rest must match.
			nOut = strings.Replace(nOut, "Exception in thread 0 ", "Exception in thread 1 ", 1)
			if dOn != nOut {
				t.Errorf("engines disagree under fusion:\nnative: %q\ndoppio: %q", nOut, dOn)
			}
		})
	}
}

// TestQuickenICMissFallback cycles a megamorphic receiver through a
// single quickened invokevirtual site. The inline cache must repoint
// (misses), then deopt to generic dispatch once the miss budget is
// exhausted — and the program output must stay correct throughout.
const polyProgram = `
class Shape { int area() { return 0; } }
class Sq extends Shape { int s; Sq(int s) { this.s = s; } int area() { return s * s; } }
class Re extends Shape { int w; Re(int w) { this.w = w; } int area() { return w * 2; } }
class Tr extends Shape { int b; Tr(int b) { this.b = b; } int area() { return b * 3; } }
public class Main {
    public static void main(String[] args) {
        Shape[] xs = new Shape[3];
        xs[0] = new Sq(4);
        xs[1] = new Re(5);
        xs[2] = new Tr(6);
        int sum = 0;
        for (int i = 0; i < 300; i++) {
            sum += xs[i % 3].area();
        }
        System.out.println(sum);
    }
}`

func TestQuickenICMissFallback(t *testing.T) {
	want, _, _ := runDoppioQuick(t, polyProgram, false, 2*time.Millisecond)
	got, _, st := runDoppioQuick(t, polyProgram, true, 2*time.Millisecond)
	if got != want {
		t.Fatalf("polymorphic output diverged:\noff: %q\non:  %q", want, got)
	}
	if st.ICMisses == 0 {
		t.Errorf("expected inline-cache misses on a cycling receiver: %+v", st)
	}
	if st.Deopts == 0 {
		t.Errorf("expected the megamorphic site to deopt to generic dispatch: %+v", st)
	}
	if nOut := runNative(t, polyProgram); got != nOut {
		t.Errorf("engines disagree on the polymorphic site:\nnative: %q\ndoppio: %q", nOut, got)
	}
}

// TestQuickenClassLoadingRace interleaves threads that are the first
// to touch lazily loaded classes while their shared call sites are
// being quickened. The cooperative scheduler switches threads at a
// tiny timeslice, so installs, inline-cache fills, and class loading
// overlap; the result must stay deterministic and identical to the
// generic interpreter's.
const raceProgram = `
class LazyA { static int seed() { return 17; } }
class LazyB { static int seed() { return 29; } }
class Box { int v; Box(int v) { this.v = v; } int get() { return v; } }
class Loader extends Thread {
    static Object lock = new Object();
    static int total = 0;
    int id;
    Loader(int id) { this.id = id; }
    public void run() {
        int acc = 0;
        for (int i = 0; i < 500; i++) {
            int base;
            if (id % 2 == 0) { base = LazyA.seed(); } else { base = LazyB.seed(); }
            Box b = new Box(base + i);
            acc += b.get();
        }
        synchronized (lock) {
            total += acc;
        }
    }
}
public class Main {
    public static void main(String[] args) {
        Loader[] ws = new Loader[4];
        for (int i = 0; i < ws.length; i++) {
            ws[i] = new Loader(i);
            ws[i].start();
        }
        for (int i = 0; i < ws.length; i++) {
            ws[i].join();
        }
        System.out.println(Loader.total);
    }
}`

func TestQuickenClassLoadingRace(t *testing.T) {
	// A 50µs slice forces many mid-method suspensions, interleaving
	// quickening installs with first-touch class loading.
	want, wantErr, _ := runDoppioQuick(t, raceProgram, false, 50*time.Microsecond)
	if wantErr != nil {
		t.Fatalf("generic run failed: %v\n%s", wantErr, want)
	}
	got, gotErr, st := runDoppioQuick(t, raceProgram, true, 50*time.Microsecond)
	if gotErr != nil {
		t.Fatalf("quickened run failed: %v\n%s", gotErr, got)
	}
	if got != want {
		t.Fatalf("racy class loading diverged:\noff: %q\non:  %q", want, got)
	}
	if st.Sites == 0 {
		t.Errorf("racy run did not quicken: %+v", st)
	}
}

// TestQuickenShadowedFieldLayout declares the same field name at three
// depths of a hierarchy. Each declaration must get a distinct slot in
// the flat layout, and quickened getfield/putfield must resolve each
// access to the slot of the class that lexically owns it.
const shadowProgram = `
class A {
    int x;
    A() { x = 1; }
    int ax() { return x; }
    void bumpA() { x += 10; }
}
class B extends A {
    int x;
    B() { x = 2; }
    int bx() { return x; }
    void bumpB() { x += 100; }
}
class C extends B {
    int x;
    C() { x = 3; }
    int cx() { return x; }
}
public class Main {
    public static void main(String[] args) {
        C c = new C();
        for (int i = 0; i < 50; i++) {
            c.bumpA();
            c.bumpB();
        }
        System.out.println(c.ax());
        System.out.println(c.bx());
        System.out.println(c.cx());
    }
}`

func TestQuickenShadowedFieldLayout(t *testing.T) {
	const want = "501\n5002\n3\n"
	for _, quicken := range []bool{false, true} {
		dOut, _, _ := runDoppioQuick(t, shadowProgram, quicken, 2*time.Millisecond)
		if dOut != want {
			t.Errorf("doppio quicken=%v: out = %q, want %q", quicken, dOut, want)
		}
	}
	if nOut := runNative(t, shadowProgram); nOut != want {
		t.Errorf("native: out = %q, want %q", nOut, want)
	}
}

// loopProgram's hot code is one call to sum, whose loop runs 5000
// times. Warm-up that counts only calls never reaches it; counting the
// loop's backward branches fuses and predecodes sum mid-invocation,
// and the rest of the loop runs in the quickened tier.
const loopProgram = `
public class Main {
    static int sum(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
            s = s + i;
        }
        return s;
    }
    public static void main(String[] args) {
        System.out.println(sum(5000));
    }
}`

func TestQuickenLoopWarmup(t *testing.T) {
	off, _, _ := runDoppioQuick(t, loopProgram, false, 2*time.Millisecond)
	on, err, st := runDoppioQuick(t, loopProgram, true, 2*time.Millisecond)
	if err != nil || on != off {
		t.Fatalf("quickened run: err=%v out=%q, want %q", err, on, off)
	}
	// s + i is an iload;iadd pair: once fused, each later iteration
	// executes it once.
	if st.Fusions == 0 || st.FusedExec < 4000 {
		t.Errorf("a once-called loop did not reach the fused tier early: %+v", st)
	}
}

// TestQuickenedVMFootprint bounds what quickening adds to a fresh
// Doppio VM. The fusion pass reads pair counts for four
// successor opcodes only, so the per-VM counters are a few KiB (a full
// 256x256 table of int64 counters would be 512 KiB).
func TestQuickenedVMFootprint(t *testing.T) {
	const n = 8
	var keep []interface{}
	perVM := func(build func() interface{}) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			keep = append(keep, build())
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / n
	}
	doppio := func(quicken bool) func() interface{} {
		return func() interface{} {
			return jvm.NewDoppioVM(browser.NewWindow(browser.Chrome28), jvm.DoppioOptions{
				DisableEngineTax: true,
				Quicken:          quicken,
			})
		}
	}
	const limit = 64 << 10
	if extra := perVM(doppio(true)) - perVM(doppio(false)); extra > limit {
		t.Errorf("quickening adds %d bytes to a Doppio VM, want <= %d", extra, limit)
	}
	runtime.KeepAlive(keep)
}
