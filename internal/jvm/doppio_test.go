package jvm_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/jvm"
	"doppio/internal/jvm/rt"
	"doppio/internal/vfs"
)

// runDoppio compiles and runs Main on the Doppio engine inside a
// simulated browser window.
func runDoppio(t *testing.T, profile browser.Profile, source string, args ...string) string {
	t.Helper()
	out, err := runDoppioErr(t, profile, source, args...)
	if err != nil {
		t.Fatalf("RunMain (doppio): %v\noutput:\n%s", err, out)
	}
	return out
}

func runDoppioErr(t *testing.T, profile browser.Profile, source string, args ...string) (string, error) {
	t.Helper()
	classes, err := rt.CompileWith(map[string]string{"Main.mj": source})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	win := browser.NewWindow(profile)
	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		DisableEngineTax: true,
		Timeslice:        2 * time.Millisecond,
	})
	err = vm.RunMain("Main", args)
	return stdout.String(), err
}

// conformance programs run on both engines and must agree.
var conformancePrograms = map[string]string{
	"arith": `
public class Main {
    public static void main(String[] args) {
        int acc = 1;
        for (int i = 1; i < 12; i++) {
            acc = acc * i % 10007;
        }
        System.out.println(acc);
        System.out.println(2147483647 + 1);
        System.out.println(-2147483648 - 1);
        System.out.println(100000 * 100000);
        long l = 123456789123456789L;
        System.out.println(l / 3L);
        System.out.println(l % 1000000L);
        System.out.println(l * -7L);
        System.out.println(3.5 / 2.0);
        System.out.println((int) (7.0 / 2.0));
        System.out.println(1.0 / 0.0);
        System.out.println(Math.sqrt(2.0));
    }
}`,
	"strings": `
public class Main {
    public static void main(String[] args) {
        StringBuilder b = new StringBuilder();
        for (int i = 0; i < 10; i++) {
            b.append("x").append(i);
        }
        String s = b.toString();
        System.out.println(s);
        System.out.println(s.hashCode());
        System.out.println(s.substring(4, 8));
        System.out.println("count=" + s.length());
    }
}`,
	"exceptions": `
public class Main {
    static int depth(int n) {
        if (n == 0) {
            throw new IllegalStateException("bottom");
        }
        try {
            return depth(n - 1);
        } finally {
            if (n == 3) {
                System.out.println("finally at 3");
            }
        }
    }
    public static void main(String[] args) {
        try {
            depth(5);
        } catch (IllegalStateException e) {
            System.out.println("caught " + e.getMessage());
        }
    }
}`,
	"virtual": `
class A { int f() { return 1; } }
class B extends A { int f() { return 2; } }
class C extends B { int f() { return super.f() + 10; } }
public class Main {
    public static void main(String[] args) {
        A[] xs = new A[3];
        xs[0] = new A();
        xs[1] = new B();
        xs[2] = new C();
        int sum = 0;
        for (int i = 0; i < xs.length; i++) {
            sum = sum * 100 + xs[i].f();
        }
        System.out.println(sum);
    }
}`,
	"longheavy": `
public class Main {
    public static void main(String[] args) {
        long h = 1125899906842597L; // prime
        for (int i = 0; i < 1000; i++) {
            h = 31L * h + (long) i;
            h = h ^ (h >>> 17);
        }
        System.out.println(h);
    }
}`,
	"collections": `
import java.util.ArrayList;
import java.util.HashMap;
public class Main {
    public static void main(String[] args) {
        HashMap m = new HashMap();
        ArrayList l = new ArrayList();
        for (int i = 0; i < 200; i++) {
            String k = "k" + (i % 37);
            Integer old = (Integer) m.get(k);
            int base = old == null ? 0 : old.intValue();
            m.put(k, Integer.valueOf(base + i));
            l.add(k);
        }
        System.out.println(m.size() + " " + l.size());
        System.out.println(((Integer) m.get("k5")).intValue());
        int total = 0;
        Object[] keys = m.keys();
        for (int i = 0; i < keys.length; i++) {
            total += ((Integer) m.get(keys[i])).intValue();
        }
        System.out.println(total);
    }
}`,
	"switchy": `
public class Main {
    static int densePick(int v) {
        switch (v) {
        case 0: return 5;
        case 1: return 6;
        case 2:
        case 3: return 7;
        default: return -1;
        }
    }
    static String sparsePick(int v) {
        switch (v) {
        case -1000: return "low";
        case 0: return "zero";
        case 123456: return "high";
        }
        return "none";
    }
    public static void main(String[] args) {
        int acc = 0;
        for (int i = -1; i < 5; i++) { acc = acc * 10 + densePick(i); }
        System.out.println(acc);
        System.out.println(sparsePick(-1000) + sparsePick(0) + sparsePick(7) + sparsePick(123456));
    }
}`,
	"finallyDeep": `
public class Main {
    static StringBuilder log = new StringBuilder();
    static int f(int mode) {
        try {
            try {
                if (mode == 1) { throw new RuntimeException("inner"); }
                if (mode == 2) { return 20; }
                log.append("a");
            } finally {
                log.append("F1");
            }
            log.append("b");
        } catch (RuntimeException e) {
            log.append("C");
            return 1;
        } finally {
            log.append("F2");
        }
        return 0;
    }
    public static void main(String[] args) {
        System.out.println(f(0) + ":" + log);
        log = new StringBuilder();
        System.out.println(f(1) + ":" + log);
        log = new StringBuilder();
        System.out.println(f(2) + ":" + log);
    }
}`,
	"casting": `
public class Main {
    public static void main(String[] args) {
        Object[] things = new Object[3];
        things[0] = "text";
        things[1] = Integer.valueOf(9);
        things[2] = new int[4];
        int strings = 0;
        int ints = 0;
        for (int i = 0; i < things.length; i++) {
            if (things[i] instanceof String) { strings++; }
            if (things[i] instanceof Integer) { ints++; }
        }
        System.out.println(strings + " " + ints);
        try {
            String s = (String) things[1];
            System.out.println("bad");
        } catch (ClassCastException e) {
            System.out.println("ccast");
        }
        int[] back = (int[]) things[2];
        System.out.println(back.length);
    }
}`,
	"floatmath": `
public class Main {
    public static void main(String[] args) {
        double d = 0.0;
        for (int i = 1; i <= 50; i++) { d += 1.0 / (double) i; }
        System.out.println((int) (d * 1000000.0));
        float f = 0.1f;
        System.out.println(f + 0.2f > 0.3f);
        System.out.println(0.0 / 0.0 == 0.0 / 0.0);
        double nan = 0.0 / 0.0;
        System.out.println(nan < 1.0);
        System.out.println(nan >= 1.0);
        System.out.println((long) 1.0e18);
    }
}`,
	"wideArrays": `
public class Main {
    public static void main(String[] args) {
        long[] ls = new long[4];
        ls[1] = 1000000000000L;
        ls[1] += 234L;           // dup2_x2 path
        ls[2] = ls[1]++;
        System.out.println(ls[1] + " " + ls[2]);
        double[] ds = new double[3];
        ds[0] = 1.5;
        ds[0] *= 4.0;
        System.out.println(ds[0]);
        long l = 5L;
        l <<= 40;
        System.out.println(l);
        short[] ss = new short[2];
        ss[0] = (short) 70000;   // narrowing store
        System.out.println(ss[0]);
        byte b = (byte) 130;
        System.out.println(b);
        char c = (char) 65601;   // wraps to 'A'
        System.out.println(c);
    }
}`,
	// Each native raises its exception, caught by a superclass: the
	// Doppio engine must build the class the native names, not the
	// Throwable it falls back to for a class that is not loaded.
	"nativeThrows": `
import java.io.FileInputStream;
import java.io.IOException;
import doppio.io.FileSystem;
import sun.misc.Unsafe;
public class Main {
    static void caught(String site, Throwable t) {
        System.out.println(site + ": " + t.getClass().getName());
    }
    static void fellThrough(String site, Throwable t) {
        System.out.println(site + " fell through: " + t.getClass().getName());
    }
    public static void main(String[] args) {
        Unsafe u = Unsafe.getUnsafe();
        try {
            FileInputStream in = new FileInputStream("/definitely/missing.txt");
            System.out.println("readFile read " + in.available());
        } catch (IOException e) {
            caught("readFile", e);
        } catch (Throwable t) {
            fellThrough("readFile", t);
        }
        try {
            FileSystem.writeFile("/", new byte[1]);
            System.out.println("writeFile wrote /");
        } catch (Exception e) {
            caught("writeFile", e);
        } catch (Throwable t) {
            fellThrough("writeFile", t);
        }
        try {
            System.out.println(Double.parseDouble("not-a-number"));
        } catch (IllegalArgumentException e) {
            caught("parseDouble", e);
        } catch (Throwable t) {
            fellThrough("parseDouble", t);
        }
        try {
            System.out.println(u.allocateMemory(1L << 40));
        } catch (Error e) {
            caught("allocateMemory", e);
        } catch (Throwable t) {
            fellThrough("allocateMemory", t);
        }
        try {
            u.freeMemory(12345L);
            System.out.println("freeMemory returned");
        } catch (RuntimeException e) {
            caught("freeMemory", e);
        } catch (Throwable t) {
            fellThrough("freeMemory", t);
        }
        try {
            System.arraycopy(new int[2], 0, new long[2], 0, 1);
            System.out.println("arraycopy returned");
        } catch (RuntimeException e) {
            caught("arraycopy", e);
        } catch (Throwable t) {
            fellThrough("arraycopy", t);
        }
    }
}`,
	// No system properties are defined, so every key reads null on
	// both engines (TestGetPropertyReadsNull pins the value).
	"properties": `
public class Main {
    public static void main(String[] args) {
        System.out.println(System.getProperty("java.version") == null);
    }
}`,
	// The quick* programs warm each throwing quickened form past the
	// fusion thresholds (64 loop iterations, 16 calls) before it
	// faults, so the quickened run raises from the inner loop. The
	// printed traces pin the faulting pc as well as the message.
	"quickDivZero": `
public class Main {
    public static void main(String[] args) {
        int acc = 0;
        long lacc = 0L;
        int min = -2147483648;
        int neg = -1;
        for (int i = 0; i < 300; i++) {
            int d = i - 200;
            long ld = (long) (i - 250);
            try {
                acc = acc + 1000000 / d;
            } catch (ArithmeticException e) {
                System.out.println("idiv " + i);
                e.printStackTrace();
            }
            try {
                acc = acc + 1000003 % d;
            } catch (ArithmeticException e) {
                System.out.println("irem " + i);
                e.printStackTrace();
            }
            try {
                lacc = lacc + 9000000000000L / ld;
            } catch (ArithmeticException e) {
                System.out.println("ldiv " + i);
                e.printStackTrace();
            }
            try {
                lacc = lacc + 9000000000007L % ld;
            } catch (ArithmeticException e) {
                System.out.println("lrem " + i);
                e.printStackTrace();
            }
            acc = acc ^ (min / neg) ^ (min % neg);
        }
        System.out.println(acc + " " + lacc);
    }
}`,
	"quickArrays": `
public class Main {
    static long ints(int[] a, int i, int w, int r) { a[w] = i * 7; return a[r]; }
    static long longs(long[] a, int i, int w, int r) { a[w] = (long) i * 3000000000L; return a[r]; }
    static long doubles(double[] a, int i, int w, int r) { a[w] = i * 0.5; return (long) a[r]; }
    static long floats(float[] a, int i, int w, int r) { a[w] = i * 0.25f; return (long) a[r]; }
    static long bytes(byte[] a, int i, int w, int r) { a[w] = (byte) i; return a[r]; }
    static long chars(char[] a, int i, int w, int r) { a[w] = (char) (i + 65500); return a[r]; }
    static long shorts(short[] a, int i, int w, int r) { a[w] = (short) (i * 300); return a[r]; }
    static long strs(String[] a, int i, int w, int r) {
        a[w] = "s" + i;
        String s = a[r];
        if (s == null) { return 0L; }
        return (long) s.length();
    }
    static int len(int[] a) { return a.length; }
    static int load(int[] a, int r) { return a[r]; }
    static void store(int[] a, int w) { a[w] = 1; }
    static void fault(String what, int i, RuntimeException e) {
        System.out.println(what + " " + i);
        e.printStackTrace();
    }
    public static void main(String[] args) {
        int[] is = new int[4];
        long[] ls = new long[4];
        double[] ds = new double[4];
        float[] fs = new float[4];
        byte[] bs = new byte[4];
        char[] cs = new char[4];
        short[] ss = new short[4];
        String[] os = new String[4];
        long sum = 0L;
        for (int i = 0; i < 200; i++) {
            int w = i % 4;
            int r = (i + 1) % 4;
            if (i == 120) { w = 4; }
            if (i == 130) { r = -1; }
            try { sum = sum + ints(is, i, w, r); } catch (RuntimeException e) { fault("int", i, e); }
            try { sum = sum + longs(ls, i, w, r); } catch (RuntimeException e) { fault("long", i, e); }
            try { sum = sum + doubles(ds, i, w, r); } catch (RuntimeException e) { fault("double", i, e); }
            try { sum = sum + floats(fs, i, w, r); } catch (RuntimeException e) { fault("float", i, e); }
            try { sum = sum + bytes(bs, i, w, r); } catch (RuntimeException e) { fault("byte", i, e); }
            try { sum = sum + chars(cs, i, w, r); } catch (RuntimeException e) { fault("char", i, e); }
            try { sum = sum + shorts(ss, i, w, r); } catch (RuntimeException e) { fault("short", i, e); }
            try { sum = sum + strs(os, i, w, r); } catch (RuntimeException e) { fault("string", i, e); }
            int[] maybe = is;
            if (i == 140) { maybe = null; }
            try { sum = sum + len(maybe); } catch (RuntimeException e) { fault("length", i, e); }
            try { sum = sum + load(maybe, r); } catch (RuntimeException e) { fault("load", i, e); }
            try { store(maybe, w); sum = sum + 1L; } catch (RuntimeException e) { fault("store", i, e); }
            try {
                sum = sum + is[r] + maybe.length;
            } catch (RuntimeException e) {
                fault("inline", i, e);
            }
        }
        System.out.println(sum);
    }
}`,
	"quickCasts": `
class Animal { int legs() { return 4; } }
class Dog extends Animal { }
class Bird extends Animal { int legs() { return 2; } }
public class Main {
    static int legsOf(Object o) {
        Dog d = (Dog) o;
        return d.legs();
    }
    static int kind(Object o) {
        if (o instanceof Bird) { return 2; }
        if (o instanceof Animal) { return 1; }
        return 0;
    }
    static String tag() { return "tag"; }
    public static void main(String[] args) {
        Object dog = new Dog();
        Object bird = new Bird();
        int total = 0;
        for (int i = 0; i < 200; i++) {
            Object o = dog;
            if (i >= 150 && i % 10 == 0) { o = bird; }
            if (i == 175) { o = null; }
            try {
                total = total + legsOf(o) + 100000;
            } catch (ClassCastException e) {
                System.out.println("cce " + i);
                e.printStackTrace();
            } catch (NullPointerException e) {
                System.out.println("npe " + i);
            }
        }
        int kinds = 0;
        for (int i = 0; i < 200; i++) {
            Object o = dog;
            if (i > 100 && i % 3 == 0) { o = bird; }
            if (i > 100 && i % 3 == 1) { o = "str"; }
            if (i == 150) { o = null; }
            kinds = kinds * 3 + kind(o);
        }
        int same = 0;
        for (int i = 0; i < 200; i++) {
            if (tag() == tag()) { same++; }
            String s = "lit";
            if (s == "lit") { same++; }
            if (s == tag()) { same = same + 1000; }
        }
        System.out.println(total + " " + kinds + " " + same);
    }
}`,
}

func TestDoppioMatchesNativeEngine(t *testing.T) {
	for name, src := range conformancePrograms {
		t.Run(name, func(t *testing.T) {
			nativeOut := runNative(t, src)
			doppioOut := runDoppio(t, browser.Chrome28, src)
			if nativeOut != doppioOut {
				t.Errorf("engines disagree:\nnative: %q\ndoppio: %q", nativeOut, doppioOut)
			}
		})
	}
}

func TestGetPropertyReadsNull(t *testing.T) {
	src := conformancePrograms["properties"]
	if out := runNative(t, src); out != "true\n" {
		t.Errorf("native: out = %q, want %q", out, "true\n")
	}
	if out := runDoppio(t, browser.Chrome28, src); out != "true\n" {
		t.Errorf("doppio: out = %q, want %q", out, "true\n")
	}
}

func TestDoppioAcrossBrowsers(t *testing.T) {
	// Every conformance program must produce identical output on every
	// modelled browser — the paper's core portability claim ("letting
	// code run unmodified across Google Chrome, Firefox, Safari,
	// Opera, and Internet Explorer").
	for name, src := range conformancePrograms {
		want := runNative(t, src)
		for _, p := range browser.All() {
			t.Run(p.Name+"/"+name, func(t *testing.T) {
				got := runDoppio(t, p, src)
				if got != want {
					t.Errorf("%s output = %q, want %q", p.Name, got, want)
				}
			})
		}
	}
}

func TestDoppioSurvivesWatchdog(t *testing.T) {
	// A CPU-bound program far exceeding the watchdog budget must
	// still finish, because DoppioJVM segments execution (§6.1).
	p := browser.Chrome28
	p.WatchdogLimit = 100 * time.Millisecond
	out := runDoppio(t, p, `
public class Main {
    static int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    public static void main(String[] args) {
        System.out.println(fib(24));
    }
}`)
	if out != "46368\n" {
		t.Errorf("out = %q", out)
	}
}

func TestDoppioSuspensionStats(t *testing.T) {
	classes, err := rt.CompileWith(map[string]string{"Main.mj": `
public class Main {
    static int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    public static void main(String[] args) {
        System.out.println(fib(23));
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	win := browser.NewWindow(browser.Chrome28)
	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		DisableEngineTax: true,
		Timeslice:        time.Millisecond,
	})
	if err := vm.RunMain("Main", nil); err != nil {
		t.Fatal(err)
	}
	st := vm.Runtime().Stats()
	if st.Suspensions == 0 {
		t.Error("expected suspensions during a CPU-bound run")
	}
	if st.CPUTime == 0 || st.SuspendedTime == 0 {
		t.Errorf("stats not accounted: %+v", st)
	}
	if vm.Instructions == 0 {
		t.Error("instruction counter not advancing")
	}
}

func TestDoppioThreads(t *testing.T) {
	out := runDoppio(t, browser.Chrome28, `
class Worker extends Thread {
    static Object lock = new Object();
    static int done = 0;
    int id;
    Worker(int id) { this.id = id; }
    public void run() {
        int local = 0;
        for (int i = 0; i < 5000; i++) {
            local += i;
        }
        synchronized (lock) {
            done++;
        }
    }
}

public class Main {
    public static void main(String[] args) {
        Worker[] workers = new Worker[4];
        for (int i = 0; i < workers.length; i++) {
            workers[i] = new Worker(i);
            workers[i].start();
        }
        for (int i = 0; i < workers.length; i++) {
            workers[i].join();
        }
        System.out.println(Worker.done);
    }
}`)
	if out != "4\n" {
		t.Errorf("out = %q", out)
	}
}

func TestDoppioWaitNotify(t *testing.T) {
	out := runDoppio(t, browser.Chrome28, `
class Channel {
    Object lock = new Object();
    int value;
    boolean full;

    void put(int v) {
        synchronized (lock) {
            while (full) { lock.wait(); }
            value = v;
            full = true;
            lock.notifyAll();
        }
    }

    int take() {
        synchronized (lock) {
            while (!full) { lock.wait(); }
            full = false;
            lock.notifyAll();
            return value;
        }
    }
}

class Sender extends Thread {
    Channel ch;
    Sender(Channel ch) { this.ch = ch; }
    public void run() {
        for (int i = 1; i <= 10; i++) { ch.put(i); }
    }
}

public class Main {
    public static void main(String[] args) {
        Channel ch = new Channel();
        new Sender(ch).start();
        int sum = 0;
        for (int i = 0; i < 10; i++) { sum += ch.take(); }
        System.out.println(sum);
    }
}`)
	if out != "55\n" {
		t.Errorf("out = %q", out)
	}
}

func TestDoppioSleep(t *testing.T) {
	start := time.Now()
	out := runDoppio(t, browser.Chrome28, `
public class Main {
    public static void main(String[] args) {
        Thread.sleep(30L);
        System.out.println("rested");
    }
}`)
	if out != "rested\n" {
		t.Errorf("out = %q", out)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Error("sleep returned early")
	}
}

// TestDoppioClassLoadingViaVFS exercises §6.4: classes stored in the
// Doppio file system (HTTP backend) download on demand during
// execution.
func TestDoppioClassLoadingViaVFS(t *testing.T) {
	classes, err := rt.CompileWith(map[string]string{"Main.mj": `
class Helper {
    static String greet() { return "from vfs"; }
}
public class Main {
    public static void main(String[] args) {
        System.out.println(Helper.greet());
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	win := browser.NewWindow(browser.Chrome28)
	// Publish every class file on the remote server.
	for name, data := range classes {
		win.Remote.Serve("classes/"+name+".class", data)
	}
	bufs := &buffer.Factory{Typed: true}
	httpBackend := vfs.NewHTTPFS(win.Loop, win.Remote, "classes")
	fs := vfs.New(win.Loop, bufs, httpBackend)

	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         &jvm.VFSClassProvider{FS: fs, Dirs: []string{"/"}},
		FS:               &jvm.VFSHostFS{FS: fs},
		DisableEngineTax: true,
	})
	if err := vm.RunMain("Main", nil); err != nil {
		t.Fatalf("RunMain: %v\n%s", err, stdout.String())
	}
	if got := stdout.String(); got != "from vfs\n" {
		t.Errorf("out = %q", got)
	}
	if vm.Reg.Get("Helper") == nil {
		t.Error("Helper class not loaded")
	}
}

func TestDoppioFileIO(t *testing.T) {
	out := runDoppio(t, browser.Chrome28, `
import java.io.FileOutputStream;
import java.io.FileInputStream;
import java.io.File;

public class Main {
    public static void main(String[] args) {
        FileOutputStream w = new FileOutputStream("/notes.txt");
        w.writeString("line one\n");
        w.writeString("line two\n");
        w.close();

        File f = new File("/notes.txt");
        System.out.println(f.exists());
        System.out.println(f.length());

        FileInputStream r = new FileInputStream("/notes.txt");
        int c = r.read();
        StringBuilder b = new StringBuilder();
        while (c >= 0) {
            b.append((char) c);
            c = r.read();
        }
        System.out.print(b.toString());
    }
}`)
	want := "true\n18\nline one\nline two\n"
	if out != want {
		t.Errorf("out = %q, want %q", out, want)
	}
}

// TestDoppioGuestCannotReachStoredBytes pins the one copy of a guest
// read: the VFS shares stored contents read-only down to the natives,
// so the byte[] FileSystem.readFile returns must be the guest's own.
// Overwriting it must change neither the cached page nor the stored
// file that the second read sees.
func TestDoppioGuestCannotReachStoredBytes(t *testing.T) {
	classes, err := rt.CompileWith(map[string]string{"Main.mj": `
import doppio.io.FileSystem;

public class Main {
    static String text(byte[] b) {
        char[] cs = new char[b.length];
        for (int i = 0; i < b.length; i++) {
            cs[i] = (char) b[i];
        }
        return new String(cs);
    }

    public static void main(String[] args) {
        byte[] first = FileSystem.readFile("/data.txt");
        for (int i = 0; i < first.length; i++) {
            first[i] = (byte) 120;
        }
        byte[] second = FileSystem.readFile("/data.txt");
        System.out.println(text(first));
        System.out.println(text(second));
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	win := browser.NewWindow(browser.Chrome28)
	store := vfs.NewInMemory()
	store.Sync("/data.txt", []byte("stored"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	fs := vfs.New(win.Loop, &buffer.Factory{Typed: true}, vfs.Stack(store, vfs.WithCache(vfs.CacheOptions{})))
	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		FS:               &jvm.VFSHostFS{FS: fs},
		DisableEngineTax: true,
	})
	if err := vm.RunMain("Main", nil); err != nil {
		t.Fatalf("RunMain: %v\n%s", err, stdout.String())
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

func TestDoppioMissingClass(t *testing.T) {
	out, err := runDoppioErr(t, browser.Chrome28, `
public class Main {
    public static void main(String[] args) {
        System.out.println("start");
        Object o = makeIt();
        System.out.println(o);
    }
    static Object makeIt() {
        return null;
    }
}`)
	if err != nil {
		t.Fatalf("unexpected: %v / %s", err, out)
	}
	// Now an actually missing class reference at run time.
	classes, cerr := rt.CompileWith(map[string]string{"Main.mj": `
class Ghost { static int x = 1; }
public class Main {
    public static void main(String[] args) {
        System.out.println(Ghost.x);
    }
}`})
	if cerr != nil {
		t.Fatal(cerr)
	}
	delete(classes, "Ghost")
	win := browser.NewWindow(browser.Chrome28)
	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		DisableEngineTax: true,
	})
	err = vm.RunMain("Main", nil)
	if err == nil || !strings.Contains(err.Error(), "ClassNotFound") {
		t.Errorf("err = %v (out %q)", err, stdout.String())
	}
}

func TestDoppioEvalJS(t *testing.T) {
	classes, err := rt.CompileWith(map[string]string{"Main.mj": `
import doppio.lang.JS;
public class Main {
    public static void main(String[] args) {
        System.out.println(JS.eval("1+2"));
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	win := browser.NewWindow(browser.Chrome28)
	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		DisableEngineTax: true,
		JSEval: func(snippet string) string {
			if snippet == "1+2" {
				return "3"
			}
			return "?"
		},
	})
	if err := vm.RunMain("Main", nil); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != "3\n" {
		t.Errorf("out = %q", stdout.String())
	}
}

func TestDoppioExit(t *testing.T) {
	classes, err := rt.CompileWith(map[string]string{"Main.mj": `
public class Main {
    public static void main(String[] args) {
        System.out.println("before");
        System.exit(3);
        System.out.println("after");
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	win := browser.NewWindow(browser.Chrome28)
	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout: &stdout, Provider: jvm.MapProvider(classes), DisableEngineTax: true,
	})
	if err := vm.RunMain("Main", nil); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != "before\n" {
		t.Errorf("out = %q", stdout.String())
	}
	if vm.ExitCode() != 3 {
		t.Errorf("exit code = %d", vm.ExitCode())
	}
}

func TestDoppioUnsafeHeapEndianness(t *testing.T) {
	// §6.5: the OpenJDK endianness probe must work over the Doppio
	// unmanaged heap (little endian, §5.2).
	out := runDoppio(t, browser.IE8, `
import sun.misc.Unsafe;
public class Main {
    public static void main(String[] args) {
        Unsafe u = Unsafe.getUnsafe();
        System.out.println(u.isBigEndian());
        long addr = u.allocateMemory(8L);
        u.putLong(addr, 1311768467463790320L); // 0x123456789ABCDEF0
        System.out.println(u.getLong(addr));
        u.freeMemory(addr);
    }
}`)
	if out != "false\n1311768467463790320\n" {
		t.Errorf("out = %q", out)
	}
}

func TestDoppioStdin(t *testing.T) {
	classes, err := rt.CompileWith(map[string]string{"Main.mj": `
public class Main {
    public static void main(String[] args) {
        StringBuilder b = new StringBuilder();
        int c = System.in.read();
        while (c >= 0 && c != '\n') {
            b.append((char) c);
            c = System.in.read();
        }
        System.out.println("Your name is " + b.toString());
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	win := browser.NewWindow(browser.Chrome28)
	input := strings.NewReader("Ada\n")
	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:   &stdout,
		Provider: jvm.MapProvider(classes),
		Stdin: func(n int, cb func([]byte, error)) {
			// Deliver input asynchronously, as keyboard events would.
			win.Loop.AddPending()
			buf := make([]byte, n)
			m, err := input.Read(buf)
			win.Loop.InvokeExternal("stdin", func() {
				if m > 0 {
					cb(buf[:m], nil)
				} else {
					cb(nil, err)
				}
				win.Loop.DonePending()
			})
		},
		DisableEngineTax: true,
	})
	if err := vm.RunMain("Main", nil); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != "Your name is Ada\n" {
		t.Errorf("out = %q", stdout.String())
	}
}

// TestCallFreeLoopLimitation documents the §6.1 caveat: DoppioJVM
// checks for suspension at call boundaries, so "it is possible in
// theory to execute an extremely long-running loop that makes no
// method calls" and exceed the watchdog. A call-free hot loop dies
// under an aggressive watchdog; the same work split across method
// calls survives.
func TestCallFreeLoopLimitation(t *testing.T) {
	p := browser.Chrome28
	p.WatchdogLimit = 60 * time.Millisecond

	callFree := `
public class Main {
    public static void main(String[] args) {
        int acc = 0;
        for (int i = 0; i < 8000000; i++) {
            acc = acc + i & 0xFFFF;
        }
        System.out.println(acc);
    }
}`
	if out, err := runDoppioErr(t, p, callFree); err == nil {
		t.Skipf("host too fast to trip the watchdog (out=%q)", out)
	}

	withCalls := `
public class Main {
    static int step(int acc, int i) { return acc + i & 0xFFFF; }
    public static void main(String[] args) {
        int acc = 0;
        for (int i = 0; i < 300000; i++) {
            acc = step(acc, i);
        }
        System.out.println(acc);
    }
}`
	if _, err := runDoppioErr(t, p, withCalls); err != nil {
		t.Errorf("call-boundary checks failed to segment: %v", err)
	}
}

// TestCustomScheduler exercises §4.3's pluggable scheduling: language
// implementations "can provide a scheduling function that determines
// which thread to resume".
func TestCustomScheduler(t *testing.T) {
	classes, err := rt.CompileWith(map[string]string{"Main.mj": `
class Spin extends Thread {
    static StringBuilder order = new StringBuilder();
    int id;
    Spin(int id) { this.id = id; }
    public void run() {
        synchronized (order) {
            order.append(id);
        }
    }
}
public class Main {
    public static void main(String[] args) {
        Spin a = new Spin(1);
        Spin b = new Spin(2);
        Spin c = new Spin(3);
        a.start(); b.start(); c.start();
        a.join(); b.join(); c.join();
        System.out.println(Spin.order.toString());
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	win := browser.NewWindow(browser.Chrome28)
	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		DisableEngineTax: true,
	})
	if err := vm.RunMain("Main", nil); err != nil {
		t.Fatal(err)
	}
	// The default scheduler resumes threads in pool order, so the
	// completion order is deterministic.
	if got := stdout.String(); got != "123\n" {
		t.Errorf("order = %q", got)
	}
}

// TestManyLocalsWideInstructions forces local slots past 255 so the
// compiler emits wide load/store forms, and checks both engines agree.
func TestManyLocalsWideInstructions(t *testing.T) {
	var b strings.Builder
	b.WriteString("public class Main {\n    public static void main(String[] args) {\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "        int v%d = %d;\n", i, i*7)
	}
	b.WriteString("        long wide0 = 1L;\n        long wide1 = 2L;\n")
	b.WriteString("        int total = 0;\n")
	for i := 0; i < 300; i += 17 {
		fmt.Fprintf(&b, "        total += v%d;\n", i)
	}
	b.WriteString("        v299 = v299 + 1;\n        total += v299;\n")
	b.WriteString("        System.out.println(total + \" \" + (wide0 + wide1));\n    }\n}\n")
	src := b.String()
	nativeOut := runNative(t, src)
	doppioOut := runDoppio(t, browser.Chrome28, src)
	if nativeOut != doppioOut {
		t.Errorf("engines disagree: native %q vs doppio %q", nativeOut, doppioOut)
	}
	if !strings.Contains(nativeOut, " 3\n") {
		t.Errorf("out = %q", nativeOut)
	}
}

// TestDoppioFileIOOnIE8 drives the whole §5.1 stack on the weakest
// profile: no typed arrays (number-array buffers), string validity
// checks (1-byte-per-char packing), setTimeout resumption — and JVM
// file I/O over a localStorage-backed file system.
func TestDoppioFileIOOnIE8(t *testing.T) {
	classes, err := rt.CompileWith(map[string]string{"Main.mj": `
import java.io.FileOutputStream;
import java.io.FileInputStream;
public class Main {
    public static void main(String[] args) {
        FileOutputStream w = new FileOutputStream("/kv/blob.bin");
        for (int i = 0; i < 64; i++) {
            w.write(i * 5 & 255);
        }
        w.close();
        FileInputStream r = new FileInputStream("/kv/blob.bin");
        int sum = 0;
        int c = r.read();
        while (c >= 0) {
            sum += c;
            c = r.read();
        }
        System.out.println(sum);
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	win := browser.NewWindow(browser.IE8)
	bufs := &buffer.Factory{
		Typed:            win.Profile.HasTypedArrays,
		ValidatesStrings: win.Profile.ValidatesStrings,
	}
	mount := vfs.NewMountFS(vfs.NewInMemory())
	mount.Mount("/kv", vfs.NewLocalStorageFS(win.LocalStorage, bufs))
	fs := vfs.New(win.Loop, bufs, mount)
	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		FS:               &jvm.VFSHostFS{FS: fs},
		DisableEngineTax: true,
	})
	if err := vm.RunMain("Main", nil); err != nil {
		t.Fatal(err)
	}
	// sum of (i*5)&255 for i in 0..63: values 0,5,...,315&255.
	want := 0
	for i := 0; i < 64; i++ {
		want += i * 5 & 255
	}
	if stdout.String() != fmt.Sprintf("%d\n", want) {
		t.Errorf("out = %q, want %d", stdout.String(), want)
	}
	// The bytes really landed in localStorage, packed one byte per
	// char (IE8 validates strings).
	if _, ok := win.LocalStorage.GetItem("f!/blob.bin"); !ok {
		t.Error("file not persisted to localStorage")
	}
}

func TestDoppioThreadPriority(t *testing.T) {
	// Thread.setPriority clamps to MIN..MAX, persists in the Java
	// field, and lands on the core scheduler's run-queue level — both
	// for set-before-start threads and for the current thread.
	classes, err := rt.CompileWith(map[string]string{"Main.mj": `
class W extends Thread {
    public void run() { }
}
public class Main {
    public static void main(String[] args) {
        W a = new W();
        W b = new W();
        a.setPriority(9);
        b.setPriority(99);
        System.out.println(a.getPriority());
        System.out.println(b.getPriority());
        a.start(); b.start();
        a.join(); b.join();
        Thread.currentThread().setPriority(3);
        System.out.println(Thread.currentThread().getPriority());
        System.out.println(Thread.MAX_PRIORITY - Thread.MIN_PRIORITY);
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	win := browser.NewWindow(browser.Chrome28)
	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		DisableEngineTax: true,
	})
	if err := vm.RunMain("Main", nil); err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != "9\n10\n3\n9\n" {
		t.Errorf("output = %q, want clamped priorities 9, 10, 3 and range 9", got)
	}
	// The core threads must carry the mapped priorities: the two
	// workers 9 and 10 (clamped), the main thread 3.
	var prios []int
	for _, ct := range vm.Runtime().Threads() {
		prios = append(prios, ct.Priority())
	}
	sort.Ints(prios)
	if len(prios) != 3 || prios[0] != 3 || prios[1] != 9 || prios[2] != 10 {
		t.Errorf("core thread priorities = %v, want [3 9 10]", prios)
	}
}
