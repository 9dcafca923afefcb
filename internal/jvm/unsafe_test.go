package jvm_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/jvm"
	"doppio/internal/jvm/rt"
)

type engineRun struct {
	out     string
	err     error
	touched bool // the unmanaged heap's array was allocated
}

// runUnsafeEngines runs Main on both engines.
func runUnsafeEngines(t *testing.T, src string) map[string]engineRun {
	t.Helper()
	classes, err := rt.CompileWith(map[string]string{"Main.mj": src})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var nout, dout bytes.Buffer
	nvm := jvm.NewNativeVM(jvm.MapProvider(classes), jvm.NativeOptions{Stdout: &nout, Stderr: &nout})
	nerr := nvm.RunMain("Main", nil)
	dvm := jvm.NewDoppioVM(browser.NewWindow(browser.Chrome28), jvm.DoppioOptions{
		Stdout: &dout, Provider: jvm.MapProvider(classes), DisableEngineTax: true, Timeslice: 2 * time.Millisecond,
	})
	derr := dvm.RunMain("Main", nil)
	return map[string]engineRun{
		"native": {nout.String(), nerr, nvm.Heap().Touched()},
		"doppio": {dout.String(), derr, dvm.Heap().Touched()},
	}
}

func TestUnmanagedHeapAllocatedOnFirstTouch(t *testing.T) {
	for name, r := range runUnsafeEngines(t, `
public class Main {
    public static void main(String[] args) {
        System.out.println(6 * 7);
    }
}`) {
		if r.err != nil || r.out != "42\n" {
			t.Fatalf("%s: out %q, err %v", name, r.out, r.err)
		}
		if r.touched {
			t.Errorf("%s: a program that never calls Unsafe allocated the heap's array", name)
		}
	}
	for name, r := range runUnsafeEngines(t, `
import sun.misc.Unsafe;
public class Main {
    public static void main(String[] args) {
        Unsafe u = Unsafe.getUnsafe();
        long addr = u.allocateMemory(8L);
        u.putInt(addr, 7);
        System.out.println(u.getInt(addr));
    }
}`) {
		if r.err != nil || r.out != "7\n" || !r.touched {
			t.Errorf("%s: out %q, err %v, touched %v", name, r.out, r.err, r.touched)
		}
	}
}

func TestUnsafeFaultThrowsInternalError(t *testing.T) {
	for name, r := range runUnsafeEngines(t, `
import sun.misc.Unsafe;
public class Main {
    public static void main(String[] args) {
        Unsafe u = Unsafe.getUnsafe();
        try {
            System.out.println(u.getInt(-4L));
        } catch (Throwable e) {
            System.out.println("caught " + e.getClass().getName());
        }
        try {
            u.putLong(1L << 40, 1L);
            System.out.println("unreachable");
        } catch (InternalError e) {
            System.out.println("caught again");
        }
        System.out.println("still running");
    }
}`) {
		if want := "caught java.lang.InternalError\ncaught again\nstill running\n"; r.err != nil || r.out != want {
			t.Errorf("%s: out %q, err %v; want %q", name, r.out, r.err, want)
		}
	}
	for name, r := range runUnsafeEngines(t, `
import sun.misc.Unsafe;
public class Main {
    public static void main(String[] args) {
        Unsafe.getUnsafe().putByte(-1L, (byte) 1);
        System.out.println("unreachable");
    }
}`) {
		if r.err == nil || !strings.Contains(r.err.Error(), "InternalError") || strings.Contains(r.out, "unreachable") {
			t.Errorf("%s: uncaught fault: out %q, err %v; want an InternalError ending the VM", name, r.out, r.err)
		}
	}
}
