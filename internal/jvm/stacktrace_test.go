package jvm_test

import (
	"fmt"
	"testing"
	"time"
)

// goldenTraceProgram prints stack traces three ways: printStackTrace
// on an exception built deep in a call chain and returned (not thrown)
// to main after churn has popped and reused those frames, traces of
// exceptions the VM raised and main caught, and the uncaught-exception
// banner for the returned exception, rethrown from main.
const goldenTraceProgram = `
class Boom extends RuntimeException {
    Boom(String m) { super(m); }
}
public class Main {
    static RuntimeException make(int depth) {
        if (depth == 0) {
            return new Boom("made deep");
        }
        return make(depth - 1);
    }
    static void thrower(int depth) {
        if (depth == 0) {
            throw new IllegalStateException("thrown deep");
        }
        thrower(depth - 1);
    }
    static int divide(int a, int b) {
        return a / b;
    }
    static int churn(int n) {
        if (n == 0) {
            return 0;
        }
        return churn(n - 1) + divide(n, 1);
    }
    public static void main(String[] args) {
        RuntimeException made = make(3);
        int sink = 0;
        for (int i = 0; i < 100; i++) {
            sink += churn(4);
        }
        made.printStackTrace();
        try {
            thrower(2);
        } catch (IllegalStateException e) {
            e.printStackTrace();
        }
        try {
            sink += divide(1, 0);
        } catch (ArithmeticException e) {
            e.printStackTrace();
        }
        int[] xs = new int[2];
        try {
            xs[sink] = 1;
        } catch (ArrayIndexOutOfBoundsException e) {
            e.printStackTrace();
        }
        System.out.println(sink);
        throw made;
    }
}`

// goldenTrace is goldenTraceProgram's output, stdout and stderr
// interleaved, with the uncaught banner's engine-specific thread id
// as %d. Traces are formatted only when printed, from (method, pc)
// pairs captured at construction: the text must not depend on when it
// is formatted or on which frames were reused in between.
const goldenTrace = `Boom: made deep
	at java.lang.Throwable.<init>(pc=13)
	at java.lang.Exception.<init>(pc=5)
	at java.lang.RuntimeException.<init>(pc=5)
	at Boom.<init>(pc=5)
	at Main.make(pc=22)
	at Main.make(pc=29)
	at Main.make(pc=29)
	at Main.make(pc=29)
	at Main.main(pc=4)
java.lang.IllegalStateException: thrown deep
	at java.lang.Throwable.<init>(pc=13)
	at java.lang.Exception.<init>(pc=5)
	at java.lang.RuntimeException.<init>(pc=5)
	at java.lang.IllegalStateException.<init>(pc=5)
	at Main.thrower(pc=22)
	at Main.thrower(pc=29)
	at Main.thrower(pc=29)
	at Main.main(pc=44)
java.lang.ArithmeticException: / by zero
	at Main.divide(pc=2)
	at Main.main(pc=63)
java.lang.ArrayIndexOutOfBoundsException: 1000
	at Main.main(pc=87)
1000
Exception in thread %d Boom: made deep
	at java.lang.Throwable.<init>(pc=13)
	at java.lang.Exception.<init>(pc=5)
	at java.lang.RuntimeException.<init>(pc=5)
	at Boom.<init>(pc=5)
	at Main.make(pc=22)
	at Main.make(pc=29)
	at Main.make(pc=29)
	at Main.make(pc=29)
	at Main.main(pc=4)
`

func TestStackTraceGolden(t *testing.T) {
	for _, quicken := range []bool{false, true} {
		out, err, _ := runDoppioQuick(t, goldenTraceProgram, quicken, 2*time.Millisecond)
		checkGoldenTrace(t, fmt.Sprintf("doppio quicken=%v", quicken), out, err, 1)
	}
	out, err := runNativeErr(t, goldenTraceProgram)
	checkGoldenTrace(t, "native", out, err, 0)
}

func checkGoldenTrace(t *testing.T, name, out string, err error, thread int) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: the rethrown exception should end the run uncaught", name)
	}
	if want := fmt.Sprintf(goldenTrace, thread); out != want {
		t.Errorf("%s: trace output differs\ngot:\n%s\nwant:\n%s", name, out, want)
	}
}
