package jvm_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/jvm"
	"doppio/internal/jvm/rt"
	"doppio/internal/vfs"
)

// fileOpsMain writes, stats and reads back n files through
// doppio.io.FileSystem: 3n blocking file ops.
func fileOpsMain(n int) string {
	return fmt.Sprintf(`
import doppio.io.FileSystem;

public class Main {
    public static void main(String[] args) {
        long total = 0;
        for (int i = 0; i < %d; i++) {
            String p = "/f" + i;
            byte[] data = new byte[i %% 7 + 1];
            data[0] = (byte) i;
            FileSystem.writeFile(p, data);
            total = total + FileSystem.length(p);
            total = total + FileSystem.readFile(p)[0];
        }
        System.out.println(total);
    }
}`, n)
}

// runFileOps runs classes over backend on the Doppio engine with a
// timeslice too long to expire, so every suspension is a file op
// crossing the suspend/resume bridge. It returns the output and the
// suspension count.
func runFileOps(t *testing.T, classes map[string][]byte, quicken bool, backend func(*browser.Window) vfs.Backend) (string, int) {
	t.Helper()
	win := browser.NewWindow(browser.Chrome28)
	fs := vfs.New(win.Loop, &buffer.Factory{Typed: true}, backend(win))
	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		FS:               &jvm.VFSHostFS{FS: fs},
		DisableEngineTax: true,
		Timeslice:        time.Hour,
		Quicken:          quicken,
	})
	if err := vm.RunMain("Main", nil); err != nil {
		t.Fatalf("RunMain: %v\n%s", err, stdout.String())
	}
	return stdout.String(), vm.Runtime().Stats().Suspensions
}

// TestDoppioFileOpsSettleInline pins vfs.FS.Blocking under the JVM's
// file natives. Over a cached InMemory stack every op settles before
// the thread would suspend, so ten times the ops cost no more
// suspensions; over the asynchronous OS backend the same program
// prints the same output and suspends at least once per op.
func TestDoppioFileOpsSettleInline(t *testing.T) {
	const few, many = 10, 100
	compile := func(n int) map[string][]byte {
		classes, err := rt.CompileWith(map[string]string{"Main.mj": fileOpsMain(n)})
		if err != nil {
			t.Fatal(err)
		}
		return classes
	}
	fewClasses, manyClasses := compile(few), compile(many)
	inline := func(*browser.Window) vfs.Backend {
		return vfs.Stack(vfs.NewInMemory(), vfs.WithCache(vfs.CacheOptions{}))
	}
	for _, quicken := range []bool{false, true} {
		t.Run(fmt.Sprintf("quicken=%v", quicken), func(t *testing.T) {
			_, fewSusp := runFileOps(t, fewClasses, quicken, inline)
			want, manySusp := runFileOps(t, manyClasses, quicken, inline)
			if manySusp != fewSusp {
				t.Errorf("suspensions grow with file ops: %d for %d ops, %d for %d", fewSusp, 3*few, manySusp, 3*many)
			}
			got, asyncSusp := runFileOps(t, manyClasses, quicken, func(w *browser.Window) vfs.Backend {
				return vfs.NewOSBackend(w.Loop, t.TempDir())
			})
			t.Logf("suspensions: %d and %d inline, %d over the OS backend", fewSusp, manySusp, asyncSusp)
			if got != want {
				t.Errorf("OS backend printed %q, cached InMemory %q", got, want)
			}
			if asyncSusp < 3*many {
				t.Errorf("OS backend: %d suspensions for %d file ops; an asynchronous backend must still suspend", asyncSusp, 3*many)
			}
		})
	}
}

// TestClassPathProbeSettlesInline pins the class-path probe: a miss in
// the first directory issues the next directory's read from its
// callback, and over a backend that answers inline the class bytes
// still arrive before BytesAsync returns.
func TestClassPathProbeSettlesInline(t *testing.T) {
	win := browser.NewWindow(browser.Chrome28)
	store := vfs.NewInMemory()
	store.Mkdir("/lib", func(error) {})
	store.Sync("/lib/Main.class", []byte{0xCA, 0xFE}, func(error) {})
	fs := vfs.New(win.Loop, &buffer.Factory{Typed: true}, vfs.Stack(store, vfs.WithCache(vfs.CacheOptions{})))
	p := &jvm.VFSClassProvider{FS: fs, Dirs: []string{"/missing", "/lib"}}
	var got []byte
	var gotErr error
	delivered := false
	win.Loop.Post("load", func() {
		p.BytesAsync("Main", func(data []byte, err error) {
			got, gotErr, delivered = data, err, true
		})
		if !delivered {
			t.Error("class bytes not delivered before BytesAsync returned")
		}
	})
	if err := win.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if gotErr != nil || !bytes.Equal(got, []byte{0xCA, 0xFE}) {
		t.Errorf("BytesAsync = %x, %v", got, gotErr)
	}
}
