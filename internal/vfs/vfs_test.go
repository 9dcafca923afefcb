package vfs

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/telemetry"
)

// harness drives the asynchronous FS API from linear test code: each
// helper posts one operation and runs the event loop to completion.
type harness struct {
	t  *testing.T
	w  *browser.Window
	fs *FS
	// blocking issues every front-end call through FS.Blocking, the
	// entry point of the guests' blocking file calls.
	blocking bool
}

func newHarness(t *testing.T, p browser.Profile, mkBackend func(w *browser.Window, bufs *buffer.Factory) Backend) *harness {
	t.Helper()
	w := browser.NewWindow(p)
	bufs := &buffer.Factory{Typed: p.HasTypedArrays, ValidatesStrings: p.ValidatesStrings, OnTypedAlloc: w.NoteTypedArrayAlloc}
	fs := New(w.Loop, bufs, mkBackend(w, bufs))
	return &harness{t: t, w: w, fs: fs}
}

func (h *harness) run(fn func(done func())) {
	h.t.Helper()
	finished := false
	h.w.Loop.Post("test", func() { h.issue(func() { fn(func() { finished = true }) }) })
	if err := h.w.Loop.Run(); err != nil {
		h.t.Fatal(err)
	}
	if !finished {
		h.t.Fatal("async operation never completed")
	}
}

// issue runs call, through FS.Blocking when h.blocking is set.
func (h *harness) issue(call func()) {
	if h.blocking {
		h.fs.Blocking(call)
		return
	}
	call()
}

func (h *harness) writeFile(path string, data []byte) error {
	var out error
	h.run(func(done func()) {
		h.fs.WriteFile(path, data, func(err error) { out = err; done() })
	})
	return out
}

func (h *harness) readFile(path string) ([]byte, error) {
	return h.readFileThen(path, func(*buffer.Buffer) {})
}

// readFileThen reads path and hands the Buffer to then after taking
// its contents.
func (h *harness) readFileThen(path string, then func(*buffer.Buffer)) ([]byte, error) {
	var data []byte
	var out error
	h.run(func(done func()) {
		h.fs.ReadFile(path, func(b *buffer.Buffer, err error) {
			if b != nil {
				data = b.Bytes()
				then(b)
			}
			out = err
			done()
		})
	})
	return data, out
}

// overwrite opens path "r+", writes data over its start through the
// descriptor and closes it (sync-on-close).
func (h *harness) overwrite(path string, data []byte) error {
	var out error
	h.run(func(done func()) {
		h.fs.Open(path, "r+", func(fd *FD, err error) {
			if err != nil {
				out = err
				done()
				return
			}
			src := h.fs.BufferFactory().FromBytes(data)
			h.issue(func() {
				h.fs.Write(fd, src, 0, src.Len(), 0, func(_ int, err error) {
					out = err
					h.issue(func() {
						h.fs.Close(fd, func(err error) {
							if out == nil {
								out = err
							}
							done()
						})
					})
				})
			})
		})
	})
	return out
}

func (h *harness) appendFile(path string, data []byte) error {
	var out error
	h.run(func(done func()) { h.fs.AppendFile(path, data, func(err error) { out = err; done() }) })
	return out
}

func (h *harness) truncate(path string, size int) error {
	var out error
	h.run(func(done func()) { h.fs.Truncate(path, size, func(err error) { out = err; done() }) })
	return out
}

func (h *harness) mkdir(path string) error {
	var out error
	h.run(func(done func()) { h.fs.Mkdir(path, func(err error) { out = err; done() }) })
	return out
}

func (h *harness) readdir(path string) ([]string, error) {
	var names []string
	var out error
	h.run(func(done func()) {
		h.fs.Readdir(path, func(n []string, err error) { names, out = n, err; done() })
	})
	return names, out
}

func (h *harness) stat(path string) (Stats, error) {
	var st Stats
	var out error
	h.run(func(done func()) {
		h.fs.Stat(path, func(s Stats, err error) { st, out = s, err; done() })
	})
	return st, out
}

func (h *harness) unlink(path string) error {
	var out error
	h.run(func(done func()) { h.fs.Unlink(path, func(err error) { out = err; done() }) })
	return out
}

func (h *harness) rmdir(path string) error {
	var out error
	h.run(func(done func()) { h.fs.Rmdir(path, func(err error) { out = err; done() }) })
	return out
}

func (h *harness) rename(a, b string) error {
	var out error
	h.run(func(done func()) { h.fs.Rename(a, b, func(err error) { out = err; done() }) })
	return out
}

// backendsUnderTest builds each writable backend configuration the
// paper lists in Figure 2, plus the mountable composition.
func backendsUnderTest() map[string]func(w *browser.Window, bufs *buffer.Factory) Backend {
	return map[string]func(w *browser.Window, bufs *buffer.Factory) Backend{
		"inmemory": func(*browser.Window, *buffer.Factory) Backend { return NewInMemory() },
		"localstorage": func(w *browser.Window, bufs *buffer.Factory) Backend {
			return NewLocalStorageFS(w.LocalStorage, bufs)
		},
		"indexeddb": func(w *browser.Window, bufs *buffer.Factory) Backend {
			return NewIndexedDBFS(w.IndexedDB, bufs)
		},
		"cloud": func(w *browser.Window, bufs *buffer.Factory) Backend {
			return NewCloudFS(w.Loop, NewCloudStore(100*time.Microsecond))
		},
		"mounted": func(w *browser.Window, bufs *buffer.Factory) Backend {
			m := NewMountFS(NewInMemory())
			m.Mount("/kv", NewLocalStorageFS(w.LocalStorage, bufs))
			return m
		},
	}
}

// TestBackendConformance runs a write/read/metadata suite against
// every writable backend.
func TestBackendConformance(t *testing.T) {
	for name, mk := range backendsUnderTest() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, browser.Chrome28, mk)

			// Missing files report ENOENT.
			if _, err := h.readFile("/missing"); !IsErrno(err, ENOENT) {
				t.Errorf("readFile(missing) = %v, want ENOENT", err)
			}
			if _, err := h.stat("/missing"); !IsErrno(err, ENOENT) {
				t.Errorf("stat(missing) = %v, want ENOENT", err)
			}

			// Round trip binary content.
			payload := []byte{0, 1, 2, 0xFF, 0xD8, 0x80, 65}
			if err := h.writeFile("/a.bin", payload); err != nil {
				t.Fatalf("writeFile: %v", err)
			}
			got, err := h.readFile("/a.bin")
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("readFile = %v, %v", got, err)
			}
			st, err := h.stat("/a.bin")
			if err != nil || !st.IsFile() || st.Size != int64(len(payload)) {
				t.Errorf("stat = %+v, %v", st, err)
			}

			// Directories.
			if err := h.mkdir("/docs"); err != nil {
				t.Fatalf("mkdir: %v", err)
			}
			if err := h.mkdir("/docs"); !IsErrno(err, EEXIST) {
				t.Errorf("mkdir(existing) = %v, want EEXIST", err)
			}
			if err := h.mkdir("/no/parent"); !IsErrno(err, ENOENT) {
				t.Errorf("mkdir(no parent) = %v, want ENOENT", err)
			}
			if err := h.writeFile("/docs/x.txt", []byte("x")); err != nil {
				t.Fatalf("nested writeFile: %v", err)
			}
			st, err = h.stat("/docs")
			if err != nil || !st.IsDirectory() {
				t.Errorf("stat(dir) = %+v, %v", st, err)
			}
			names, err := h.readdir("/")
			if err != nil {
				t.Fatalf("readdir: %v", err)
			}
			wantNames := []string{"a.bin", "docs"}
			if h.fs.root.Name() == "MountableFileSystem" {
				wantNames = append(wantNames, "kv")
				sort.Strings(wantNames)
			}
			if len(names) != len(wantNames) {
				t.Errorf("readdir(/) = %v, want %v", names, wantNames)
			} else {
				for i := range names {
					if names[i] != wantNames[i] {
						t.Errorf("readdir(/) = %v, want %v", names, wantNames)
						break
					}
				}
			}

			// Reading a directory fails.
			if _, err := h.readFile("/docs"); !IsErrno(err, EISDIR) {
				t.Errorf("readFile(dir) = %v, want EISDIR", err)
			}

			// Rename.
			if err := h.rename("/a.bin", "/docs/b.bin"); err != nil {
				t.Fatalf("rename: %v", err)
			}
			if _, err := h.stat("/a.bin"); !IsErrno(err, ENOENT) {
				t.Errorf("old path still exists after rename")
			}
			got, err = h.readFile("/docs/b.bin")
			if err != nil || !bytes.Equal(got, payload) {
				t.Errorf("renamed content = %v, %v", got, err)
			}

			// Unlink and rmdir.
			if err := h.unlink("/docs"); !IsErrno(err, EISDIR) {
				t.Errorf("unlink(dir) = %v, want EISDIR", err)
			}
			if err := h.rmdir("/docs"); !IsErrno(err, ENOTEMPTY) {
				t.Errorf("rmdir(non-empty) = %v, want ENOTEMPTY", err)
			}
			if err := h.unlink("/docs/b.bin"); err != nil {
				t.Fatalf("unlink: %v", err)
			}
			if err := h.unlink("/docs/x.txt"); err != nil {
				t.Fatalf("unlink: %v", err)
			}
			if err := h.rmdir("/docs"); err != nil {
				t.Fatalf("rmdir: %v", err)
			}
			if _, err := h.stat("/docs"); !IsErrno(err, ENOENT) {
				t.Errorf("rmdir left directory behind")
			}
		})
	}
}

func TestFDLifecycle(t *testing.T) {
	h := newHarness(t, browser.Chrome28, func(*browser.Window, *buffer.Factory) Backend { return NewInMemory() })

	var fd *FD
	h.run(func(done func()) {
		h.fs.Open("/f.txt", "w+", func(f *FD, err error) {
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			fd = f
			done()
		})
	})

	src := h.fs.BufferFactory().FromBytes([]byte("hello world"))
	h.run(func(done func()) {
		h.fs.Write(fd, src, 0, src.Len(), -1, func(n int, err error) {
			if n != 11 || err != nil {
				t.Fatalf("write = %d, %v", n, err)
			}
			done()
		})
	})

	// Sync-on-close: before close the backend has no file.
	if _, err := h.readFile("/f.txt"); !IsErrno(err, ENOENT) {
		t.Errorf("file visible before close: %v", err)
	}
	h.run(func(done func()) {
		h.fs.Close(fd, func(err error) {
			if err != nil {
				t.Fatalf("close: %v", err)
			}
			done()
		})
	})
	got, err := h.readFile("/f.txt")
	if err != nil || string(got) != "hello world" {
		t.Fatalf("after close: %q, %v", got, err)
	}

	// Positional reads.
	h.run(func(done func()) {
		h.fs.Open("/f.txt", "r", func(f *FD, err error) {
			if err != nil {
				t.Fatal(err)
			}
			dst := h.fs.BufferFactory().New(5)
			h.fs.Read(f, dst, 0, 5, 6, func(n int, err error) {
				if n != 5 || err != nil {
					t.Fatalf("read = %d, %v", n, err)
				}
				if string(dst.Bytes()) != "world" {
					t.Errorf("read content = %q", dst.Bytes())
				}
				// Writing through a read-only fd fails.
				h.fs.Write(f, dst, 0, 1, -1, func(_ int, err error) {
					if !IsErrno(err, EBADF) {
						t.Errorf("write on r fd = %v, want EBADF", err)
					}
					done()
				})
			})
		})
	})
}

func TestOpenFlags(t *testing.T) {
	h := newHarness(t, browser.Chrome28, func(*browser.Window, *buffer.Factory) Backend { return NewInMemory() })
	if err := h.writeFile("/x", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	// "wx" on existing file fails.
	h.run(func(done func()) {
		h.fs.Open("/x", "wx", func(_ *FD, err error) {
			if !IsErrno(err, EEXIST) {
				t.Errorf("wx = %v, want EEXIST", err)
			}
			done()
		})
	})
	// "r" on missing file fails.
	h.run(func(done func()) {
		h.fs.Open("/missing", "r", func(_ *FD, err error) {
			if !IsErrno(err, ENOENT) {
				t.Errorf("r missing = %v, want ENOENT", err)
			}
			done()
		})
	})
	// "a" appends.
	h.run(func(done func()) {
		h.fs.Open("/x", "a", func(fd *FD, err error) {
			if err != nil {
				t.Fatal(err)
			}
			src := h.fs.BufferFactory().FromBytes([]byte("def"))
			h.fs.Write(fd, src, 0, 3, -1, func(int, error) {
				h.fs.Close(fd, func(error) { done() })
			})
		})
	})
	got, _ := h.readFile("/x")
	if string(got) != "abcdef" {
		t.Errorf("append result = %q", got)
	}
	// Bad flag string.
	h.run(func(done func()) {
		h.fs.Open("/x", "q", func(_ *FD, err error) {
			if !IsErrno(err, EINVAL) {
				t.Errorf("bad flag = %v, want EINVAL", err)
			}
			done()
		})
	})
}

func TestCallbacksAreAsynchronous(t *testing.T) {
	h := newHarness(t, browser.Chrome28, func(*browser.Window, *buffer.Factory) Backend { return NewInMemory() })
	var order []string
	h.run(func(done func()) {
		h.fs.Exists("/nope", func(bool) {
			order = append(order, "callback")
			done()
		})
		order = append(order, "after-call")
	})
	if order[0] != "after-call" {
		t.Errorf("order = %v: fs callbacks must be delivered asynchronously", order)
	}
}

// TestBlockingSettlesInline pins FS.Blocking over a backend chain that
// answers inline: the callback runs before Blocking returns, and so
// does that of a blocking call issued from it, as the class-path probe
// issues the next directory's read after a miss.
func TestBlockingSettlesInline(t *testing.T) {
	h := newHarness(t, browser.Chrome28, func(*browser.Window, *buffer.Factory) Backend {
		return Stack(NewInMemory(), WithCache(CacheOptions{}))
	})
	if err := h.writeFile("/b", []byte("bb")); err != nil {
		t.Fatal(err)
	}
	tasks := h.w.Loop.Stats().TasksRun
	var order []string
	h.run(func(done func()) {
		h.fs.Blocking(func() {
			h.fs.ReadFileBytes("/a", func(_ []byte, err error) {
				order = append(order, "miss "+string(err.(*ApiError).Errno))
				h.fs.Blocking(func() {
					h.fs.ReadFileBytes("/b", func(data []byte, err error) {
						order = append(order, "hit "+string(data))
					})
				})
				order = append(order, "nested call returned")
			})
			order = append(order, "call returned")
		})
		order = append(order, "Blocking returned")
		done()
	})
	want := "call returned, miss ENOENT, hit bb, nested call returned, Blocking returned"
	if got := strings.Join(order, ", "); got != want {
		t.Errorf("order = %s\nwant      %s", got, want)
	}
	if n := h.w.Loop.Stats().TasksRun - tasks; n != 1 {
		t.Errorf("%d macrotasks ran; inline delivery needs only the test's own", n)
	}
}

// TestBlockingLeavesNodeStyleAsync pins the hold's scope: Node-style
// calls still pending while a blocking call completes inline, and one
// issued from the blocking callback, get their callbacks from "fs-cb"
// macrotasks, never before their own call returns. One pending call's
// backend answered inline (its callback is already posted), the other's
// answers later (an OSBackend mount).
func TestBlockingLeavesNodeStyleAsync(t *testing.T) {
	h := newHarness(t, browser.Chrome28, func(w *browser.Window, _ *buffer.Factory) Backend {
		m := NewMountFS(NewInMemory())
		m.Mount("/slow", NewOSBackend(w.Loop, t.TempDir()))
		return m
	})
	if err := h.writeFile("/a", []byte("a")); err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub().EnableTracing()
	h.w.Loop.EnableTelemetry(hub)
	var order []string
	h.run(func(done func()) {
		left := 3
		nodeStyle := func(name, p string) {
			returned := false
			h.fs.Stat(p, func(_ Stats, err error) {
				if !returned || err != nil {
					t.Errorf("%s: callback before its call returned (%v), err %v", name, !returned, err)
				}
				hub.Tracer.Instant(telemetry.TIDEventLoop, "test", name)
				order = append(order, name)
				if left--; left == 0 {
					done()
				}
			})
			returned = true
		}
		nodeStyle("later", "/slow")
		nodeStyle("posted", "/a")
		h.fs.Blocking(func() {
			h.fs.Stat("/a", func(Stats, error) {
				order = append(order, "blocking")
				nodeStyle("from blocking callback", "/a")
			})
		})
		order = append(order, "Blocking returned")
	})
	if len(order) != 5 || order[0] != "blocking" || order[1] != "Blocking returned" {
		t.Fatalf("order = %q: only the blocking call may complete inline", order)
	}
	// Each callback's instant sits inside the next macrotask span the
	// trace records.
	var open []string
	checked := 0
	for _, ev := range hub.Tracer.Events() {
		switch {
		case ev.Cat == "test":
			open = append(open, ev.Name)
		case ev.Ph == "X" && ev.TID == telemetry.TIDEventLoop:
			for _, name := range open {
				if ev.Name != "fs-cb" {
					t.Errorf("%s: callback ran in macrotask %q, want fs-cb", name, ev.Name)
				}
			}
			checked += len(open)
			open = nil
		}
	}
	if checked != 3 {
		t.Errorf("found %d of 3 Node-style callbacks in the trace", checked)
	}
}

func TestChdirAndRelativePaths(t *testing.T) {
	h := newHarness(t, browser.Chrome28, func(*browser.Window, *buffer.Factory) Backend { return NewInMemory() })
	if err := h.mkdir("/home"); err != nil {
		t.Fatal(err)
	}
	h.run(func(done func()) {
		h.fs.Chdir("/home", func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			done()
		})
	})
	if h.fs.Cwd() != "/home" {
		t.Fatalf("cwd = %q", h.fs.Cwd())
	}
	if err := h.writeFile("rel.txt", []byte("r")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.stat("/home/rel.txt"); err != nil {
		t.Errorf("relative write landed elsewhere: %v", err)
	}
	h.run(func(done func()) {
		h.fs.Chdir("/home/rel.txt", func(err error) {
			if !IsErrno(err, ENOTDIR) {
				t.Errorf("chdir(file) = %v, want ENOTDIR", err)
			}
			done()
		})
	})
	h.run(func(done func()) {
		h.fs.Chdir("/missing", func(err error) {
			if !IsErrno(err, ENOENT) {
				t.Errorf("chdir(missing) = %v, want ENOENT", err)
			}
			done()
		})
	})
}

func TestMkdirAllAndAppendFile(t *testing.T) {
	h := newHarness(t, browser.Chrome28, func(*browser.Window, *buffer.Factory) Backend { return NewInMemory() })
	h.run(func(done func()) {
		h.fs.MkdirAll("/a/b/c", func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			done()
		})
	})
	if st, err := h.stat("/a/b/c"); err != nil || !st.IsDirectory() {
		t.Fatalf("MkdirAll: %+v, %v", st, err)
	}
	var appendErr error
	h.run(func(done func()) {
		h.fs.AppendFile("/a/b/c/log", []byte("one"), func(err error) { appendErr = err; done() })
	})
	if appendErr != nil {
		t.Fatal(appendErr)
	}
	h.run(func(done func()) {
		h.fs.AppendFile("/a/b/c/log", []byte("two"), func(err error) { appendErr = err; done() })
	})
	got, _ := h.readFile("/a/b/c/log")
	if string(got) != "onetwo" {
		t.Errorf("append = %q", got)
	}
}

func TestTruncate(t *testing.T) {
	h := newHarness(t, browser.Chrome28, func(*browser.Window, *buffer.Factory) Backend { return NewInMemory() })
	if err := h.writeFile("/t", []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	h.run(func(done func()) {
		h.fs.Truncate("/t", 3, func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			done()
		})
	})
	got, _ := h.readFile("/t")
	if string(got) != "abc" {
		t.Errorf("truncate = %q", got)
	}
	h.run(func(done func()) {
		h.fs.Truncate("/t", 5, func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			done()
		})
	})
	got, _ = h.readFile("/t")
	if !bytes.Equal(got, []byte{'a', 'b', 'c', 0, 0}) {
		t.Errorf("grow-truncate = %v", got)
	}
}

func TestSymlinks(t *testing.T) {
	h := newHarness(t, browser.Chrome28, func(*browser.Window, *buffer.Factory) Backend { return NewInMemory() })
	if err := h.writeFile("/target", []byte("data")); err != nil {
		t.Fatal(err)
	}
	h.run(func(done func()) {
		h.fs.Symlink("/target", "/link", func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			done()
		})
	})
	got, err := h.readFile("/link")
	if err != nil || string(got) != "data" {
		t.Errorf("read through symlink = %q, %v", got, err)
	}
	h.run(func(done func()) {
		h.fs.Readlink("/link", func(target string, err error) {
			if err != nil || target != "/target" {
				t.Errorf("readlink = %q, %v", target, err)
			}
			done()
		})
	})
	// A relative target resolves against the link's own directory,
	// whether the link ends the path or sits in its middle.
	for _, dir := range []string{"/d", "/d/sub"} {
		if err := h.mkdir(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.writeFile("/d/sub/f", []byte("sub data")); err != nil {
		t.Fatal(err)
	}
	h.run(func(done func()) {
		h.fs.Symlink("sub", "/d/rel", func(err error) {
			if err != nil {
				t.Error(err)
			}
			done()
		})
	})
	if st, err := h.stat("/d/rel"); err != nil || !st.IsDirectory() {
		t.Errorf("stat(/d/rel) = %+v, %v; want the directory /d/sub", st, err)
	}
	if got, err := h.readFile("/d/rel/f"); err != nil || string(got) != "sub data" {
		t.Errorf("read(/d/rel/f) = %q, %v; want \"sub data\"", got, err)
	}
	// Backends without link support report ENOTSUP.
	h2 := newHarness(t, browser.Chrome28, func(w *browser.Window, bufs *buffer.Factory) Backend {
		return NewLocalStorageFS(w.LocalStorage, bufs)
	})
	h2.run(func(done func()) {
		h2.fs.Symlink("/a", "/b", func(err error) {
			if !IsErrno(err, ENOTSUP) {
				t.Errorf("symlink on kv = %v, want ENOTSUP", err)
			}
			done()
		})
	})
}

func TestHTTPFSReadOnly(t *testing.T) {
	h := newHarness(t, browser.Chrome28, func(w *browser.Window, bufs *buffer.Factory) Backend {
		w.Remote.Serve("classes/java/lang/Object.class", []byte{0xCA, 0xFE, 0xBA, 0xBE})
		w.Remote.Serve("classes/java/lang/String.class", []byte{0xCA, 0xFE})
		w.Remote.Serve("index.html", []byte("<html>"))
		return NewHTTPFS(w.Loop, w.Remote, "classes")
	})
	// The prefix filter hides index.html.
	names, err := h.readdir("/")
	if err != nil || len(names) != 1 || names[0] != "java" {
		t.Fatalf("readdir(/) = %v, %v", names, err)
	}
	names, err = h.readdir("/java/lang")
	if err != nil || len(names) != 2 {
		t.Fatalf("readdir(/java/lang) = %v, %v", names, err)
	}
	got, err := h.readFile("/java/lang/Object.class")
	if err != nil || !bytes.Equal(got, []byte{0xCA, 0xFE, 0xBA, 0xBE}) {
		t.Fatalf("readFile = %v, %v", got, err)
	}
	// Stats use HEAD and report sizes.
	st, err := h.stat("/java/lang/String.class")
	if err != nil || st.Size != 2 {
		t.Errorf("stat = %+v, %v", st, err)
	}
	// Writes fail with EROFS at the front end.
	if err := h.writeFile("/java/x", []byte("n")); !IsErrno(err, EROFS) {
		t.Errorf("writeFile = %v, want EROFS", err)
	}
	if err := h.unlink("/java/lang/Object.class"); !IsErrno(err, EROFS) {
		t.Errorf("unlink = %v, want EROFS", err)
	}
	// Opening a descriptor for write fails too.
	h.run(func(done func()) {
		h.fs.Open("/java/lang/Object.class", "w", func(_ *FD, err error) {
			if !IsErrno(err, EROFS) {
				t.Errorf("open w = %v, want EROFS", err)
			}
			done()
		})
	})
}

func TestMountFSRouting(t *testing.T) {
	var store *CloudStore
	h := newHarness(t, browser.Chrome28, func(w *browser.Window, bufs *buffer.Factory) Backend {
		store = NewCloudStore(50 * time.Microsecond)
		m := NewMountFS(NewInMemory())
		m.Mount("/cloud", NewCloudFS(w.Loop, store))
		m.Mount("/tmp", NewInMemory())
		return m
	})
	if err := h.writeFile("/cloud/remote.txt", []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := h.writeFile("/tmp/local.txt", []byte("l")); err != nil {
		t.Fatal(err)
	}
	if err := h.writeFile("/root.txt", []byte("r")); err != nil {
		t.Fatal(err)
	}
	// The cloud store received the bytes under the translated path.
	if data, ok := store.files["/remote.txt"]; !ok || string(data) != "c" {
		t.Errorf("cloud store contents = %v, %v", data, ok)
	}
	// Mount points appear in the root listing.
	names, err := h.readdir("/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cloud", "root.txt", "tmp"}
	if len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Errorf("readdir(/) = %v, want %v", names, want)
	}
	// Mount points stat as directories.
	if st, err := h.stat("/cloud"); err != nil || !st.IsDirectory() {
		t.Errorf("stat(mount) = %+v, %v", st, err)
	}
	// Cross-backend rename reports EXDEV.
	if err := h.rename("/tmp/local.txt", "/cloud/moved.txt"); !IsErrno(err, EXDEV) {
		t.Errorf("cross-mount rename = %v, want EXDEV", err)
	}
	// Same-backend rename works through the mount.
	if err := h.rename("/cloud/remote.txt", "/cloud/renamed.txt"); err != nil {
		t.Errorf("in-mount rename: %v", err)
	}
	// Removing a mount point is forbidden.
	if err := h.rmdir("/tmp"); !IsErrno(err, EPERM) {
		t.Errorf("rmdir(mount point) = %v, want EPERM", err)
	}
	// Unmount restores the root view.
	m := h.fs.Root().(*MountFS)
	if !m.Unmount("/tmp") || m.Unmount("/tmp") {
		t.Error("Unmount bookkeeping wrong")
	}
}

func TestLocalStorageQuotaBecomesENOSPC(t *testing.T) {
	h := newHarness(t, browser.Chrome28, func(w *browser.Window, bufs *buffer.Factory) Backend {
		return NewLocalStorageFS(browser.NewLocalStorage(256), bufs)
	})
	big := make([]byte, 4096)
	if err := h.writeFile("/big", big); !IsErrno(err, ENOSPC) {
		t.Errorf("over-quota write = %v, want ENOSPC", err)
	}
}

func TestDeepDirectoryRenameOnKV(t *testing.T) {
	h := newHarness(t, browser.Chrome28, func(w *browser.Window, bufs *buffer.Factory) Backend {
		return NewLocalStorageFS(w.LocalStorage, bufs)
	})
	if err := h.mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := h.mkdir("/d/sub"); err != nil {
		t.Fatal(err)
	}
	if err := h.writeFile("/d/sub/f.txt", []byte("deep")); err != nil {
		t.Fatal(err)
	}
	if err := h.rename("/d", "/e"); err != nil {
		t.Fatal(err)
	}
	got, err := h.readFile("/e/sub/f.txt")
	if err != nil || string(got) != "deep" {
		t.Errorf("after dir rename: %q, %v", got, err)
	}
	if _, err := h.stat("/d"); !IsErrno(err, ENOENT) {
		t.Errorf("old tree still present: %v", err)
	}
}

func TestOpsCounterAndHook(t *testing.T) {
	h := newHarness(t, browser.Chrome28, func(*browser.Window, *buffer.Factory) Backend { return NewInMemory() })
	var ops []string
	h.fs.OnOp = func(op, path string) { ops = append(ops, op) }
	if err := h.writeFile("/x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.stat("/x"); err != nil {
		t.Fatal(err)
	}
	if h.fs.Ops != 2 || len(ops) != 2 || ops[0] != "writeFile" || ops[1] != "stat" {
		t.Errorf("Ops = %d, hook = %v", h.fs.Ops, ops)
	}
}
