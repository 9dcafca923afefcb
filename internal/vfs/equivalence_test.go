package vfs

import (
	"fmt"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/vfs/faultfs"
	"doppio/internal/vfs/retry"
)

// sealed is a test-only decorator that holds the slices Open delivers
// to Backend.Open's read-only contract: it fingerprints each one, and
// verify fails if any changed afterwards.
type sealed struct {
	Backend
	reads []sealedRead
}

type sealedRead struct {
	path string
	data []byte // the slice Open delivered
	want string // its contents at delivery
}

func seal(b Backend) *sealed { return &sealed{Backend: b} }

func (s *sealed) Open(p string, cb func([]byte, error)) {
	s.Backend.Open(p, func(data []byte, err error) {
		if err == nil {
			s.reads = append(s.reads, sealedRead{p, data, string(data)})
		}
		cb(data, err)
	})
}

// verify fails t if any slice Open delivered has changed since.
func (s *sealed) verify(t *testing.T) {
	t.Helper()
	for i, r := range s.reads {
		if string(r.data) != r.want {
			t.Errorf("Open #%d of %s delivered %q, which later changed to %q", i, r.path, r.want, r.data)
			return
		}
	}
}

// TestBackendEquivalence drives the same pseudo-random operation
// sequence against every writable backend and requires identical
// observable outcomes — the §5.1 contract that the unified API gives
// "full-featured read/write functionality" regardless of the storage
// mechanism underneath. Every backend also runs wrapped in the caching
// decorator: the cache must be observationally invisible. The stream
// mixes file writes with mkdir, rmdir, unlink and rename of files and
// directories alike. Each variant runs sealed: the op stream mutates
// files through AppendFile and the Buffers ReadFile returns, and no
// slice any Open delivered may change. It also overwrites every
// Readdir result, which belongs to its caller: a backend or decorator
// that hands out a listing it keeps serves the scribbles back. A
// prologue renames a non-empty directory onto itself and then into its
// own subtree, which FS.Rename answers for every backend. The blocking arm drives
// the same stream through FS.Blocking, the guests' blocking entry
// point, on every variant and the bare InMemory backend: delivering
// inline answers inline must not change a single result.
func TestBackendEquivalence(t *testing.T) {
	type opResult struct {
		op   string
		err  string
		data string
	}
	runSequence := func(t *testing.T, blocking bool, mk func(w *browser.Window, bufs *buffer.Factory) Backend) []opResult {
		var root *sealed
		h := newHarness(t, browser.Chrome28, func(w *browser.Window, bufs *buffer.Factory) Backend {
			root = seal(mk(w, bufs))
			return root
		})
		h.blocking = blocking
		defer root.verify(t)
		var results []opResult
		record := func(op string, data string, err error) {
			r := opResult{op: op, data: data}
			if err != nil {
				if ae, ok := err.(*ApiError); ok {
					r.err = string(ae.Errno)
				} else {
					r.err = "ERR"
				}
			}
			results = append(results, r)
		}
		// Deterministic pseudo-random op stream.
		seed := uint32(12345)
		next := func(n int) int {
			seed = seed*1664525 + 1013904223
			return int(seed>>16) % n
		}
		paths := []string{"/a", "/b", "/dir/c", "/dir/d", "/dir/sub/e"}
		h.mkdir("/dir")
		h.mkdir("/dir/sub")
		// The prologue: a non-empty directory renamed onto itself, then
		// into its own subtree, which must leave it in place.
		record("rename /dir /dir", "", h.rename("/dir", "/dir"))
		record("rename /dir /dir/sub/x", "", h.rename("/dir", "/dir/sub/x"))
		names, err := h.readdir("/dir")
		record("readdir", fmt.Sprint(names), err)
		for i := 0; i < 160; i++ {
			p := paths[next(len(paths))]
			switch next(10) {
			case 0:
				err := h.writeFile(p, []byte(fmt.Sprintf("content-%d", i)))
				record("write "+p, "", err)
			case 1:
				data, err := h.readFile(p)
				record("read "+p, string(data), err)
			case 2:
				st, err := h.stat(p)
				record("stat "+p, fmt.Sprint(st.Size), err)
			case 3:
				err := h.unlink(p)
				record("unlink "+p, "", err)
			case 4:
				names, err := h.readdir("/dir")
				record("readdir", fmt.Sprint(names), err)
				for j := range names {
					names[j] = "#"
				}
			case 5:
				other := paths[next(len(paths))]
				err := h.rename(p, other)
				record("rename "+p+" "+other, "", err)
			case 6:
				record("mkdir "+p, "", h.mkdir(p))
			case 7:
				err := h.appendFile(p, []byte(fmt.Sprintf("+%d", i)))
				record("append "+p, "", err)
			case 8:
				record("rmdir "+p, "", h.rmdir(p))
			case 9:
				// Scribble over the returned Buffer: the stored file
				// must not change.
				data, err := h.readFileThen(p, func(b *buffer.Buffer) { b.Fill('#', 0, b.Len()) })
				record("read+scribble "+p, string(data), err)
			}
		}
		return results
	}

	reference := runSequence(t, false, func(*browser.Window, *buffer.Factory) Backend {
		return NewInMemory()
	})
	prologue := []opResult{
		{op: "rename /dir /dir"},
		{op: "rename /dir /dir/sub/x", err: string(EINVAL)},
		{op: "readdir", data: "[sub]"},
	}
	for i, want := range prologue {
		if reference[i] != want {
			t.Fatalf("inmemory prologue step %d = %+v, want %+v", i, reference[i], want)
		}
	}
	compare := func(t *testing.T, name string, got []opResult) {
		t.Helper()
		if len(got) != len(reference) {
			t.Fatalf("%s: %d results vs %d", name, len(got), len(reference))
		}
		for i := range got {
			if got[i] != reference[i] {
				t.Errorf("%s diverges at step %d (%s):\n  inmemory: %+v\n  %s: %+v",
					name, i, got[i].op, reference[i], name, got[i])
				break
			}
		}
	}

	// Base backend constructors; the cached variants below reuse them.
	base := map[string]func(w *browser.Window, bufs *buffer.Factory) Backend{
		"inmemory": func(*browser.Window, *buffer.Factory) Backend {
			return NewInMemory()
		},
		"localstorage": func(w *browser.Window, bufs *buffer.Factory) Backend {
			return NewLocalStorageFS(w.LocalStorage, bufs)
		},
		"indexeddb": func(w *browser.Window, bufs *buffer.Factory) Backend {
			return NewIndexedDBFS(w.IndexedDB, bufs)
		},
		"cloud": func(w *browser.Window, bufs *buffer.Factory) Backend {
			return NewCloudFS(w.Loop, NewCloudStore(0))
		},
		// The op stream never touches /shadow, so the mount must be
		// invisible to it.
		"mounted": func(w *browser.Window, bufs *buffer.Factory) Backend {
			m := NewMountFS(NewInMemory())
			m.Mount("/shadow", NewLocalStorageFS(w.LocalStorage, bufs))
			return m
		},
	}

	type variant struct {
		name string
		mk   func(w *browser.Window, bufs *buffer.Factory) Backend
	}
	var variants []variant
	for name, mk := range base {
		mk := mk
		if name != "inmemory" {
			variants = append(variants, variant{name, mk})
		}
		variants = append(variants, variant{"cached-" + name,
			func(w *browser.Window, bufs *buffer.Factory) Backend {
				return NewCached(mk(w, bufs), CacheOptions{})
			}})
		// The decorator stack at fault rate 0: the fault and retry
		// layers must be observationally invisible on a healthy backend.
		variants = append(variants, variant{"stack-faults0-" + name,
			func(w *browser.Window, bufs *buffer.Factory) Backend {
				return Stack(mk(w, bufs),
					WithFaults(faultfs.Plan{Seed: 42, ErrRate: 0, ShortRate: 0}),
					WithRetry(RetryOptions{Loop: w.Loop}),
				)
			}})
		// 10% injected faults (a quarter of them post-commit lost acks,
		// plus short reads): the retry layer must absorb every one, so
		// the op stream is bit-identical to the bare backend's.
		variants = append(variants, variant{"stack-retry-faults10-" + name,
			func(w *browser.Window, bufs *buffer.Factory) Backend {
				return Stack(mk(w, bufs),
					WithFaults(faultfs.Plan{Seed: 42, ErrRate: 0.1, PostFrac: 0.25, ShortRate: 0.05}),
					WithRetry(RetryOptions{Policy: retry.Policy{
						MaxAttempts: 8, BaseDelay: 50 * time.Microsecond,
						MaxDelay: 500 * time.Microsecond, Jitter: 0.2, Seed: 42,
					}, Loop: w.Loop}),
				)
			}})
		// The full stack — faults, retry, and cache together.
		variants = append(variants, variant{"stack-full-" + name,
			func(w *browser.Window, bufs *buffer.Factory) Backend {
				return Stack(mk(w, bufs),
					WithFaults(faultfs.Plan{Seed: 7, ErrRate: 0.1, PostFrac: 0.25, ShortRate: 0.05}),
					WithRetry(RetryOptions{Policy: retry.Policy{
						MaxAttempts: 8, BaseDelay: 50 * time.Microsecond,
						MaxDelay: 500 * time.Microsecond, Jitter: 0.2, Seed: 7,
					}, Loop: w.Loop}),
					WithCache(CacheOptions{}),
				)
			}})
	}
	// A tight budget forces constant eviction; correctness must not
	// depend on residency.
	variants = append(variants, variant{"cached-tiny-budget",
		func(*browser.Window, *buffer.Factory) Backend {
			return NewCached(NewInMemory(), CacheOptions{ByteBudget: 16})
		}})

	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			compare(t, v.name, runSequence(t, false, v.mk))
		})
	}
	for _, v := range append([]variant{{"inmemory", base["inmemory"]}}, variants...) {
		v := v
		t.Run("blocking-"+v.name, func(t *testing.T) {
			compare(t, "blocking-"+v.name, runSequence(t, true, v.mk))
		})
	}
}

// TestReadOnlyBackendCacheEquivalence checks the fifth backend kind:
// a cached HTTPFS must be observationally identical to a bare one,
// including EROFS on mutation attempts and ENOENT probes.
func TestReadOnlyBackendCacheEquivalence(t *testing.T) {
	type result struct {
		op, err, data string
	}
	runSequence := func(cached bool) []result {
		var root *sealed
		h := newHarness(t, browser.Chrome28, func(w *browser.Window, bufs *buffer.Factory) Backend {
			w.Remote.Serve("assets/logo.png", []byte{1, 2, 3})
			w.Remote.Serve("assets/maps/level1.json", []byte(`{"w":8}`))
			w.Remote.Serve("assets/maps/level2.json", []byte(`{"w":9}`))
			b := Backend(NewHTTPFS(w.Loop, w.Remote, "assets"))
			if cached {
				b = NewCached(b, CacheOptions{})
			}
			root = seal(b)
			return root
		})
		defer root.verify(t)
		var results []result
		record := func(op, data string, err error) {
			r := result{op: op, data: data}
			if err != nil {
				if ae, ok := err.(*ApiError); ok {
					r.err = string(ae.Errno)
				} else {
					r.err = "ERR"
				}
			}
			results = append(results, r)
		}
		for round := 0; round < 2; round++ {
			for _, p := range []string{"/logo.png", "/maps/level1.json", "/maps/level2.json", "/missing.png"} {
				data, err := h.readFileThen(p, func(b *buffer.Buffer) { b.Fill('#', 0, b.Len()) })
				record("read "+p, string(data), err)
				st, err := h.stat(p)
				record("stat "+p, fmt.Sprint(st.Size), err)
			}
			names, err := h.readdir("/maps")
			record("readdir /maps", fmt.Sprint(names), err)
			record("write", "", h.writeFile("/new.txt", []byte("x")))
			record("unlink", "", h.unlink("/logo.png"))
			record("rename", "", h.rename("/logo.png", "/logo2.png"))
			record("rmdir", "", h.rmdir("/maps"))
		}
		return results
	}
	plain := runSequence(false)
	cached := runSequence(true)
	if len(plain) != len(cached) {
		t.Fatalf("result count: %d vs %d", len(plain), len(cached))
	}
	for i := range plain {
		if plain[i] != cached[i] {
			t.Errorf("cached HTTPFS diverges at step %d:\n  plain:  %+v\n  cached: %+v",
				i, plain[i], cached[i])
		}
	}
}
