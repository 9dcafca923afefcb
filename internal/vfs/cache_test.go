package vfs

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"doppio/internal/browser"
	"doppio/internal/buffer"
)

// loggedBackend records every operation that reaches the wrapped
// backend, so tests can assert exactly which calls a cache absorbed.
type loggedBackend struct {
	b   Backend
	log *[]string
}

func (l *loggedBackend) rec(format string, args ...interface{}) {
	*l.log = append(*l.log, fmt.Sprintf(format, args...))
}

func (l *loggedBackend) Name() string   { return l.b.Name() }
func (l *loggedBackend) ReadOnly() bool { return l.b.ReadOnly() }

func (l *loggedBackend) Stat(p string, cb func(Stats, error)) { l.rec("stat %s", p); l.b.Stat(p, cb) }
func (l *loggedBackend) Open(p string, cb func([]byte, error)) {
	l.rec("open %s", p)
	l.b.Open(p, cb)
}
func (l *loggedBackend) Sync(p string, data []byte, cb func(error)) {
	l.rec("sync %s", p)
	l.b.Sync(p, data, cb)
}
func (l *loggedBackend) Unlink(p string, cb func(error)) { l.rec("unlink %s", p); l.b.Unlink(p, cb) }
func (l *loggedBackend) Rmdir(p string, cb func(error))  { l.rec("rmdir %s", p); l.b.Rmdir(p, cb) }
func (l *loggedBackend) Mkdir(p string, cb func(error))  { l.rec("mkdir %s", p); l.b.Mkdir(p, cb) }
func (l *loggedBackend) Readdir(p string, cb func([]string, error)) {
	l.rec("readdir %s", p)
	l.b.Readdir(p, cb)
}
func (l *loggedBackend) Rename(o, n string, cb func(error)) {
	l.rec("rename %s %s", o, n)
	l.b.Rename(o, n, cb)
}

func countOps(log []string, op string) int {
	n := 0
	for _, e := range log {
		if strings.HasPrefix(e, op+" ") {
			n++
		}
	}
	return n
}

// The InMemory backend invokes callbacks synchronously, so direct
// backend-level tests can capture results inline.

func bStat(b Backend, p string) (Stats, error) {
	var st Stats
	var out error
	b.Stat(p, func(s Stats, err error) { st, out = s, err })
	return st, out
}

func bOpen(b Backend, p string) ([]byte, error) {
	var data []byte
	var out error
	b.Open(p, func(d []byte, err error) { data, out = d, err })
	return data, out
}

func bSync(b Backend, p string, data []byte) error {
	var out error
	b.Sync(p, data, func(err error) { out = err })
	return out
}

func bUnlink(b Backend, p string) error {
	var out error
	b.Unlink(p, func(err error) { out = err })
	return out
}

func bMkdir(b Backend, p string) error {
	var out error
	b.Mkdir(p, func(err error) { out = err })
	return out
}

func bReaddir(b Backend, p string) ([]string, error) {
	var names []string
	var out error
	b.Readdir(p, func(n []string, err error) { names, out = n, err })
	return names, out
}

func bRename(b Backend, o, n string) error {
	var out error
	b.Rename(o, n, func(err error) { out = err })
	return out
}

func cacheStatsOf(t *testing.T, b Backend) CacheStats {
	t.Helper()
	cs, ok := b.(CacheStatser)
	if !ok {
		t.Fatal("cached backend does not implement CacheStatser")
	}
	return cs.CacheStats()
}

func newLoggedCache(opts CacheOptions) (Backend, *[]string) {
	var log []string
	return NewCached(&loggedBackend{b: NewInMemory(), log: &log}, opts), &log
}

func TestCachedServesRepeatedReads(t *testing.T) {
	c, log := newLoggedCache(CacheOptions{})
	if err := bSync(c, "/f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		data, err := bOpen(c, "/f")
		if err != nil || string(data) != "payload" {
			t.Fatalf("open #%d = %q, %v", i, data, err)
		}
	}
	if n := countOps(*log, "open"); n != 0 {
		t.Errorf("backend opens = %d, want 0 (write-through populated the page)", n)
	}
	if _, err := bStat(c, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := bStat(c, "/f"); err != nil {
		t.Fatal(err)
	}
	if n := countOps(*log, "stat"); n != 1 {
		t.Errorf("backend stats = %d, want 1", n)
	}
	cs := cacheStatsOf(t, c)
	if cs.Hits != 3 || cs.StatHits != 1 || cs.StatMisses != 1 {
		t.Errorf("stats = %+v", cs)
	}
}

func TestCachedNegativeStat(t *testing.T) {
	c, log := newLoggedCache(CacheOptions{})
	for i := 0; i < 3; i++ {
		if _, err := bStat(c, "/missing"); !IsErrno(err, ENOENT) {
			t.Fatalf("stat #%d = %v, want ENOENT", i, err)
		}
	}
	if n := countOps(*log, "stat"); n != 1 {
		t.Errorf("backend stats = %d, want 1 (negative entry should absorb repeats)", n)
	}
	// A cached negative entry also short-circuits Open and Readdir.
	if _, err := bOpen(c, "/missing"); !IsErrno(err, ENOENT) {
		t.Errorf("open = %v, want ENOENT", err)
	}
	if _, err := bReaddir(c, "/missing"); !IsErrno(err, ENOENT) {
		t.Errorf("readdir = %v, want ENOENT", err)
	}
	if n := countOps(*log, "open") + countOps(*log, "readdir"); n != 0 {
		t.Errorf("backend saw %d open/readdir calls, want 0", n)
	}
	// Creating the file clears the negative entry.
	if err := bSync(c, "/missing", []byte("now")); err != nil {
		t.Fatal(err)
	}
	st, err := bStat(c, "/missing")
	if err != nil || st.Size != 3 {
		t.Errorf("stat after create = %+v, %v", st, err)
	}
	if cs := cacheStatsOf(t, c); cs.NegativeHits < 3 {
		t.Errorf("NegativeHits = %d, want >= 3", cs.NegativeHits)
	}
}

// Unlink of a path with a cached negative stat must fail ENOENT without
// a backend round trip, and the entry must not wedge later creation.
func TestUnlinkOfCachedNegativePath(t *testing.T) {
	c, log := newLoggedCache(CacheOptions{})
	if _, err := bStat(c, "/ghost"); !IsErrno(err, ENOENT) {
		t.Fatal(err)
	}
	if err := bUnlink(c, "/ghost"); !IsErrno(err, ENOENT) {
		t.Fatalf("unlink = %v, want ENOENT", err)
	}
	if n := countOps(*log, "unlink"); n != 0 {
		t.Errorf("backend unlinks = %d, want 0", n)
	}
	// Create, unlink for real, then unlink again: the second unlink is
	// served by the negative entry the first one installed.
	if err := bSync(c, "/ghost", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := bUnlink(c, "/ghost"); err != nil {
		t.Fatal(err)
	}
	if n := countOps(*log, "unlink"); n != 1 {
		t.Fatalf("backend unlinks = %d, want 1", n)
	}
	if err := bUnlink(c, "/ghost"); !IsErrno(err, ENOENT) {
		t.Fatalf("re-unlink = %v, want ENOENT", err)
	}
	if n := countOps(*log, "unlink"); n != 1 {
		t.Errorf("backend unlinks = %d, want 1 (negative entry should absorb)", n)
	}
	if _, err := bOpen(c, "/ghost"); !IsErrno(err, ENOENT) {
		t.Errorf("open after unlink = %v, want ENOENT", err)
	}
}

// A rename across a mount boundary fails EXDEV and must leave the
// cached view of the source intact (no spurious negative entry). The
// cache is write-through, which the subtest name records.
func TestCachedRenameAcrossMountBoundary(t *testing.T) {
	t.Run("writeback=false", func(t *testing.T) {
		m := NewMountFS(NewInMemory())
		m.Mount("/mnt", NewInMemory())
		c := NewCached(m, CacheOptions{})
		if err := bSync(c, "/a", []byte("data")); err != nil {
			t.Fatal(err)
		}
		if _, err := bStat(c, "/a"); err != nil {
			t.Fatal(err)
		}
		if err := bRename(c, "/a", "/mnt/a"); !IsErrno(err, EXDEV) {
			t.Fatalf("cross-mount rename = %v, want EXDEV", err)
		}
		st, err := bStat(c, "/a")
		if err != nil || st.Size != 4 {
			t.Errorf("stat after failed rename = %+v, %v", st, err)
		}
		if data, err := bOpen(c, "/a"); err != nil || string(data) != "data" {
			t.Errorf("open after failed rename = %q, %v", data, err)
		}
		if _, err := bStat(c, "/mnt/a"); !IsErrno(err, ENOENT) {
			t.Errorf("destination exists after failed rename: %v", err)
		}
	})
}

// Mount and Unmount reroute paths under the cache, so both must drop
// cached state.
func TestCachedMountChangeInvalidation(t *testing.T) {
	m := NewMountFS(NewInMemory())
	c := NewCached(m, CacheOptions{})
	if err := bMkdir(c, "/data"); err != nil {
		t.Fatal(err)
	}
	if err := bSync(c, "/data/x", []byte("root-copy")); err != nil {
		t.Fatal(err)
	}
	if _, err := bOpen(c, "/data/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := bStat(c, "/data/x"); err != nil {
		t.Fatal(err)
	}
	// Shadow /data with an empty backend: the cached page and stat for
	// /data/x must not survive the routing change.
	m.Mount("/data", NewInMemory())
	if _, err := bStat(c, "/data/x"); !IsErrno(err, ENOENT) {
		t.Errorf("stat served stale after mount: %v", err)
	}
	if _, err := bOpen(c, "/data/x"); !IsErrno(err, ENOENT) {
		t.Errorf("open served stale after mount: %v", err)
	}
	// Unmounting restores the original file — including across the
	// negative entries the shadowing mount just created.
	m.Unmount("/data")
	if data, err := bOpen(c, "/data/x"); err != nil || string(data) != "root-copy" {
		t.Errorf("open after unmount = %q, %v", data, err)
	}
}

func TestCachedEvictionRespectsBudget(t *testing.T) {
	c, log := newLoggedCache(CacheOptions{ByteBudget: 100})
	payload := bytes.Repeat([]byte("x"), 40)
	for i := 0; i < 5; i++ {
		if err := bSync(c, fmt.Sprintf("/f%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	cs := cacheStatsOf(t, c)
	if cs.BytesUsed > 100 {
		t.Errorf("BytesUsed = %d, want <= 100", cs.BytesUsed)
	}
	if cs.Evictions < 3 {
		t.Errorf("Evictions = %d, want >= 3", cs.Evictions)
	}
	// The coldest file was evicted: reading it goes to the backend.
	before := countOps(*log, "open")
	if data, err := bOpen(c, "/f0"); err != nil || len(data) != 40 {
		t.Fatalf("open evicted = %d bytes, %v", len(data), err)
	}
	if countOps(*log, "open") != before+1 {
		t.Errorf("open of evicted entry did not reach the backend")
	}
}

func TestCachedReaddirTracksMutations(t *testing.T) {
	c, log := newLoggedCache(CacheOptions{})
	if err := bMkdir(c, "/d"); err != nil {
		t.Fatal(err)
	}
	if names, err := bReaddir(c, "/d"); err != nil || len(names) != 0 {
		t.Fatal(names, err)
	}
	if err := bSync(c, "/d/b", nil); err != nil {
		t.Fatal(err)
	}
	if err := bSync(c, "/d/a", nil); err != nil {
		t.Fatal(err)
	}
	if names, err := bReaddir(c, "/d"); err != nil || fmt.Sprint(names) != "[a b]" {
		t.Fatalf("readdir after writes = %v, %v", names, err)
	}
	if err := bUnlink(c, "/d/b"); err != nil {
		t.Fatal(err)
	}
	if names, err := bReaddir(c, "/d"); err != nil || fmt.Sprint(names) != "[a]" {
		t.Fatalf("readdir after unlink = %v, %v", names, err)
	}
	if n := countOps(*log, "readdir"); n != 1 {
		t.Errorf("backend readdirs = %d, want 1 (cached list tracks mutations)", n)
	}
}

// The decorator preserves the optional link capability, exactly like
// Instrument: wrapping InMemory keeps links working, and symlink
// creation invalidates the affected stat entries.
func TestCachedPreservesCapabilities(t *testing.T) {
	// Wrap InMemory directly: loggedBackend intentionally exposes only
	// the mandatory surface, but capability preservation is about what
	// the wrapped backend itself implements.
	c := NewCached(NewInMemory(), CacheOptions{})
	if _, ok := c.(LinkBackend); !ok {
		t.Fatal("cached InMemory lost LinkBackend")
	}
	kv := NewCached(NewLocalStorageFS(browser.NewLocalStorage(1<<20), &buffer.Factory{}), CacheOptions{})
	if _, ok := kv.(LinkBackend); ok {
		t.Fatal("cached FlatKV gained LinkBackend")
	}
	if err := bSync(c, "/target", []byte("data")); err != nil {
		t.Fatal(err)
	}
	// Probe the symlink path first so a negative entry exists.
	if _, err := bStat(c, "/link"); !IsErrno(err, ENOENT) {
		t.Fatal(err)
	}
	var symErr error
	c.(LinkBackend).Symlink("/target", "/link", func(err error) { symErr = err })
	if symErr != nil {
		t.Fatal(symErr)
	}
	st, err := bStat(c, "/link")
	if err != nil || st.Size != 4 {
		t.Errorf("stat through symlink = %+v, %v (stale negative entry?)", st, err)
	}
}

// TestReadFileBytesCopiesNothing pins the read path's copy count: a
// ReadFileBytes through a cached stack delivers the store's (then the
// page's) slice itself, on the miss and on every hit, so a read of a
// 1 MiB file allocates only the front end's bookkeeping. ReadFile, the
// control, allocates one file size for the Buffer its caller owns.
func TestReadFileBytesCopiesNothing(t *testing.T) {
	const size = 1 << 20
	store := NewInMemory()
	store.Sync("/big", make([]byte, size), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	h := newHarness(t, browser.Chrome28, func(*browser.Window, *buffer.Factory) Backend {
		return Stack(store, WithCache(CacheOptions{}))
	})
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	const reads = 16
	perRead := allocated(func() {
		for i := 0; i < reads; i++ {
			h.run(func(done func()) {
				h.fs.ReadFileBytes("/big", func(data []byte, err error) {
					if err != nil || len(data) != size {
						t.Errorf("ReadFileBytes: %d bytes, %v", len(data), err)
					}
					done()
				})
			})
		}
	}) / reads
	if perRead >= 64<<10 {
		t.Errorf("ReadFileBytes allocated %d B per read of a %d B file, want < 64 KiB", perRead, size)
	}
	if hits := h.fs.Root().(CacheStatser).CacheStats().Hits; hits != reads-1 {
		t.Errorf("cache hits = %d, want %d (one miss, then hits)", hits, reads-1)
	}

	control := allocated(func() {
		h.run(func(done func()) {
			h.fs.ReadFile("/big", func(b *buffer.Buffer, err error) {
				if err != nil || b.Len() != size {
					t.Errorf("ReadFile: %v", err)
				}
				done()
			})
		})
	})
	if control < size || control >= 2*size {
		t.Errorf("ReadFile allocated %d B, want one file size (%d B) for its Buffer", control, size)
	}
	t.Logf("per read: ReadFileBytes %d B, ReadFile %d B", perRead, control)
}
