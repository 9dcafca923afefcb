package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"math/rand"
	"path"
	"sort"
	"strings"
	"time"

	"doppio/internal/bench/workloads"
	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/core"
	"doppio/internal/eventloop"
	"doppio/internal/fstrace"
	"doppio/internal/jvm"
	"doppio/internal/minic"
	"doppio/internal/vfs"
)

//go:embed guests/JavacTrace.mj
var javacTraceSrc string

//go:embed guests/game.c
var gameSrc string

// fsWorkload replays the Fig. 6 javac trace from a MiniJava guest
// through java.io, loading the guest's classes on demand through
// jvm.VFSClassProvider, then runs a MiniC game in the §7.2 shadowgame
// pattern: readfile of level assets, malloc/free per level, a writefile
// save after each level. Files sit in vfs.Stack(storage,
// vfs.WithCache(...)) with saves on a localStorage mount; storage
// persists across iterations while each iteration's page gets a fresh
// cache. Both guests use the default (generic) interpreter, so the
// VFS, the cache, the suspend/resume bridge and the event loop are the
// work; latency_us_* is the guest file op, from the guest's call to
// its callback. Dispatch, quickening, mux and gateway changes should
// leave it flat.
type fsWorkload struct {
	in      *fsInputs
	classes map[string][]byte
	game    *minic.Program
	store   *vfs.InMemory         // persistent storage (survives page loads)
	ls      *browser.LocalStorage // persistent localStorage for saves

	// Per-run state, touched only on the event-loop goroutine.
	b        *bench
	c        *check
	progSpan int
	cur      int // span that issued the backend calls in flight
	tally    fsTally
}

// fsTally counts one program run's traffic through the wrappers.
type fsTally struct {
	guestOps, frontOps, backendOps int
	bytesRead, bytesWritten        int
	classes                        int
	classUs, backendUs             []float64
	opUs                           map[string][]float64
}

// fsInputs are the seeded inputs of the fs workload.
type fsInputs struct {
	trace    []byte            // /trace/ops.txt, fixed-width records
	files    map[string][]byte // every file a guest may read
	writes   map[string][]byte // expected javac output files
	entries  map[string]int    // names per listed directory
	javacOut string
	saves    map[string][]byte // expected saves, keyed by path in the localStorage mount
	gameOut  string
}

const (
	classDir = "/jvm" // the guest's class path inside the VFS
	saveDir  = "/save"
)

// genFS builds the fs inputs from seed: trace order and file sizes
// follow the paper's javac profile (fstrace.PaperParams); asset sizes
// and contents follow the seed too.
func genFS(seed int64, small bool) *fsInputs {
	rng := rand.New(rand.NewSource(seed))
	prof := fstrace.PaperParams()
	levels := 20
	if small {
		prof = fstrace.GenerateParams{Ops: 200, UniqueFiles: 90, BytesRead: 600_000, BytesWritten: 6_000}
		levels = 3
	}
	in := &fsInputs{files: map[string][]byte{}, writes: map[string][]byte{}, entries: map[string]int{}, saves: map[string][]byte{}}

	nDirs := prof.UniqueFiles/64 + 1
	avg := prof.BytesRead / prof.UniqueFiles
	order := rng.Perm(prof.UniqueFiles)
	sizes := make([]int, prof.UniqueFiles)
	for i := range sizes {
		sizes[i] = avg*7/10 + rng.Intn(avg*6/10+1)
		p := classPath(i%nDirs, i)
		in.files[p] = randBytes(rng, sizes[i], 0)
		in.entries[path.Dir(p)]++
	}
	const nWrites = 24
	var rec bytes.Buffer
	record := func(op byte, dir, idx, size int) {
		fmt.Fprintf(&rec, "%c%02d%04d%05d\n", op, dir, idx, size)
	}
	var ops, found, read, entries, written, writeIdx, next int
	last := -1
	for i := 0; ops < prof.Ops; i++ {
		switch {
		case i%65 == 64 && writeIdx < nWrites && last >= 0:
			avgW := prof.BytesWritten / nWrites
			size := avgW*8/10 + rng.Intn(avgW*4/10+1)
			if size > sizes[last] {
				size = sizes[last]
			}
			p := fmt.Sprintf("/out/Out%02d.class", writeIdx)
			in.writes[p] = in.files[classPath(last%nDirs, last)][:size]
			record('w', 0, writeIdx, size)
			writeIdx++
			written += size
			ops++
		case i%50 == 49:
			d := rng.Intn(nDirs)
			record('d', d, 0, 0)
			entries += in.entries[dirPath(d)]
			ops++
		default:
			f := order[next%len(order)]
			next++
			record('s', f%nDirs, f, 0)
			found++
			ops++
			if ops < prof.Ops {
				record('r', f%nDirs, f, 0)
				read += sizes[f]
				last = f
				ops++
			}
		}
	}
	in.trace = rec.Bytes()
	in.files["/trace/ops.txt"] = in.trace
	in.javacOut = fmt.Sprintf("ops=%d found=%d read=%d entries=%d written=%d\n", ops, found, read, entries, written)

	// Game assets: a shared tileset and one map per level, printable
	// text so the C program can strlen them.
	tiles := randBytes(rng, 1024+rng.Intn(2048), 'a')
	in.files["/assets/tiles.dat"] = tiles
	in.files["/assets/levels.txt"] = []byte(fmt.Sprint(levels))
	var out strings.Builder
	for n := 0; n < levels; n++ {
		m := randBytes(rng, 2048+rng.Intn(4096), 'a')
		in.files[fmt.Sprintf("/assets/level%02d.dat", n)] = m
		sum := int32(n)
		save := make([]byte, 64)
		for i := range m {
			cell := int32(m[i]) ^ int32(tiles[i%len(tiles)])
			sum = sum*31 + cell
			if i < len(save) {
				save[i] = byte('a' + (cell+int32(n))%26)
			}
		}
		in.saves[fmt.Sprintf("/slot%02d.sav", n)] = save
		fmt.Fprintf(&out, "%d\n", sum)
	}
	in.gameOut = out.String()
	return in
}

func dirPath(d int) string      { return fmt.Sprintf("/classes/pkg%02d", d) }
func classPath(d, i int) string { return fmt.Sprintf("%s/Class%04d.class", dirPath(d), i) }

// randBytes returns n seeded bytes: arbitrary when base is 0, else
// letters from base plus newlines (never a zero byte).
func randBytes(rng *rand.Rand, n int, base byte) []byte {
	out := make([]byte, n)
	rng.Read(out)
	if base != 0 {
		for i, v := range out {
			if v%27 == 26 {
				out[i] = '\n'
			} else {
				out[i] = base + v%27
			}
		}
	}
	return out
}

func (w *fsWorkload) setup(b *bench) error {
	w.in = genFS(b.p.seed, b.p.small)
	classes, err := workloads.CompileWith(map[string]string{"perfbench/JavacTrace.mj": javacTraceSrc})
	if err != nil {
		return fmt.Errorf("compiling JavacTrace: %w", err)
	}
	w.classes = classes
	if w.game, err = minic.CompileC(gameSrc); err != nil {
		return fmt.Errorf("compiling game: %w", err)
	}
	// Seed storage: the guest's class path, the trace tree and the
	// game assets.
	w.store = vfs.NewInMemory()
	w.ls = browser.NewLocalStorage(browser.Chrome28.LocalStorageQuota)
	files := make(map[string][]byte, len(w.in.files)+len(classes))
	for p, d := range w.in.files {
		files[p] = d
	}
	for name, d := range classes {
		files[classDir+"/"+name+".class"] = d
	}
	w.in.files = files
	return seedStore(w.store, files, "/out")
}

// seedStore writes files (and their parent directories, plus extra
// directories) into b, whose callbacks run synchronously.
func seedStore(b vfs.Backend, files map[string][]byte, extra ...string) error {
	dirs := map[string]bool{"/": true}
	var mk func(d string) error
	mk = func(d string) error {
		if dirs[d] {
			return nil
		}
		if err := mk(path.Dir(d)); err != nil {
			return err
		}
		dirs[d] = true
		var e error
		b.Mkdir(d, func(err error) { e = err })
		return e
	}
	for _, d := range extra {
		if err := mk(d); err != nil {
			return err
		}
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := mk(path.Dir(p)); err != nil {
			return err
		}
		var e error
		b.Sync(p, files[p], func(err error) { e = err })
		if e != nil {
			return fmt.Errorf("seeding %s: %w", p, e)
		}
	}
	return nil
}

func (w *fsWorkload) close() {}

func (w *fsWorkload) iterate(b *bench, k int) {
	var tot fsTally
	for i := 0; i < len(fsPrograms); i++ {
		var t fsTally
		if (k+i)%2 == 0 {
			t = w.runJavac(b)
		} else {
			t = w.runGame(b)
		}
		tot.frontOps += t.frontOps
		tot.backendOps += t.backendOps
		tot.bytesRead += t.bytesRead
		tot.bytesWritten += t.bytesWritten
		tot.backendUs = append(tot.backendUs, t.backendUs...)
	}
	b.layer.add("vfs.front_ops", float64(tot.frontOps))
	b.layer.add("vfs.backend_ops", float64(tot.backendOps))
	b.layer.add("vfs.cache_hit_ratio", 1-ratio(float64(tot.backendOps), float64(tot.frontOps)))
	b.layer.add("vfs.backend_us_p50", quantile(tot.backendUs, 0.5))
	b.layer.add("vfs.bytes_read", float64(tot.bytesRead))
	b.layer.add("vfs.bytes_written", float64(tot.bytesWritten))
}

// page is one page load: a fresh window whose file system is the
// fleet-tenant stack (a cache over persistent storage) with the
// persistent localStorage mounted for saves. The benchmark's counting
// wrappers sit above and below the cache.
func (w *fsWorkload) page() (*browser.Window, *vfs.FS) {
	win := browser.NewWindow(browser.Chrome28)
	win.LocalStorage = w.ls
	bufs := &buffer.Factory{Typed: win.Profile.HasTypedArrays, ValidatesStrings: win.Profile.ValidatesStrings, OnTypedAlloc: win.NoteTypedArrayAlloc}
	mount := vfs.NewMountFS(w.store)
	mount.Mount(saveDir, vfs.NewLocalStorageFS(win.LocalStorage, bufs))
	below := &countBackend{w: w, inner: mount, below: true}
	front := &countBackend{w: w, inner: vfs.Stack(below, vfs.WithCache(vfs.CacheOptions{}))}
	return win, vfs.New(win.Loop, bufs, front)
}

// begin resets the per-run state for program id.
func (w *fsWorkload) begin(b *bench, id string) {
	w.b, w.c = b, b.check(id)
	w.progSpan = b.tr.begin(layerProgram, id, b.iterSpan)
	w.cur = w.progSpan
	w.tally = fsTally{opUs: map[string][]float64{}}
}

func (w *fsWorkload) runJavac(b *bench) fsTally {
	w.begin(b, "javac_trace")
	win, fsys := w.page()
	var out strings.Builder
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &out,
		Provider:         &classFetch{w: w, inner: &jvm.VFSClassProvider{FS: fsys, Dirs: []string{classDir}}},
		FS:               &guestFS{w: w, inner: &jvm.VFSHostFS{FS: fsys}},
		DisableEngineTax: true,
	})
	b.keepAlive(vm)
	start := time.Now()
	var runTime time.Duration
	var runErr error
	finished := false
	vm.StartMain("JavacTrace", nil, func(err error) {
		runTime = time.Since(start)
		runErr, finished = err, true
	})
	loopErr := win.Loop.Run()
	b.tr.end(w.progSpan)

	c, t := w.c, w.tally
	b.layer.add("run_ms.javac_trace", ms(runTime))
	c.expect(loopErr == nil, "event loop: %v", loopErr)
	c.expect(finished && runErr == nil, "run: finished=%v err=%v", finished, runErr)
	c.expect(out.String() == w.in.javacOut, "stdout %q, want %q", out.String(), w.in.javacOut)
	for p, want := range w.in.writes {
		got, err := readBack(w.store, p)
		c.expect(err == nil && bytes.Equal(got, want), "read-back of %s: %d bytes, err %v", p, len(got), err)
	}
	c.done()

	for _, kind := range fileOps {
		b.layer.add("vfs.guest_op_us_p50."+kind, quantile(t.opUs[kind], 0.5))
		b.layer.add("vfs.guest_op_us_p90."+kind, quantile(t.opUs[kind], 0.9))
		b.latencyUs = append(b.latencyUs, t.opUs[kind]...)
	}
	b.layer.add("jvm.classes_loaded", float64(t.classes))
	b.layer.add("jvm.classload_us_p50", quantile(t.classUs, 0.5))
	guestStats(b, "javac_trace", vm.Runtime().Stats(), win.Loop.Stats(), runTime, t.guestOps)
	return t
}

func (w *fsWorkload) runGame(b *bench) fsTally {
	w.begin(b, "game")
	win, fsys := w.page()
	fsys.OnOp = func(string, string) { w.tally.guestOps++ }
	var out strings.Builder
	vm, err := minic.NewVM(win, w.game, minic.VMOptions{Stdout: &out, FS: fsys})
	if err != nil {
		w.c.expect(false, "minic.NewVM: %v", err)
		w.c.done()
		b.tr.end(w.progSpan)
		return w.tally
	}
	b.keepAlive(vm)
	start := time.Now()
	var runTime time.Duration
	var runErr error
	finished := false
	vm.Start(func(exit int32, err error) {
		runTime = time.Since(start)
		runErr, finished = err, true
		if err == nil && exit != 0 {
			runErr = fmt.Errorf("exit status %d", exit)
		}
	})
	loopErr := win.Loop.Run()
	b.tr.end(w.progSpan)

	c, t := w.c, w.tally
	b.layer.add("run_ms.game", ms(runTime))
	c.expect(loopErr == nil, "event loop: %v", loopErr)
	c.expect(finished && runErr == nil, "run: finished=%v err=%v", finished, runErr)
	c.expect(out.String() == w.in.gameOut, "stdout %q, want %q", out.String(), w.in.gameOut)
	// Saves are read back from the persistent localStorage.
	saves := vfs.NewLocalStorageFS(w.ls, &buffer.Factory{Typed: true})
	for p, want := range w.in.saves {
		got, err := readBack(saves, p)
		c.expect(err == nil && bytes.Equal(got, want), "save %s: %q, err %v", p, got, err)
	}
	c.done()

	b.layer.add("minic.steps", float64(vm.Steps))
	b.layer.add("minic.ns_per_step", ratio(float64(runTime), float64(vm.Steps)))
	b.layer.add("umheap.alloc_count", float64(vm.Heap().AllocCount()))
	b.layer.add("umheap.free_blocks", float64(vm.Heap().FreeBlocks()))
	guestStats(b, "game", vm.Runtime().Stats(), win.Loop.Stats(), runTime, t.guestOps)
	return t
}

// guestStats records the scheduler and loop metrics of one guest run
// of ops guest operations.
func guestStats(b *bench, id string, st core.Stats, ls eventloop.Stats, run time.Duration, ops int) {
	b.layer.add("core.suspensions."+id, float64(st.Suspensions))
	b.layer.add("core.suspended_share."+id, ratio(float64(st.SuspendedTime), float64(run)))
	b.layer.add("eventloop.tasks."+id, ratio(float64(ls.TasksRun), float64(ops)))
	b.layer.add("eventloop.outside_slices_ms."+id, ms(ls.BusyTime-st.CPUTime))
}

// readBack loads p from a backend whose callbacks run synchronously.
func readBack(b vfs.Backend, p string) ([]byte, error) {
	var data []byte
	err := fmt.Errorf("no callback")
	b.Open(p, func(d []byte, e error) { data, err = d, e })
	return data, err
}

// guestFS is the benchmark's jvm.HostFS wrapper: it times each guest
// file op from the guest's call to its callback (the suspend/resume
// bridge included) and checks every byte read or written.
type guestFS struct {
	w     *fsWorkload
	inner jvm.HostFS
}

// op opens a guest op and returns the function that closes it.
func (g *guestFS) op(kind, p string) func() {
	w := g.w
	w.tally.guestOps++
	start := time.Now()
	id := w.b.tr.begin(layerGuestFS, kind, w.progSpan)
	w.cur = id
	return func() {
		w.b.tr.end(id)
		w.tally.opUs[kind] = append(w.tally.opUs[kind], us(time.Since(start)))
	}
}

func (g *guestFS) ReadFile(p string, cb func([]byte, error)) {
	done := g.op("read", p)
	g.inner.ReadFile(p, func(data []byte, err error) {
		done()
		g.w.c.expect(err == nil && bytes.Equal(data, g.w.in.files[p]), "read %s: %d bytes, err %v", p, len(data), err)
		cb(data, err)
	})
	g.w.cur = g.w.progSpan
}

func (g *guestFS) WriteFile(p string, data []byte, cb func(error)) {
	done := g.op("write", p)
	want, ok := g.w.in.writes[p]
	g.w.c.expect(ok && bytes.Equal(data, want), "write %s: %d bytes, unexpected content", p, len(data))
	g.inner.WriteFile(p, data, func(err error) {
		done()
		g.w.c.expect(err == nil, "write %s: %v", p, err)
		cb(err)
	})
	g.w.cur = g.w.progSpan
}

func (g *guestFS) Stat(p string, cb func(int64, bool, bool)) {
	done := g.op("stat", p)
	g.inner.Stat(p, func(size int64, isDir, exists bool) {
		done()
		g.w.c.expect(exists && size == int64(len(g.w.in.files[p])), "stat %s: exists=%v size=%d", p, exists, size)
		cb(size, isDir, exists)
	})
	g.w.cur = g.w.progSpan
}

func (g *guestFS) List(p string, cb func([]string, error)) {
	done := g.op("readdir", p)
	g.inner.List(p, func(names []string, err error) {
		done()
		g.w.c.expect(err == nil && len(names) == g.w.in.entries[p], "readdir %s: %d names, err %v", p, len(names), err)
		cb(names, err)
	})
	g.w.cur = g.w.progSpan
}

// The trace uses no other operations; they pass through untimed.
func (g *guestFS) Append(p string, d []byte, cb func(error)) { g.inner.Append(p, d, cb) }
func (g *guestFS) Delete(p string, cb func(error))           { g.inner.Delete(p, cb) }
func (g *guestFS) Mkdir(p string, cb func(error))            { g.inner.Mkdir(p, cb) }
func (g *guestFS) Rename(a, p string, cb func(error))        { g.inner.Rename(a, p, cb) }

// classFetch is the benchmark's jvm.AsyncProvider wrapper: it counts
// and times each class fetch and checks the bytes.
type classFetch struct {
	w     *fsWorkload
	inner jvm.AsyncProvider
}

func (f *classFetch) BytesAsync(name string, cb func([]byte, error)) {
	w := f.w
	start := time.Now()
	id := w.b.tr.begin(layerClassload, name, w.progSpan)
	w.cur = id
	f.inner.BytesAsync(name, func(data []byte, err error) {
		w.b.tr.end(id)
		if err == nil {
			w.tally.classes++
			w.tally.classUs = append(w.tally.classUs, us(time.Since(start)))
			w.c.expect(bytes.Equal(data, w.classes[name]), "class %s: bytes differ", name)
		}
		cb(data, err)
	})
	w.cur = w.progSpan
}

// countBackend is the benchmark's pass-through vfs.Backend, placed
// above the cache (front) and below it (below). Both count operations
// and check every byte read against the generated content; the one
// below also times each call to its callback.
type countBackend struct {
	w     *fsWorkload
	inner vfs.Backend
	below bool
}

// op counts one call and returns the function that closes it.
func (c *countBackend) op(kind string) func() {
	w := c.w
	if !c.below {
		w.tally.frontOps++
		return func() {}
	}
	w.tally.backendOps++
	start := time.Now()
	id := w.b.tr.begin(layerBackend, kind, w.cur)
	return func() {
		w.b.tr.end(id)
		w.tally.backendUs = append(w.tally.backendUs, us(time.Since(start)))
	}
}

func (c *countBackend) Name() string   { return c.inner.Name() }
func (c *countBackend) ReadOnly() bool { return c.inner.ReadOnly() }

func (c *countBackend) Stat(p string, cb func(vfs.Stats, error)) {
	done := c.op("stat")
	c.inner.Stat(p, func(st vfs.Stats, err error) { done(); cb(st, err) })
}

func (c *countBackend) Open(p string, cb func([]byte, error)) {
	done := c.op("open")
	c.inner.Open(p, func(data []byte, err error) {
		done()
		if want, ok := c.w.in.files[p]; ok {
			c.w.c.expect(err == nil && bytes.Equal(data, want), "backend open %s: %d bytes, err %v", p, len(data), err)
		}
		if !c.below {
			c.w.tally.bytesRead += len(data)
		}
		cb(data, err)
	})
}

func (c *countBackend) Sync(p string, data []byte, cb func(error)) {
	done := c.op("sync")
	if !c.below {
		c.w.tally.bytesWritten += len(data)
	}
	c.inner.Sync(p, data, func(err error) { done(); cb(err) })
}

func (c *countBackend) Unlink(p string, cb func(error)) {
	done := c.op("unlink")
	c.inner.Unlink(p, func(err error) { done(); cb(err) })
}

func (c *countBackend) Rmdir(p string, cb func(error)) {
	done := c.op("rmdir")
	c.inner.Rmdir(p, func(err error) { done(); cb(err) })
}

func (c *countBackend) Mkdir(p string, cb func(error)) {
	done := c.op("mkdir")
	c.inner.Mkdir(p, func(err error) { done(); cb(err) })
}

func (c *countBackend) Readdir(p string, cb func([]string, error)) {
	done := c.op("readdir")
	c.inner.Readdir(p, func(names []string, err error) { done(); cb(names, err) })
}

func (c *countBackend) Rename(a, p string, cb func(error)) {
	done := c.op("rename")
	c.inner.Rename(a, p, func(err error) { done(); cb(err) })
}
