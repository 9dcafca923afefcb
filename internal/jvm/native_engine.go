package jvm

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"doppio/internal/profile"
	"doppio/internal/telemetry"
	"doppio/internal/umheap"
)

// NativeVM is the baseline engine: the analog of the HotSpot
// interpreter the paper compares against (§7.1). It executes the same
// class files as the Doppio engine, but with typed slots, native
// 64-bit longs, a plain Go scheduler (no event loop, no suspend
// machinery), and synchronous I/O.
type NativeVM struct {
	Reg    *Registry
	loader *SyncLoader

	natives map[string]NativeFunc
	strings map[string]*Object
	mirrors map[*Class]*Object

	stdout, stderr io.Writer
	stdin          io.Reader
	fs             HostFS
	heap           *umheap.Heap

	threads  []*NThread
	cur      *NThread
	nextTID  int
	nextHash int32

	timedWaits []timedWait

	exited   bool
	exitCode int32

	// Instructions counts executed bytecodes (benchmark metadata).
	Instructions int64

	// Uncaught records the first uncaught exception, if any.
	Uncaught *Object

	// prof is the hub's guest profiler (nil when off). The native engine
	// has no core.Runtime, so its scheduler samples itself: profLast
	// is the on-CPU cursor for the running quantum, profCheck the
	// instruction countdown to the next clock read.
	prof      *profile.Profiler
	profLast  time.Time
	profCheck int
}

// timedWait tracks an Object.wait(ms) deadline.
type timedWait struct {
	at time.Time
	w  *Waiter
}

// NativeOptions configure a NativeVM.
type NativeOptions struct {
	Stdout, Stderr io.Writer
	Stdin          io.Reader
	FS             HostFS // defaults to the host OS file system
	HeapSize       int

	// Telemetry attaches the engine to an observability hub. The
	// native engine has no window and no core.Runtime, so it reads
	// only the hub's Profiler: guest CPU time and allocation sites
	// (contention is Doppio-only: the native engine's monitors block
	// without Completions).
	Telemetry *telemetry.Hub
}

// NewNativeVM creates a VM over the class provider.
func NewNativeVM(provider SyncProvider, opts NativeOptions) *NativeVM {
	if opts.Stdout == nil {
		opts.Stdout = os.Stdout
	}
	if opts.Stderr == nil {
		opts.Stderr = os.Stderr
	}
	if opts.Stdin == nil {
		opts.Stdin = strings.NewReader("")
	}
	if opts.FS == nil {
		opts.FS = OSHostFS{}
	}
	if opts.HeapSize == 0 {
		opts.HeapSize = 1 << 20
	}
	reg := NewRegistry()
	vm := &NativeVM{
		Reg:     reg,
		loader:  &SyncLoader{Reg: reg, Provider: provider},
		natives: registerNatives(),
		strings: make(map[string]*Object),
		mirrors: make(map[*Class]*Object),
		stdout:  opts.Stdout,
		stderr:  opts.Stderr,
		stdin:   opts.Stdin,
		fs:      opts.FS,
		heap:    umheap.New(opts.HeapSize, true, nil),
	}
	if opts.Telemetry != nil && opts.Telemetry.Profiler != nil {
		vm.prof = opts.Telemetry.Profiler
		vm.heap.SetAllocHook(vm.profHeapAlloc)
	}
	return vm
}

// NThread is one green thread of the native engine.
type NThread struct {
	id     int
	frames []*NFrame
	state  nthreadState
	obj    *Object // java/lang/Thread instance (may be nil for main)
	wakeAt time.Time

	// Deposited native completion.
	depValue  Value
	depThrown *Object
	depReady  bool
	depRet    string // return descriptor of the completed native

	joiners []func()
}

type nthreadState int

const (
	ntRunnable nthreadState = iota
	ntBlocked               // waiting for a resume callback
	ntSleeping              // waiting for wakeAt
	ntDead
)

// NFrame is a native-engine stack frame: typed slot arrays sized from
// the method's Code attribute.
type NFrame struct {
	m      *Method
	pc     int
	stack  []Slot
	sp     int
	locals []Slot
}

func newNFrame(m *Method) *NFrame {
	return &NFrame{
		m:      m,
		stack:  make([]Slot, int(m.Code.MaxStack)+2),
		locals: make([]Slot, int(m.Code.MaxLocals)+2),
	}
}

// --- frame stack helpers ---

func (f *NFrame) push(s Slot)     { f.stack[f.sp] = s; f.sp++ }
func (f *NFrame) pop() Slot       { f.sp--; return f.stack[f.sp] }
func (f *NFrame) pushI(v int32)   { f.push(Slot{N: int64(v)}) }
func (f *NFrame) popI() int32     { return int32(f.pop().N) }
func (f *NFrame) pushJ(v int64)   { f.push(Slot{N: v}); f.push(Slot{}) }
func (f *NFrame) popJ() int64     { f.pop(); return f.pop().N }
func (f *NFrame) pushF(v float32) { f.push(FloatSlot(float64(v))) }
func (f *NFrame) popF() float32   { return float32(SlotFloat(f.pop())) }
func (f *NFrame) pushD(v float64) { f.push(FloatSlot(v)); f.push(Slot{}) }
func (f *NFrame) popD() float64   { f.pop(); return SlotFloat(f.pop()) }
func (f *NFrame) pushR(o *Object) { f.push(Slot{R: o}) }
func (f *NFrame) popR() *Object   { return f.pop().R }

// RunMain loads mainClass, runs main([Ljava/lang/String;)V on the main
// thread, and drives the scheduler until every thread finishes.
func (vm *NativeVM) RunMain(mainClass string, args []string) error {
	c, err := vm.loader.Load(mainClass)
	if err != nil {
		return err
	}
	main := c.FindMethod("main", "([Ljava/lang/String;)V")
	if main == nil || !main.IsStatic() {
		return fmt.Errorf("jvm: %s has no static main([Ljava/lang/String;)V", mainClass)
	}
	argArr, err := vm.makeStringArray(args)
	if err != nil {
		return err
	}
	t := &NThread{id: vm.nextTID}
	vm.nextTID++
	f := newNFrame(main)
	f.locals[0] = Slot{R: argArr}
	t.frames = []*NFrame{f}
	vm.threads = append(vm.threads, t)
	// Trigger <clinit> of the main class before main runs.
	vm.cur = t
	if err := vm.ensureInit(t, c); err != nil {
		return err
	}
	return vm.schedule()
}

func (vm *NativeVM) makeStringArray(ss []string) (*Object, error) {
	arrC, err := vm.loader.Load("[Ljava/lang/String;")
	if err != nil {
		return nil, err
	}
	arr := NewArray(arrC, "Ljava/lang/String;", len(ss))
	data := arr.Arr.([]*Object)
	for i, s := range ss {
		data[i] = vm.Intern(s)
	}
	return arr, nil
}

// schedule drives green threads round-robin until all are dead.
func (vm *NativeVM) schedule() error {
	for !vm.exited {
		ran := false
		alive := false
		now := time.Now()
		remaining := vm.timedWaits[:0]
		for _, tw := range vm.timedWaits {
			if !now.Before(tw.at) {
				tw.w.Notify()
			} else if !tw.w.Notified {
				remaining = append(remaining, tw)
			}
		}
		vm.timedWaits = remaining
		for _, t := range vm.threads {
			if t.state == ntSleeping && !now.Before(t.wakeAt) {
				t.state = ntRunnable
			}
			if t.state != ntDead {
				alive = true
			}
		}
		for _, t := range vm.threads {
			if vm.exited {
				break
			}
			if t.state != ntRunnable {
				continue
			}
			ran = true
			vm.cur = t
			if vm.prof != nil {
				vm.profQuantumStart()
			}
			err := vm.execute(t, nativeQuantum)
			if vm.prof != nil {
				vm.profQuantumEnd(t)
			}
			if err != nil {
				return err
			}
		}
		if !alive {
			break
		}
		if !ran {
			// Only sleepers or blocked threads remain.
			var next time.Time
			hasSleeper := false
			for _, t := range vm.threads {
				if t.state == ntSleeping {
					if !hasSleeper || t.wakeAt.Before(next) {
						next = t.wakeAt
						hasSleeper = true
					}
				}
			}
			for _, tw := range vm.timedWaits {
				if !hasSleeper || tw.at.Before(next) {
					next = tw.at
					hasSleeper = true
				}
			}
			if !hasSleeper {
				return fmt.Errorf("jvm: deadlock: all threads blocked")
			}
			time.Sleep(time.Until(next))
		}
	}
	if vm.Uncaught != nil {
		return fmt.Errorf("jvm: uncaught exception: %s", vm.describeThrowable(vm.Uncaught))
	}
	return nil
}

const nativeQuantum = 200_000

func (vm *NativeVM) describeThrowable(ex *Object) string {
	msg := ""
	if s := slotByName(ex, "message"); s.R != nil {
		msg = ": " + vm.GoString(s.R)
	}
	return strings.ReplaceAll(ex.Class.Name, "/", ".") + msg
}

// ensureInit runs <clinit> for c (and its superclasses) by pushing
// initializer frames; it is called before the triggering instruction
// executes, which then re-executes.
func (vm *NativeVM) ensureInit(t *NThread, c *Class) error {
	var chain []*Class
	for k := c; k != nil; k = k.Super {
		if k.State == StateLoaded {
			k.State = StateInitialized
			chain = append(chain, k)
		}
	}
	// Push subclass first so superclass initializers run first.
	for i := 0; i < len(chain); i++ {
		if cl := chain[i].Clinit(); cl != nil {
			t.frames = append(t.frames, newNFrame(cl))
		}
	}
	return nil
}

// throwByName constructs a VM-generated exception raised by the top
// frame's own instruction and unwinds with it.
func (vm *NativeVM) throwByName(t *NThread, class, msg string) {
	vm.unwind(t, vm.MakeThrowable(class, msg), false)
}

// throwInCall constructs a VM-generated exception raised by the call
// the top frame is making, and unwinds with it.
func (vm *NativeVM) throwInCall(t *NThread, class, msg string) {
	vm.unwind(t, vm.MakeThrowable(class, msg), true)
}

// unwind implements §6.6: walk the virtual stack for a handler.
// calling reports that the top frame waits on a call (a native or an
// abstract method raised after its pc moved past the invoke).
func (vm *NativeVM) unwind(t *NThread, ex *Object, calling bool) {
	for len(t.frames) > 0 {
		f := t.frames[len(t.frames)-1]
		if hpc, ok := f.m.handler(f.pc, calling, ex, vm.catchClass); ok {
			f.pc = hpc
			f.sp = 0
			f.pushR(ex)
			return
		}
		t.frames = t.frames[:len(t.frames)-1]
		calling = f.m.callerWaits()
	}
	// Uncaught: thread dies.
	fmt.Fprintf(vm.stderr, "Exception in thread %d %s\n%s", t.id, vm.describeThrowable(ex), traceOf(ex))
	vm.killThread(t)
	if vm.Uncaught == nil {
		vm.Uncaught = ex
	}
}

// catchClass loads a catch type; a class that fails to load catches
// nothing.
func (vm *NativeVM) catchClass(name string) *Class {
	c, err := vm.loader.Load(name)
	if err != nil {
		return nil
	}
	return c
}

func (vm *NativeVM) killThread(t *NThread) {
	t.state = ntDead
	t.frames = nil
	for _, j := range t.joiners {
		j()
	}
	t.joiners = nil
}

// --- NativeHost implementation ---

// EngineName identifies the engine.
func (vm *NativeVM) EngineName() string { return "native" }

// Intern returns the canonical String for s.
func (vm *NativeVM) Intern(s string) *Object {
	if o, ok := vm.strings[s]; ok {
		return o
	}
	o := vm.NewString(s)
	vm.strings[s] = o
	return o
}

// NewString builds a String object around a char array.
func (vm *NativeVM) NewString(s string) *Object {
	sc := vm.Reg.Get("java/lang/String")
	if sc == nil {
		var err error
		sc, err = vm.loader.Load("java/lang/String")
		if err != nil {
			panic(fmt.Sprintf("jvm: String class unavailable: %v", err))
		}
	}
	o := NewObject(sc)
	chars := utf16Chars(s)
	arrC, _ := vm.loader.Load("[C")
	arr := &Object{Class: arrC, Arr: chars}
	setSlotByName(o, "value", Slot{R: arr})
	return o
}

// GoString decodes a String object's char array.
func (vm *NativeVM) GoString(o *Object) string {
	return stringValue(o)
}

// MakeThrowable builds an exception object without running user code.
func (vm *NativeVM) MakeThrowable(class, msg string) *Object {
	c, err := vm.loader.Load(class)
	if err != nil {
		// Fall back to the root throwable.
		c, err = vm.loader.Load("java/lang/Throwable")
		if err != nil {
			panic("jvm: no throwable classes loaded")
		}
	}
	ex := NewObject(c)
	if msg != "" {
		setSlotByName(ex, "message", Slot{R: vm.Intern(msg)})
	}
	ex.Extra = vm.captureTrace()
	return ex
}

// FillInStackTrace records the current thread's stack as o's trace.
func (vm *NativeVM) FillInStackTrace(o *Object) { o.Extra = vm.captureTrace() }

// captureTrace copies the current thread's (method, pc) frames,
// innermost first.
func (vm *NativeVM) captureTrace() stackTrace {
	t := vm.cur
	if t == nil {
		return nil
	}
	st := make(stackTrace, len(t.frames))
	for i, f := range t.frames {
		st[len(st)-1-i] = traceFrame{f.m, f.pc}
	}
	return st
}

// ClassMirror returns (creating lazily) the Class instance for c.
func (vm *NativeVM) ClassMirror(c *Class) *Object {
	if m, ok := vm.mirrors[c]; ok {
		return m
	}
	cc, err := vm.loader.Load("java/lang/Class")
	if err != nil {
		cc = c // last resort: self-classed mirror
	}
	m := NewObject(cc)
	m.Extra = c
	setSlotByName(m, "name", Slot{R: vm.Intern(strings.ReplaceAll(c.Name, "/", "."))})
	vm.mirrors[c] = m
	return m
}

// LookupClass returns a loaded class or tries to load it.
func (vm *NativeVM) LookupClass(name string) *Class {
	if c := vm.Reg.Get(name); c != nil {
		return c
	}
	c, err := vm.loader.Load(name)
	if err != nil {
		return nil
	}
	return c
}

// Stdout returns the console writer.
func (vm *NativeVM) Stdout() io.Writer { return vm.stdout }

// Stderr returns the error writer.
func (vm *NativeVM) Stderr() io.Writer { return vm.stderr }

// StdinRead reads up to n bytes from standard input.
func (vm *NativeVM) StdinRead(n int, cb func([]byte, error)) {
	buf := make([]byte, n)
	m, err := vm.stdin.Read(buf)
	if m > 0 {
		cb(buf[:m], nil)
		return
	}
	cb(nil, err)
}

// CurrentTimeMillis returns wall-clock milliseconds.
func (vm *NativeVM) CurrentTimeMillis() int64 { return time.Now().UnixMilli() }

// NanoTime returns a monotonic nanosecond reading.
func (vm *NativeVM) NanoTime() int64 { return time.Now().UnixNano() }

// Exit stops the VM.
func (vm *NativeVM) Exit(code int32) {
	vm.exited = true
	vm.exitCode = code
	for _, t := range vm.threads {
		t.state = ntDead
	}
}

// ExitCode returns the code passed to System.exit (0 by default).
func (vm *NativeVM) ExitCode() int32 { return vm.exitCode }

// FS returns the host file system.
func (vm *NativeVM) FS() HostFS { return vm.fs }

// Heap exposes the unmanaged heap under sun/misc/Unsafe.
func (vm *NativeVM) Heap() *umheap.Heap { return vm.heap }

// SocketConnect is unsupported on the native engine's default host.
func (vm *NativeVM) SocketConnect(host string, port int32, cb func(int32, error)) {
	cb(-1, fmt.Errorf("jvm: sockets not wired on native engine"))
}

// SocketRead is unsupported by default.
func (vm *NativeVM) SocketRead(handle int32, n int32, cb func([]byte, error)) {
	cb(nil, fmt.Errorf("jvm: sockets not wired on native engine"))
}

// SocketWrite is unsupported by default.
func (vm *NativeVM) SocketWrite(handle int32, data []byte, cb func(error)) {
	cb(fmt.Errorf("jvm: sockets not wired on native engine"))
}

// SocketClose is a no-op by default.
func (vm *NativeVM) SocketClose(handle int32) {}

// IdentityHash issues sequential identity hash codes.
func (vm *NativeVM) IdentityHash(o *Object) int32 {
	if o.Extra == nil {
		vm.nextHash++
		o.Extra = vm.nextHash
	}
	if h, ok := o.Extra.(int32); ok {
		return h
	}
	// Object carries another payload; hash the pointer-ish way.
	vm.nextHash++
	return vm.nextHash
}

// SpawnThread starts threadObj's run() on a fresh green thread.
func (vm *NativeVM) SpawnThread(threadObj *Object) {
	run := threadObj.Class.FindMethod("run", "()V")
	t := &NThread{id: vm.nextTID, obj: threadObj}
	vm.nextTID++
	f := newNFrame(run)
	f.locals[0] = Slot{R: threadObj}
	t.frames = []*NFrame{f}
	threadObj.Extra = t
	vm.threads = append(vm.threads, t)
}

// SetThreadPriority is bookkeeping only: the native engine's
// round-robin interleaver has no priority levels, so the value lives
// in the Thread object's field alone.
func (vm *NativeVM) SetThreadPriority(threadObj *Object, p int32) {}

// CurrentThreadObj returns the running thread's Thread object.
func (vm *NativeVM) CurrentThreadObj() *Object {
	if vm.cur != nil && vm.cur.obj != nil {
		return vm.cur.obj
	}
	// Lazily build a Thread object for the main thread.
	tc := vm.LookupClass("java/lang/Thread")
	if tc == nil {
		return nil
	}
	o := NewObject(tc)
	setSlotByName(o, "name", Slot{R: vm.Intern("main")})
	if vm.cur != nil {
		vm.cur.obj = o
		o.Extra = vm.cur
	}
	return o
}

// Sleep parks the current thread until the deadline.
func (vm *NativeVM) Sleep(ms int64, done func()) {
	t := vm.cur
	t.state = ntSleeping
	t.wakeAt = time.Now().Add(time.Duration(ms) * time.Millisecond)
	done()
}

// YieldThread is a scheduling hint; the quantum scheduler handles it.
func (vm *NativeVM) YieldThread() {}

// JoinThread blocks until threadObj's thread dies.
func (vm *NativeVM) JoinThread(threadObj *Object, done func()) {
	target, ok := threadObj.Extra.(*NThread)
	if !ok || target.state == ntDead {
		done()
		return
	}
	t := vm.cur
	t.state = ntBlocked
	target.joiners = append(target.joiners, func() {
		t.state = ntRunnable
		done()
	})
}

// IsThreadAlive reports liveness.
func (vm *NativeVM) IsThreadAlive(threadObj *Object) bool {
	target, ok := threadObj.Extra.(*NThread)
	return ok && target.state != ntDead
}

// MonitorWait implements Object.wait on the green-thread scheduler.
func (vm *NativeVM) MonitorWait(o *Object, timeoutMs int64) *Object {
	t := vm.cur
	mon := o.EnsureMonitor()
	if mon.Owner != t {
		return vm.MakeThrowable("java/lang/IllegalMonitorStateException", "not owner")
	}
	saved := mon.Count
	mon.Owner = nil
	mon.Count = 0
	vm.wakeOneBlocked(mon)

	t.state = ntBlocked
	w := &Waiter{}
	w.Notify = func() {
		if w.Notified {
			return
		}
		w.Notified = true
		vm.acquireOrQueue(t, mon, saved)
	}
	mon.WaitQ = append(mon.WaitQ, w)
	if timeoutMs > 0 {
		vm.timedWaits = append(vm.timedWaits, timedWait{
			at: time.Now().Add(time.Duration(timeoutMs) * time.Millisecond),
			w:  w,
		})
	}
	return nil
}

func (vm *NativeVM) wakeOneBlocked(mon *Monitor) {
	if len(mon.BlockQ) == 0 {
		return
	}
	f := mon.BlockQ[0]
	mon.BlockQ = mon.BlockQ[1:]
	f()
}

// acquireOrQueue gives t the monitor (with entry count) or queues it.
func (vm *NativeVM) acquireOrQueue(t *NThread, mon *Monitor, count int) {
	if mon.Owner == nil {
		mon.Owner = t
		mon.Count = count
		t.state = ntRunnable
		t.depReady = true
		t.depRet = "V"
		return
	}
	mon.BlockQ = append(mon.BlockQ, func() {
		mon.Owner = t
		mon.Count = count
		t.state = ntRunnable
		t.depReady = true
		t.depRet = "V"
	})
}

// MonitorNotify implements Object.notify/notifyAll.
func (vm *NativeVM) MonitorNotify(o *Object, all bool) *Object {
	mon := o.EnsureMonitor()
	if mon.Owner != vm.cur {
		return vm.MakeThrowable("java/lang/IllegalMonitorStateException", "not owner")
	}
	for len(mon.WaitQ) > 0 {
		w := mon.WaitQ[0]
		mon.WaitQ = mon.WaitQ[1:]
		if !w.Notified {
			w.Notify()
			if !all {
				break
			}
		}
	}
	return nil
}

// BlockAndCall runs launch; on the synchronous native host the
// completion usually fires before this returns, in which case the
// thread never actually blocks.
func (vm *NativeVM) BlockAndCall(launch func(complete func(Value, *Object))) {
	t := vm.cur
	completed := false
	launch(func(v Value, thrown *Object) {
		completed = true
		t.depValue, t.depThrown, t.depReady = v, thrown, true
		if t.state == ntBlocked {
			t.state = ntRunnable
		}
	})
	if !completed {
		t.state = ntBlocked
	}
}

// EvalJS has no JavaScript host on the native engine.
func (vm *NativeVM) EvalJS(snippet string) string {
	return "ReferenceError: no JavaScript host in the native engine"
}

// --- shared helpers ---

// utf16Chars converts a Go string to UTF-16 code units.
func utf16Chars(s string) []uint16 {
	out := make([]uint16, 0, len(s))
	for _, r := range s {
		if r > 0xFFFF {
			r -= 0x10000
			out = append(out, uint16(0xD800|r>>10), uint16(0xDC00|r&0x3FF))
			continue
		}
		out = append(out, uint16(r))
	}
	return out
}

// stringValue reads a String object's chars into a Go string.
func stringValue(o *Object) string {
	if o == nil {
		return "<null>"
	}
	v := slotByName(o, "value")
	if v.R == nil {
		return ""
	}
	chars, ok := v.R.Arr.([]uint16)
	if !ok {
		return ""
	}
	var b strings.Builder
	for i := 0; i < len(chars); i++ {
		c := chars[i]
		if c >= 0xD800 && c <= 0xDBFF && i+1 < len(chars) {
			c2 := chars[i+1]
			if c2 >= 0xDC00 && c2 <= 0xDFFF {
				b.WriteRune(rune(c&0x3FF)<<10 | rune(c2&0x3FF) + 0x10000)
				i++
				continue
			}
		}
		b.WriteRune(rune(c))
	}
	return b.String()
}

// OSHostFS adapts the host operating system to HostFS — what "Node JS
// running on top of the native OS file system" is to Figure 6.
type OSHostFS struct {
	// Root, if non-empty, prefixes every path.
	Root string
}

func (o OSHostFS) path(p string) string {
	if o.Root == "" {
		return p
	}
	return o.Root + "/" + strings.TrimPrefix(p, "/")
}

// ReadFile reads a whole file.
func (o OSHostFS) ReadFile(p string, cb func([]byte, error)) { cb(os.ReadFile(o.path(p))) }

// WriteFile replaces a whole file.
func (o OSHostFS) WriteFile(p string, data []byte, cb func(error)) {
	cb(os.WriteFile(o.path(p), data, 0o644))
}

// Append appends to a file.
func (o OSHostFS) Append(p string, data []byte, cb func(error)) {
	f, err := os.OpenFile(o.path(p), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		cb(err)
		return
	}
	_, err = f.Write(data)
	cerr := f.Close()
	if err == nil {
		err = cerr
	}
	cb(err)
}

// Stat reports a path's size and kind.
func (o OSHostFS) Stat(p string, cb func(int64, bool, bool)) {
	fi, err := os.Stat(o.path(p))
	if err != nil {
		cb(0, false, false)
		return
	}
	cb(fi.Size(), fi.IsDir(), true)
}

// List names a directory's children.
func (o OSHostFS) List(p string, cb func([]string, error)) {
	ents, err := os.ReadDir(o.path(p))
	if err != nil {
		cb(nil, err)
		return
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	sort.Strings(names)
	cb(names, nil)
}

// Delete removes a file.
func (o OSHostFS) Delete(p string, cb func(error)) { cb(os.Remove(o.path(p))) }

// Mkdir creates a directory.
func (o OSHostFS) Mkdir(p string, cb func(error)) { cb(os.Mkdir(o.path(p), 0o755)) }

// Rename moves a file.
func (o OSHostFS) Rename(oldP, newP string, cb func(error)) {
	cb(os.Rename(o.path(oldP), o.path(newP)))
}

// fround performs Java's float rounding for f32 arithmetic.
func fround(v float64) float32 { return float32(v) }

// jrem is Java's IEEE remainder for frem/drem.
func jrem(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || b == 0 {
		return math.NaN()
	}
	if math.IsInf(b, 0) {
		return a
	}
	return math.Mod(a, b)
}
