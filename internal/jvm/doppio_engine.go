package jvm

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/core"
	"doppio/internal/jlong"
	"doppio/internal/profile"
	"doppio/internal/sockets"
	"doppio/internal/telemetry"
	"doppio/internal/umheap"
	"doppio/internal/vfs"
)

// DoppioVM is DoppioJVM proper (§6): the engine that executes JVM
// bytecode inside the simulated browser. Its threads live in the
// Doppio thread pool (§4.3), its stack frames are explicit heap
// objects (§6.1), its values follow JavaScript semantics (ints as
// float64 with |0 coercions; longs as software hi/lo pairs, §8), its
// class loader pulls class files through the asynchronous file system
// (§6.4), and every blocking native rides suspend-and-resume (§6.3).
type DoppioVM struct {
	win *browser.Window
	rt  *core.Runtime

	Reg    *Registry
	loader *AsyncLoader

	natives map[string]NativeFunc
	strings map[string]*Object
	mirrors map[*Class]*Object

	stdout, stderr io.Writer
	stdinFn        func(n int, cb func([]byte, error))
	fs             HostFS
	heap           *umheap.Heap
	bufs           *buffer.Factory
	jsEval         func(string) string

	socketSeq int32
	socketsBy map[int32]*sockets.Socket
	dialFn    func(w *browser.Window, addr string, cb func(*sockets.Socket, error))

	cur      *DThread
	threads  []*DThread
	nextTID  int
	nextHash int32

	exited   bool
	exitCode int32

	// engineTax is the per-instruction dispatch overhead modelling
	// the browser's JS engine speed relative to Chrome 28 (see
	// browser.Profile.EngineFactor and DESIGN.md).
	engineTax int
	taxSink   int

	// Instructions counts executed bytecodes.
	Instructions int64

	// quicken enables the warm-up rewriter (quickened bytecodes,
	// inline caches, superinstructions — see quicken.go). pairs holds
	// the per-VM adjacent-opcode attribution counters the fusion pass
	// consumes, qstats the counters /debug/jvm reports.
	quicken bool
	pairs   *pairCounts
	qstats  QuickStats

	// prof is the window hub's guest profiler (nil when off); its
	// SampleAlloc gate is consulted at the allocation opcodes and by
	// the unmanaged heap's allocation observer.
	prof *profile.Profiler

	tel *vmTelemetry

	// Uncaught records the first uncaught exception.
	Uncaught *Object

	mainDone []func(error)
	mainErr  error
}

// DoppioOptions configure a DoppioVM.
type DoppioOptions struct {
	Stdout, Stderr io.Writer
	// Stdin supplies console input asynchronously; nil means EOF.
	Stdin func(n int, cb func([]byte, error))
	// Provider supplies class files; typically a VFS-backed provider.
	Provider AsyncProvider
	// FS is the file system the program sees; typically the Doppio
	// VFS of the same window.
	FS HostFS
	// Timeslice, ForceMechanism and FixedCounter pass through to the
	// Doppio execution environment.
	Timeslice      time.Duration
	ForceMechanism string
	FixedCounter   int
	HeapSize       int
	// JSEval handles §6.8 eval requests.
	JSEval func(string) string
	// SocketDialer overrides how java.net.Socket connections are
	// opened (default sockets.Connect, one WebSocket per socket).
	// The fleet's gateway workload points this at a per-tenant
	// multiplexed sockets.Stack.
	SocketDialer func(w *browser.Window, addr string, cb func(*sockets.Socket, error))
	// DisableEngineTax turns off the per-browser dispatch overhead
	// model (used by unit tests).
	DisableEngineTax bool
	// Quicken enables the interpreter speed tier: quickened
	// bytecodes, monomorphic inline caches, and superinstruction
	// fusion. Off by default — the un-quickened path is the paper-
	// fidelity baseline.
	Quicken bool
}

// NewDoppioVM creates a DoppioJVM inside the browser window. The VM,
// its runtime and its class loader report into the window's telemetry
// hub; when the hub carries a Profiler, guest CPU time, allocation
// sites and blocked time are sampled into it.
func NewDoppioVM(win *browser.Window, opts DoppioOptions) *DoppioVM {
	if opts.Stdout == nil {
		opts.Stdout = io.Discard
	}
	if opts.Stderr == nil {
		opts.Stderr = opts.Stdout
	}
	if opts.HeapSize == 0 {
		opts.HeapSize = 1 << 20
	}
	reg := NewRegistry()
	bufs := &buffer.Factory{
		Typed:            win.Profile.HasTypedArrays,
		ValidatesStrings: win.Profile.ValidatesStrings,
		OnTypedAlloc:     win.NoteTypedArrayAlloc,
	}
	vm := &DoppioVM{
		win:       win,
		Reg:       reg,
		natives:   registerNatives(),
		strings:   make(map[string]*Object),
		mirrors:   make(map[*Class]*Object),
		stdout:    opts.Stdout,
		stderr:    opts.Stderr,
		stdinFn:   opts.Stdin,
		fs:        opts.FS,
		heap:      umheap.New(opts.HeapSize, win.Profile.HasTypedArrays, win.NoteTypedArrayAlloc),
		bufs:      bufs,
		jsEval:    opts.JSEval,
		socketsBy: make(map[int32]*sockets.Socket),
		dialFn:    opts.SocketDialer,
	}
	if opts.Provider == nil {
		opts.Provider = MapProvider{}
	}
	vm.loader = NewAsyncLoader(reg, opts.Provider)
	if vm.fs == nil {
		mem := vfs.New(win.Loop, bufs, vfs.NewInMemory())
		vm.fs = &VFSHostFS{FS: mem}
	}
	if !opts.DisableEngineTax {
		vm.engineTax = int(engineBaseTax * win.Profile.EngineFactor)
	}
	if opts.Quicken {
		vm.quicken = true
		vm.pairs = new(pairCounts)
	}
	vm.rt = core.NewRuntime(win.Loop, core.Config{
		Timeslice:      opts.Timeslice,
		ForceMechanism: opts.ForceMechanism,
		FixedCounter:   opts.FixedCounter,
		Telemetry:      win.Telemetry,
	})
	if h := win.Telemetry; h != nil {
		tel := &vmTelemetry{
			reg:          h.Registry,
			tracer:       h.Tracer,
			methodSpans:  h.MethodSpans,
			nativeCalls:  h.Registry.Counter("jvm", "native_calls"),
			nativeLat:    h.Registry.Histogram("jvm", "native_call"),
			classLoadLat: h.Registry.Histogram("jvm", "class_load"),
			classLoads:   h.Registry.Counter("jvm", "class_loads"),
		}
		vm.tel = tel
		vm.loader.Observe = func(name string, took time.Duration) {
			tel.classLoadLat.ObserveDuration(took)
			tel.classLoads.Inc()
		}
		vm.prof = h.Profiler
	}
	if vm.prof != nil {
		vm.heap.SetAllocHook(vm.profHeapAlloc)
	}
	return vm
}

// engineBaseTax is the modelled cost of interpreting one bytecode in
// the fastest JS engine of the population (Chrome 28's V8), expressed
// as busy-work iterations per instruction. It is calibrated so that
// DoppioJVM lands in the paper's 24-42x band over the native baseline
// on Chrome; other browsers scale it by Profile.EngineFactor.
// DESIGN.md documents this as the substitution for real JS engines.
const engineBaseTax = 2850.0

// Runtime exposes the underlying Doppio execution environment (for
// suspension statistics — Figures 4 and 5).
func (vm *DoppioVM) Runtime() *core.Runtime { return vm.rt }

// Window returns the hosting browser window.
func (vm *DoppioVM) Window() *browser.Window { return vm.win }

// QuickStats reports the quickening counters.
func (vm *DoppioVM) QuickStats() QuickStats {
	st := vm.qstats
	st.Enabled = vm.quicken
	return st
}

// DThread is one JVM thread in the Doppio thread pool: an explicit
// array of stack frames (§6.1) plus scheduling state.
type DThread struct {
	vm     *DoppioVM
	id     int
	frames []*DFrame
	obj    *Object
	dead   bool

	depValue  Value
	depThrown *Object
	depReady  bool
	depRet    string

	blocked bool

	// prevOp is the last raw opcode this thread dispatched, feeding
	// the adjacent-pair attribution counters behind fusion.
	prevOp byte

	// pool holds returned frames for reuse — frame allocation is the
	// dominant interpreter cost once dispatch is quickened, and a
	// normally-returning frame has no aliases left.
	pool []*DFrame

	joiners []func()
	coreT   *core.Thread

	// pendingLaunch is the async launch recorded by BlockAndCall,
	// consumed by the interpreter's native-invoke path.
	pendingLaunch func(done func())
	// awaitOn, when set by a host method during an async native's
	// launch, substitutes its own labelled completion for the generic
	// jvm.native(...) one — a thread parked on socket I/O shows
	// sockets.read(fd), not a native frame, in deadlock reports.
	awaitOn *core.Completion
	// completeWait finishes an Object.wait once the monitor is
	// re-acquired.
	completeWait func()
}

// DFrame is the §6.1 stack frame: "a JavaScript object that contains
// an array for the operand stack, an array for the local variables,
// and a reference to the method that the stack frame belongs to."
type DFrame struct {
	m      *Method
	pc     int
	stack  []interface{}
	locals []interface{}

	// span is the optional per-invocation trace span (Hub.MethodSpans);
	// the zero Span is a no-op.
	span telemetry.Span
}

func newDFrame(m *Method) *DFrame {
	return &DFrame{
		m:      m,
		stack:  make([]interface{}, 0, int(m.Code.MaxStack)+2),
		locals: make([]interface{}, int(m.Code.MaxLocals)+2),
	}
}

// framePoolCap bounds the per-thread frame reuse pool.
const framePoolCap = 32

// frameFor returns a frame for m, reusing a pooled one when its
// slices are large enough (they were scrubbed at recycle time).
func (d *DThread) frameFor(m *Method) *DFrame {
	n := len(d.pool)
	if n == 0 {
		return newDFrame(m)
	}
	f := d.pool[n-1]
	d.pool = d.pool[:n-1]
	needL := int(m.Code.MaxLocals) + 2
	needS := int(m.Code.MaxStack) + 2
	if cap(f.locals) < needL || cap(f.stack) < needS {
		return newDFrame(m)
	}
	f.m = m
	f.pc = 0
	f.locals = f.locals[:needL]
	f.stack = f.stack[:0]
	return f
}

// recycleFrame caches a frame that was popped on a normal return for
// reuse. Frames popped by exception unwinding or thread death are not
// recycled — nothing else ever aliases a normally-returned frame,
// which is what makes reuse safe. Slots are not scrubbed: verified
// bytecode never reads a local before writing it or a stack slot
// above the operand top, so stale values are unreachable; the refs
// they pin are bounded by the pool size and die with the thread.
// The pool is part of the speed tier: with quickening off the engine
// keeps its unoptimized allocation behavior so the modelled DoppioJVM
// never beats the native baseline.
func (d *DThread) recycleFrame(f *DFrame) {
	if !d.vm.quicken || len(d.pool) >= framePoolCap {
		return
	}
	f.m = nil
	f.span = telemetry.Span{}
	f.stack = f.stack[:0]
	d.pool = append(d.pool, f)
}

// StartMain arranges for mainClass.main(args) to run; done fires (on
// the event loop) when the JVM exits. The caller drives the window's
// event loop.
func (vm *DoppioVM) StartMain(mainClass string, args []string, done func(error)) {
	if done != nil {
		vm.mainDone = append(vm.mainDone, done)
	}
	// Preload the core classes every JVM needs before user code runs:
	// Object, String, Class, and every exception class the interpreter
	// or a native throws. MakeThrowable cannot load a class, so it
	// builds a Throwable for any class missing from this list.
	preload := []string{
		"java/lang/Object", "java/lang/String", "java/lang/Class",
		"java/lang/Throwable", "java/lang/Exception", "java/lang/Error",
		"java/lang/RuntimeException", "java/lang/NullPointerException",
		"java/lang/ArithmeticException", "java/lang/ClassCastException",
		"java/lang/IndexOutOfBoundsException",
		"java/lang/ArrayIndexOutOfBoundsException",
		"java/lang/NegativeArraySizeException",
		"java/lang/IllegalMonitorStateException",
		"java/lang/ClassNotFoundException", "java/lang/InternalError",
		"java/lang/IllegalArgumentException", "java/lang/NumberFormatException",
		"java/lang/ArrayStoreException", "java/lang/OutOfMemoryError",
		"java/io/IOException", "java/io/FileNotFoundException",
	}
	var loadAll func(i int, then func())
	loadAll = func(i int, then func()) {
		if i == len(preload) {
			then()
			return
		}
		vm.loader.Load(preload[i], func(_ *Class, err error) {
			// Missing optional exception classes are tolerated; the
			// first two are mandatory.
			if err != nil && i < 2 {
				vm.finish(err)
				return
			}
			loadAll(i+1, then)
		})
	}
	loadAll(0, func() {
		vm.loader.Load(mainClass, func(c *Class, err error) {
			if err != nil {
				vm.finish(err)
				return
			}
			main := c.FindMethod("main", "([Ljava/lang/String;)V")
			if main == nil || !main.IsStatic() {
				vm.finish(fmt.Errorf("jvm: %s has no static main([Ljava/lang/String;)V", mainClass))
				return
			}
			vm.loader.Load("[Ljava/lang/String;", func(arrC *Class, err error) {
				if err != nil {
					vm.finish(err)
					return
				}
				argArr := NewArray(arrC, "Ljava/lang/String;", len(args))
				data := argArr.Arr.([]*Object)
				for i, s := range args {
					data[i] = vm.Intern(s)
				}
				t := vm.spawn("main")
				f := newDFrame(main)
				f.locals[0] = argArr
				t.frames = []*DFrame{f}
				t.pushInitIfNeeded(c)
				vm.rt.OnIdle(func() { vm.finish(nil) })
				vm.rt.Start()
			})
		})
	})
}

// RunMain is the synchronous convenience wrapper: it starts main and
// drives the event loop to completion.
func (vm *DoppioVM) RunMain(mainClass string, args []string) error {
	var result error
	finished := false
	vm.StartMain(mainClass, args, func(err error) {
		result = err
		finished = true
	})
	if err := vm.win.Loop.Run(); err != nil {
		return err
	}
	if !finished {
		if dead := vm.rt.DeadlockedThreads(); len(dead) > 0 {
			return fmt.Errorf("jvm: deadlock: %d thread(s) blocked forever: %s",
				len(dead), vm.rt.DeadlockReport())
		}
		return fmt.Errorf("jvm: event loop drained before main finished")
	}
	return result
}

func (vm *DoppioVM) finish(err error) {
	vm.FlushTelemetry()
	if err == nil && vm.Uncaught != nil {
		err = fmt.Errorf("jvm: uncaught exception: %s", vm.describeThrowable(vm.Uncaught))
	}
	vm.mainErr = err
	for _, fn := range vm.mainDone {
		fn(err)
	}
	vm.mainDone = nil
}

func (vm *DoppioVM) describeThrowable(ex *Object) string {
	msg := ""
	if s := slotByName(ex, "message"); s.R != nil {
		msg = ": " + vm.GoString(s.R)
	}
	return strings.ReplaceAll(ex.Class.Name, "/", ".") + msg
}

func (vm *DoppioVM) spawn(name string) *DThread {
	vm.nextTID++
	t := &DThread{vm: vm, id: vm.nextTID}
	vm.threads = append(vm.threads, t)
	t.coreT = vm.rt.Spawn(name, t)
	t.coreT.Data = t
	return t
}

// pushInitIfNeeded pushes <clinit> frames for c's uninitialized
// hierarchy; returns true if any frame was pushed (the triggering
// instruction must re-execute).
func (t *DThread) pushInitIfNeeded(c *Class) bool {
	var chain []*Class
	for k := c; k != nil; k = k.Super {
		if k.State == StateLoaded {
			k.State = StateInitialized
			chain = append(chain, k)
		}
	}
	pushed := false
	for _, k := range chain {
		if cl := k.Clinit(); cl != nil {
			t.frames = append(t.frames, newDFrame(cl))
			pushed = true
		}
	}
	return pushed
}

// blockOn suspends the thread around an asynchronous operation via a
// core.Completion labelled with the reason (visible in deadlock
// reports). If the operation completes synchronously the thread never
// blocks and blockOn returns false.
func (t *DThread) blockOn(ct *core.Thread, reason string, launch func(done func())) bool {
	c := core.NewCompletion(t.vm.win.Loop, reason)
	launch(func() { c.Resolve(nil, nil) })
	if o := t.awaitOn; o != nil {
		// The host operation supplied its own labelled completion;
		// park on that one so the blocked-thread label names the real
		// blocking site. Its callbacks (which deposit the result and
		// settle c) run before the thread resumes, per the Completion
		// ordering contract.
		t.awaitOn = nil
		c = o
	}
	if !c.Await(ct) {
		return false
	}
	t.blocked = true
	return true
}

// --- NativeHost implementation ---

// EngineName identifies the engine.
func (vm *DoppioVM) EngineName() string { return "doppio" }

// Intern returns the canonical String for s.
func (vm *DoppioVM) Intern(s string) *Object {
	if o, ok := vm.strings[s]; ok {
		return o
	}
	o := vm.NewString(s)
	vm.strings[s] = o
	return o
}

// NewString builds a String object; String must already be loaded.
func (vm *DoppioVM) NewString(s string) *Object {
	sc := vm.Reg.Get("java/lang/String")
	if sc == nil {
		panic("jvm: NewString before java/lang/String is loaded")
	}
	o := NewObject(sc)
	arrC := vm.Reg.Get("[C")
	if arrC == nil {
		arrC, _ = vm.Reg.arrayClass("[C")
	}
	arr := &Object{Class: arrC, Arr: utf16Chars(s)}
	setSlotByName(o, "value", Slot{R: arr})
	return o
}

// GoString decodes a String object.
func (vm *DoppioVM) GoString(o *Object) string { return stringValue(o) }

// MakeThrowable builds an exception object without user code.
func (vm *DoppioVM) MakeThrowable(class, msg string) *Object {
	c := vm.Reg.Get(class)
	if c == nil {
		c = vm.Reg.Get("java/lang/Throwable")
	}
	if c == nil {
		// Nothing better is loaded yet; a bare Object still unwinds.
		c = vm.Reg.Get("java/lang/Object")
	}
	ex := NewObject(c)
	if msg != "" {
		setSlotByName(ex, "message", Slot{R: vm.Intern(msg)})
	}
	ex.Extra = vm.captureTrace()
	return ex
}

// FillInStackTrace records the current thread's stack as o's trace.
func (vm *DoppioVM) FillInStackTrace(o *Object) { o.Extra = vm.captureTrace() }

// captureTrace copies the current thread's (method, pc) frames,
// innermost first.
func (vm *DoppioVM) captureTrace() stackTrace {
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

// ClassMirror returns (lazily) the Class mirror for c.
func (vm *DoppioVM) ClassMirror(c *Class) *Object {
	if m, ok := vm.mirrors[c]; ok {
		return m
	}
	cc := vm.Reg.Get("java/lang/Class")
	if cc == nil {
		cc = c
	}
	m := NewObject(cc)
	m.Extra = c
	setSlotByName(m, "name", Slot{R: vm.Intern(strings.ReplaceAll(c.Name, "/", "."))})
	vm.mirrors[c] = m
	return m
}

// LookupClass returns an already-loaded class (the async loader means
// it cannot load on demand here; interpreters preload).
func (vm *DoppioVM) LookupClass(name string) *Class {
	if c := vm.Reg.Get(name); c != nil {
		return c
	}
	if name != "" && name[0] == '[' {
		c, _ := vm.Reg.arrayClass(name)
		return c
	}
	return nil
}

// Stdout returns the console writer.
func (vm *DoppioVM) Stdout() io.Writer { return vm.stdout }

// Stderr returns the error writer.
func (vm *DoppioVM) Stderr() io.Writer { return vm.stderr }

// StdinRead reads console input asynchronously.
func (vm *DoppioVM) StdinRead(n int, cb func([]byte, error)) {
	if vm.stdinFn == nil {
		cb(nil, io.EOF)
		return
	}
	vm.stdinFn(n, cb)
}

// CurrentTimeMillis returns wall-clock milliseconds.
func (vm *DoppioVM) CurrentTimeMillis() int64 { return time.Now().UnixMilli() }

// NanoTime returns a monotonic reading.
func (vm *DoppioVM) NanoTime() int64 { return time.Now().UnixNano() }

// Exit stops the VM and the event loop's JVM work.
func (vm *DoppioVM) Exit(code int32) {
	vm.exited = true
	vm.exitCode = code
	for _, t := range vm.threads {
		t.dead = true
		if t.coreT != nil {
			t.coreT.Kill()
		}
	}
	vm.finish(nil)
}

// ExitCode returns the System.exit code.
func (vm *DoppioVM) ExitCode() int32 { return vm.exitCode }

// FS returns the Doppio file system binding.
func (vm *DoppioVM) FS() HostFS { return vm.fs }

// Heap exposes the unmanaged heap: to the sun/misc/Unsafe natives
// (§6.5) and to diagnostics (free-list maps in post-mortem reports and
// the ops server's /debug/heap).
func (vm *DoppioVM) Heap() *umheap.Heap { return vm.heap }

// SocketConnect opens a Doppio socket (§5.3) through the window's
// dialer — sockets.Connect by default, or the SocketDialer option
// (the fleet's gateway workload routes each tenant through its own
// multiplexed Stack there). The thread parks under a
// sockets.connect(addr) label while the dial is in flight.
func (vm *DoppioVM) SocketConnect(host string, port int32, cb func(int32, error)) {
	addr := fmt.Sprintf("%s:%d", host, port)
	c := core.NewCompletion(vm.win.Loop, "sockets.connect("+addr+")")
	vm.cur.awaitOn = c
	c.Then(func(v interface{}, err error) {
		if err != nil {
			cb(-1, err)
			return
		}
		cb(v.(int32), nil)
	})
	dial := vm.dialFn
	if dial == nil {
		dial = sockets.Connect
	}
	dial(vm.win, addr, func(s *sockets.Socket, err error) {
		if err != nil {
			c.Resolve(nil, err)
			return
		}
		vm.socketSeq++
		handle := vm.socketSeq
		s.SetFD(handle)
		vm.socketsBy[handle] = s
		c.Resolve(handle, nil)
	})
}

// SocketRead reads from a Doppio socket. The socket's own completion
// is handed to blockOn via awaitOn, so a stalled read parks the JVM
// thread under sockets.read(fd).
func (vm *DoppioVM) SocketRead(handle int32, n int32, cb func([]byte, error)) {
	s := vm.socketsBy[handle]
	if s == nil {
		cb(nil, fmt.Errorf("jvm: bad socket handle %d", handle))
		return
	}
	c := s.Read(int(n))
	vm.cur.awaitOn = c
	c.Then(func(v interface{}, err error) {
		data, _ := v.([]byte)
		cb(data, err)
	})
}

// SocketWrite writes to a Doppio socket. The write completion resolves
// once flow control admits the bytes, so a zero-window stream parks
// the thread visibly under sockets.write(fd).
func (vm *DoppioVM) SocketWrite(handle int32, data []byte, cb func(error)) {
	s := vm.socketsBy[handle]
	if s == nil {
		cb(fmt.Errorf("jvm: bad socket handle %d", handle))
		return
	}
	c := s.Write(data)
	vm.cur.awaitOn = c
	c.Then(func(_ interface{}, err error) { cb(err) })
}

// SocketClose closes a Doppio socket.
func (vm *DoppioVM) SocketClose(handle int32) {
	if s := vm.socketsBy[handle]; s != nil {
		s.Close()
		delete(vm.socketsBy, handle)
	}
}

// IdentityHash issues identity hash codes.
func (vm *DoppioVM) IdentityHash(o *Object) int32 {
	if o.Extra == nil {
		vm.nextHash++
		o.Extra = vm.nextHash
	}
	if h, ok := o.Extra.(int32); ok {
		return h
	}
	vm.nextHash++
	return vm.nextHash
}

// SpawnThread starts threadObj.run() on a new Doppio thread (§6.2).
// The Java thread's priority field (MIN_PRIORITY..MAX_PRIORITY) maps
// directly onto the run queue's levels.
func (vm *DoppioVM) SpawnThread(threadObj *Object) {
	run := threadObj.Class.FindMethod("run", "()V")
	t := vm.spawn("jvm-thread")
	f := newDFrame(run)
	f.locals[0] = threadObj
	t.frames = []*DFrame{f}
	t.obj = threadObj
	threadObj.Extra = t
	if p := slotByName(threadObj, "priority"); p.N != 0 {
		t.coreT.SetPriority(int(p.N))
	}
}

// SetThreadPriority maps Thread.setPriority onto the run queue: the
// JVM's 1..10 priority range is the scheduler's level range.
func (vm *DoppioVM) SetThreadPriority(threadObj *Object, p int32) {
	if target, ok := threadObj.Extra.(*DThread); ok && target.coreT != nil {
		target.coreT.SetPriority(int(p))
		return
	}
	if vm.cur != nil && vm.cur.obj == threadObj && vm.cur.coreT != nil {
		vm.cur.coreT.SetPriority(int(p))
	}
}

// CurrentThreadObj returns the running thread's Thread object.
func (vm *DoppioVM) CurrentThreadObj() *Object {
	if vm.cur != nil && vm.cur.obj != nil {
		return vm.cur.obj
	}
	tc := vm.Reg.Get("java/lang/Thread")
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

// Sleep suspends the thread via the browser timer (§4.2).
func (vm *DoppioVM) Sleep(ms int64, done func()) {
	vm.win.Loop.SetTimeout(done, time.Duration(ms)*time.Millisecond)
}

// YieldThread is handled by the cooperative scheduler.
func (vm *DoppioVM) YieldThread() {}

// JoinThread completes when threadObj's thread terminates.
func (vm *DoppioVM) JoinThread(threadObj *Object, done func()) {
	target, ok := threadObj.Extra.(*DThread)
	if !ok || target.dead {
		done()
		return
	}
	target.joiners = append(target.joiners, done)
}

// IsThreadAlive reports thread liveness.
func (vm *DoppioVM) IsThreadAlive(threadObj *Object) bool {
	target, ok := threadObj.Extra.(*DThread)
	return ok && !target.dead
}

// MonitorWait implements Object.wait over the Doppio thread pool.
func (vm *DoppioVM) MonitorWait(o *Object, timeoutMs int64) *Object {
	t := vm.cur
	mon := o.EnsureMonitor()
	if mon.Owner != t {
		return vm.MakeThrowable("java/lang/IllegalMonitorStateException", "not owner")
	}
	saved := mon.Count
	mon.Owner = nil
	mon.Count = 0
	vm.wakeOneBlockedD(mon)

	w := &Waiter{}
	w.Notify = func() {
		if w.Notified {
			return
		}
		w.Notified = true
		vm.acquireOrQueueD(t, mon, saved)
	}
	mon.WaitQ = append(mon.WaitQ, w)
	// The wait native returns Async; arm the blocking continuation so
	// the thread parks until Notify reacquires the monitor.
	t.pendingLaunch = func(done func()) {
		t.completeWait = func() {
			t.depValue, t.depThrown, t.depReady = nil, nil, true
			done()
		}
	}
	if timeoutMs > 0 {
		vm.win.Loop.SetTimeout(func() { w.Notify() }, time.Duration(timeoutMs)*time.Millisecond)
	}
	return nil
}

// MonitorNotify implements Object.notify/notifyAll.
func (vm *DoppioVM) MonitorNotify(o *Object, all bool) *Object {
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

func (vm *DoppioVM) wakeOneBlockedD(mon *Monitor) {
	if len(mon.BlockQ) == 0 {
		return
	}
	f := mon.BlockQ[0]
	mon.BlockQ = mon.BlockQ[1:]
	f()
}

// acquireOrQueueD hands t the monitor or queues it for entry; on
// acquisition the thread's pending native completes.
func (vm *DoppioVM) acquireOrQueueD(t *DThread, mon *Monitor, count int) {
	grant := func() {
		mon.Owner = t
		mon.Count = count
		if t.completeWait != nil {
			done := t.completeWait
			t.completeWait = nil
			done()
		}
	}
	if mon.Owner == nil {
		grant()
		return
	}
	mon.BlockQ = append(mon.BlockQ, grant)
}

// BlockAndCall bridges async host work into a blocked JVM thread
// (§4.2). The interpreter observes t.depReady afterwards.
func (vm *DoppioVM) BlockAndCall(launch func(complete func(Value, *Object))) {
	t := vm.cur
	t.pendingLaunch = func(done func()) {
		launch(func(v Value, thrown *Object) {
			t.depValue, t.depThrown, t.depReady = v, thrown, true
			done()
		})
	}
}

// EvalJS evaluates JavaScript through the embedder hook (§6.8).
func (vm *DoppioVM) EvalJS(snippet string) string {
	if vm.jsEval != nil {
		return vm.jsEval(snippet)
	}
	return "ReferenceError: no JavaScript evaluator installed"
}

// --- VFS binding ---

// VFSHostFS adapts the Doppio file system (internal/vfs) to the
// native-method HostFS surface. The JVM natives block the calling
// thread on every operation, so each goes through vfs.FS.Blocking: an
// answer the backend chain gives inline settles the native before the
// thread would suspend, and a later one resumes it through the bridge.
type VFSHostFS struct{ FS *vfs.FS }

// ReadFile loads a whole file, delivering the VFS's read-only slice
// (see HostFS.ReadFile).
func (v *VFSHostFS) ReadFile(path string, cb func([]byte, error)) {
	v.FS.Blocking(func() { v.FS.ReadFileBytes(path, cb) })
}

// WriteFile replaces a whole file.
func (v *VFSHostFS) WriteFile(path string, data []byte, cb func(error)) {
	v.FS.Blocking(func() { v.FS.WriteFile(path, data, cb) })
}

// Append appends to a file.
func (v *VFSHostFS) Append(path string, data []byte, cb func(error)) {
	v.FS.Blocking(func() { v.FS.AppendFile(path, data, cb) })
}

// Stat reports size and kind.
func (v *VFSHostFS) Stat(path string, cb func(int64, bool, bool)) {
	v.FS.Blocking(func() {
		v.FS.Stat(path, func(st vfs.Stats, err error) {
			if err != nil {
				cb(0, false, false)
				return
			}
			cb(st.Size, st.IsDirectory(), true)
		})
	})
}

// List names a directory.
func (v *VFSHostFS) List(path string, cb func([]string, error)) {
	v.FS.Blocking(func() { v.FS.Readdir(path, cb) })
}

// Delete removes a file, or an empty directory as java.io.File.delete
// does. A directory answers Unlink with EISDIR, and the Rmdir that
// follows is issued from the held callback under its own Blocking, so
// an inline answer still settles inline.
func (v *VFSHostFS) Delete(path string, cb func(error)) {
	v.FS.Blocking(func() {
		v.FS.Unlink(path, func(err error) {
			if !vfs.IsErrno(err, vfs.EISDIR) {
				cb(err)
				return
			}
			v.FS.Blocking(func() { v.FS.Rmdir(path, cb) })
		})
	})
}

// Mkdir creates a directory.
func (v *VFSHostFS) Mkdir(path string, cb func(error)) {
	v.FS.Blocking(func() { v.FS.Mkdir(path, cb) })
}

// Rename moves a file.
func (v *VFSHostFS) Rename(oldP, newP string, cb func(error)) {
	v.FS.Blocking(func() { v.FS.Rename(oldP, newP, cb) })
}

// VFSClassProvider loads class files from directories of a Doppio
// file system — the §6.4 class path. Classes download on demand
// through whatever backend is mounted (HTTP, localStorage, ...).
type VFSClassProvider struct {
	FS   *vfs.FS
	Dirs []string // class path entries
}

// BytesAsync fetches <dir>/<name>.class from the first class path
// entry that has it. A class load blocks its thread, so each probe
// goes through vfs.FS.Blocking, including the next entry's probe
// issued from a miss's callback.
func (p *VFSClassProvider) BytesAsync(name string, cb func([]byte, error)) {
	var try func(i int)
	try = func(i int) {
		if i == len(p.Dirs) {
			cb(nil, &ClassNotFoundError{Name: name})
			return
		}
		path := strings.TrimSuffix(p.Dirs[i], "/") + "/" + name + ".class"
		// The class parser copies what it keeps, so the VFS's
		// read-only slice goes straight to it.
		p.FS.Blocking(func() {
			p.FS.ReadFileBytes(path, func(data []byte, err error) {
				if err != nil {
					try(i + 1)
					return
				}
				cb(data, nil)
			})
		})
	}
	try(0)
}

// --- JS number helpers (the §3/§8 value model) ---

// jsInt reads a JS-number slot as an int32.
func jsInt(v interface{}) int32 {
	return int32(int64(v.(float64)))
}

// jsNum wraps an int32 back into a JS number.
func jsNum(v int32) interface{} { return float64(v) }

// jsLong reads a software long slot.
func jsLong(v interface{}) jlong.Long { return v.(jlong.Long) }

// jsFloat applies JS Math.fround semantics for JVM floats.
func jsFloat(v float64) float64 { return float64(float32(v)) }

// jsTruncDiv is (a / b) | 0 — the JS idiom for integer division.
func jsTruncDiv(a, b float64) float64 {
	q := a / b
	return float64(int32(int64(math.Trunc(q))))
}
