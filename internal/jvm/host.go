package jvm

import (
	"io"

	"doppio/internal/umheap"
)

// Value is a decoded JVM value as seen by native methods: one of nil,
// int32 (int/short/char/byte/boolean), int64 (long), float32, float64,
// or *Object. Both engines convert their internal representations to
// and from these at the native boundary, so one native table serves
// both.
type Value interface{}

// NativeResult is what a native method produces.
type NativeResult struct {
	// Value is the decoded return value (ignored for void methods).
	Value Value
	// Thrown, if non-nil, is an exception object to throw at the call
	// site.
	Thrown *Object
	// Async marks that the native started an asynchronous operation
	// via NativeHost.BlockAndCall; the result arrives at the
	// completion callback instead.
	Async bool
}

// NativeFunc implements one native method. recv is nil for statics.
type NativeFunc func(h NativeHost, recv *Object, args []Value) NativeResult

// AsyncWriter is a console sink that acknowledges writes
// asynchronously — the process layer's pipe ends. When a VM's stdout
// or stderr implements it, PrintStream.writeNative blocks the guest
// thread until the sink accepts the bytes (pipe backpressure) instead
// of assuming the write completed. WriteAsync must call cb exactly
// once, on the event loop.
type AsyncWriter interface {
	io.Writer
	WriteAsync(p []byte, cb func(n int, err error))
}

// HostFS is the file system surface natives program against. The
// Doppio engine implements it over the Doppio VFS (VFSHostFS), which
// invokes a callback inline when the backend chain answers inline and
// on a later event-loop turn otherwise; the native engine implements
// it over the host OS, invoking the callbacks synchronously. All
// callbacks must eventually fire.
type HostFS interface {
	// ReadFile delivers a whole file. The slice is read-only: it may
	// share the file system's stored contents (vfs.FS.ReadFileBytes),
	// so callers copy it into memory of their own before any write.
	ReadFile(path string, cb func([]byte, error))
	WriteFile(path string, data []byte, cb func(error))
	Append(path string, data []byte, cb func(error))
	// Stat reports size and kind; exists=false when missing.
	Stat(path string, cb func(size int64, isDir, exists bool))
	List(path string, cb func([]string, error))
	Delete(path string, cb func(error))
	Mkdir(path string, cb func(error))
	Rename(oldPath, newPath string, cb func(error))
}

// NativeHost is the engine surface exposed to native methods (§6.3):
// object and string services, OS services (file system, unmanaged
// heap, sockets, console), threading, and the synchronous-over-
// asynchronous bridge.
type NativeHost interface {
	// EngineName identifies the engine ("doppio" or "native").
	EngineName() string

	// Intern returns the canonical String object for s (§6: string
	// interning).
	Intern(s string) *Object
	// NewString builds a fresh (non-interned) String object.
	NewString(s string) *Object
	// GoString decodes a String object.
	GoString(o *Object) string

	// MakeThrowable builds an exception object of the given class
	// with a message, without running user constructors.
	MakeThrowable(class, msg string) *Object
	// FillInStackTrace records the current thread's stack as o's
	// trace (Throwable.fillInStackTrace).
	FillInStackTrace(o *Object)

	// ClassMirror returns the java/lang/Class instance for c.
	ClassMirror(c *Class) *Object

	// LookupClass returns an already-loaded class by name, or nil.
	LookupClass(name string) *Class

	// Console and environment.
	Stdout() io.Writer
	Stderr() io.Writer
	StdinRead(n int, cb func([]byte, error)) // asynchronous console input
	CurrentTimeMillis() int64
	NanoTime() int64
	Exit(code int32)

	// OS services.
	FS() HostFS
	// Heap is the unmanaged heap under sun/misc/Unsafe (§6.5).
	Heap() *umheap.Heap
	SocketConnect(host string, port int32, cb func(handle int32, err error))
	SocketRead(handle int32, n int32, cb func([]byte, error))
	SocketWrite(handle int32, data []byte, cb func(error))
	SocketClose(handle int32)

	// IdentityHash returns a stable identity hash for o.
	IdentityHash(o *Object) int32

	// Threading (§6.2).
	SpawnThread(threadObj *Object)
	// SetThreadPriority maps Thread.setPriority (MIN_PRIORITY..
	// MAX_PRIORITY) onto the engine's scheduler; engines without a
	// priority scheduler may treat it as bookkeeping.
	SetThreadPriority(threadObj *Object, p int32)
	CurrentThreadObj() *Object
	Sleep(ms int64, done func())
	YieldThread()
	JoinThread(threadObj *Object, done func())
	IsThreadAlive(threadObj *Object) bool
	MonitorWait(o *Object, timeoutMs int64) *Object // returns thrown or nil; blocks current thread
	MonitorNotify(o *Object, all bool) *Object      // returns thrown or nil

	// BlockAndCall bridges asynchronous host operations into
	// synchronous JVM semantics (§4.2): the current thread blocks,
	// launch starts the async work, and complete delivers the
	// decoded return value (and optional exception), resuming the
	// thread. A native using it must return NativeResult{Async: true}.
	BlockAndCall(launch func(complete func(Value, *Object)))

	// EvalJS is the §6.8 interoperability hook: it evaluates a
	// JavaScript snippet in the hosting page and returns the result
	// coerced to a string. Engines without a JS host return an error
	// message string.
	EvalJS(snippet string) string
}
