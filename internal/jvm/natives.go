package jvm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"

	"doppio/internal/jlong"
	"doppio/internal/umheap"
)

// registerNatives builds the native method table (§6.3): JVM
// interfaces to the file system, unmanaged memory, network
// connections, console, threading and math — implemented against the
// NativeHost so that one table serves both engines.
func registerNatives() map[string]NativeFunc {
	n := map[string]NativeFunc{}

	// --- java/lang/Object ---
	n["java/lang/Object.hashCode()I"] = func(h NativeHost, recv *Object, _ []Value) NativeResult {
		return NativeResult{Value: h.IdentityHash(recv)}
	}
	n["java/lang/Object.getClass()Ljava/lang/Class;"] = func(h NativeHost, recv *Object, _ []Value) NativeResult {
		return NativeResult{Value: h.ClassMirror(recv.Class)}
	}
	n["java/lang/Object.wait(J)V"] = func(h NativeHost, recv *Object, args []Value) NativeResult {
		if thrown := h.MonitorWait(recv, args[0].(int64)); thrown != nil {
			return NativeResult{Thrown: thrown}
		}
		return NativeResult{Async: true}
	}
	n["java/lang/Object.notify()V"] = func(h NativeHost, recv *Object, _ []Value) NativeResult {
		return NativeResult{Thrown: h.MonitorNotify(recv, false)}
	}
	n["java/lang/Object.notifyAll()V"] = func(h NativeHost, recv *Object, _ []Value) NativeResult {
		return NativeResult{Thrown: h.MonitorNotify(recv, true)}
	}

	// --- java/lang/System ---
	n["java/lang/System.currentTimeMillis()J"] = func(h NativeHost, _ *Object, _ []Value) NativeResult {
		return NativeResult{Value: h.CurrentTimeMillis()}
	}
	n["java/lang/System.nanoTime()J"] = func(h NativeHost, _ *Object, _ []Value) NativeResult {
		return NativeResult{Value: h.NanoTime()}
	}
	n["java/lang/System.exit(I)V"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		h.Exit(args[0].(int32))
		return NativeResult{}
	}
	n["java/lang/System.identityHashCode(Ljava/lang/Object;)I"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		o, _ := args[0].(*Object)
		if o == nil {
			return NativeResult{Value: int32(0)}
		}
		return NativeResult{Value: h.IdentityHash(o)}
	}
	// No system properties are defined: every key reads null.
	n["java/lang/System.getProperty(Ljava/lang/String;)Ljava/lang/String;"] = func(NativeHost, *Object, []Value) NativeResult {
		return NativeResult{}
	}
	n["java/lang/System.arraycopy(Ljava/lang/Object;ILjava/lang/Object;II)V"] = nativeArraycopy

	// --- java/lang/String ---
	n["java/lang/String.intern()Ljava/lang/String;"] = func(h NativeHost, recv *Object, _ []Value) NativeResult {
		return NativeResult{Value: h.Intern(h.GoString(recv))}
	}

	// --- java/lang/Throwable ---
	n["java/lang/Throwable.fillInStackTrace()Ljava/lang/Throwable;"] = func(h NativeHost, recv *Object, _ []Value) NativeResult {
		// Engines capture traces in MakeThrowable; user-thrown
		// exceptions capture theirs here.
		h.FillInStackTrace(recv)
		return NativeResult{Value: recv}
	}
	n["java/lang/Throwable.stackTraceString()Ljava/lang/String;"] = func(h NativeHost, recv *Object, _ []Value) NativeResult {
		return NativeResult{Value: h.NewString(traceOf(recv).String())}
	}

	// --- java/lang/Thread ---
	n["java/lang/Thread.start0()V"] = func(h NativeHost, recv *Object, _ []Value) NativeResult {
		h.SpawnThread(recv)
		return NativeResult{}
	}
	n["java/lang/Thread.sleep(J)V"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.Sleep(args[0].(int64), func() { complete(nil, nil) })
		})
		return NativeResult{Async: true}
	}
	n["java/lang/Thread.yield()V"] = func(h NativeHost, _ *Object, _ []Value) NativeResult {
		h.YieldThread()
		return NativeResult{}
	}
	n["java/lang/Thread.setPriority0(I)V"] = func(h NativeHost, recv *Object, args []Value) NativeResult {
		h.SetThreadPriority(recv, args[0].(int32))
		return NativeResult{}
	}
	n["java/lang/Thread.currentThread()Ljava/lang/Thread;"] = func(h NativeHost, _ *Object, _ []Value) NativeResult {
		return NativeResult{Value: h.CurrentThreadObj()}
	}
	n["java/lang/Thread.isAlive()Z"] = func(h NativeHost, recv *Object, _ []Value) NativeResult {
		if h.IsThreadAlive(recv) {
			return NativeResult{Value: int32(1)}
		}
		return NativeResult{Value: int32(0)}
	}
	n["java/lang/Thread.join()V"] = func(h NativeHost, recv *Object, _ []Value) NativeResult {
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.JoinThread(recv, func() { complete(nil, nil) })
		})
		return NativeResult{Async: true}
	}

	// --- java/lang/Math ---
	mathUnary := func(fn func(float64) float64) NativeFunc {
		return func(_ NativeHost, _ *Object, args []Value) NativeResult {
			return NativeResult{Value: fn(args[0].(float64))}
		}
	}
	n["java/lang/Math.sqrt(D)D"] = mathUnary(math.Sqrt)
	n["java/lang/Math.sin(D)D"] = mathUnary(math.Sin)
	n["java/lang/Math.cos(D)D"] = mathUnary(math.Cos)
	n["java/lang/Math.tan(D)D"] = mathUnary(math.Tan)
	n["java/lang/Math.log(D)D"] = mathUnary(math.Log)
	n["java/lang/Math.exp(D)D"] = mathUnary(math.Exp)
	n["java/lang/Math.floor(D)D"] = mathUnary(math.Floor)
	n["java/lang/Math.ceil(D)D"] = mathUnary(math.Ceil)
	n["java/lang/Math.atan2(DD)D"] = func(_ NativeHost, _ *Object, args []Value) NativeResult {
		return NativeResult{Value: math.Atan2(args[0].(float64), args[1].(float64))}
	}
	n["java/lang/Math.pow(DD)D"] = func(_ NativeHost, _ *Object, args []Value) NativeResult {
		return NativeResult{Value: math.Pow(args[0].(float64), args[1].(float64))}
	}

	// --- boxed numerics: bit patterns and decimal text ---
	n["java/lang/Double.doubleToLongBits(D)J"] = func(_ NativeHost, _ *Object, args []Value) NativeResult {
		return NativeResult{Value: int64(math.Float64bits(args[0].(float64)))}
	}
	n["java/lang/Double.longBitsToDouble(J)D"] = func(_ NativeHost, _ *Object, args []Value) NativeResult {
		return NativeResult{Value: math.Float64frombits(uint64(args[0].(int64)))}
	}
	n["java/lang/Float.floatToIntBits(F)I"] = func(_ NativeHost, _ *Object, args []Value) NativeResult {
		return NativeResult{Value: int32(math.Float32bits(args[0].(float32)))}
	}
	n["java/lang/Float.intBitsToFloat(I)F"] = func(_ NativeHost, _ *Object, args []Value) NativeResult {
		return NativeResult{Value: math.Float32frombits(uint32(args[0].(int32)))}
	}
	n["java/lang/Double.toStringNative(D)Ljava/lang/String;"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		return NativeResult{Value: h.NewString(javaDoubleString(args[0].(float64)))}
	}
	n["java/lang/Double.parseDouble(Ljava/lang/String;)D"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		s := strings.TrimSpace(h.GoString(args[0].(*Object)))
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return NativeResult{Thrown: h.MakeThrowable("java/lang/NumberFormatException", s)}
		}
		return NativeResult{Value: v}
	}

	// --- java/io console streams ---
	n["java/io/PrintStream.writeNative(Ljava/lang/String;)V"] = func(h NativeHost, recv *Object, args []Value) NativeResult {
		s := h.GoString(args[0].(*Object))
		fd := slotByName(recv, "fd")
		w := h.Stdout()
		if fd.N == 1 {
			w = h.Stderr()
		}
		// A process-layer pipe end acknowledges writes asynchronously
		// (backpressure): block the guest thread until the sink accepts
		// the bytes. Writing to a pipe with no reader raises
		// java/io/IOException, the JVM face of EPIPE.
		if aw, ok := w.(AsyncWriter); ok {
			h.BlockAndCall(func(complete func(Value, *Object)) {
				aw.WriteAsync([]byte(s), func(_ int, err error) {
					if err != nil {
						complete(nil, ioException(h, err))
						return
					}
					complete(nil, nil)
				})
			})
			return NativeResult{Async: true}
		}
		fmt.Fprint(w, s)
		return NativeResult{}
	}
	n["java/io/ConsoleIn.readNative(I)[B"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		count := int(args[0].(int32))
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.StdinRead(count, func(data []byte, err error) {
				if err != nil && len(data) == 0 {
					complete(nil, nil) // EOF → null
					return
				}
				complete(byteArray(h, data), nil)
			})
		})
		return NativeResult{Async: true}
	}

	// --- doppio/io/FileSystem: the Doppio file system bridge (§6.3) ---
	registerFSNatives(n)

	// --- sun/misc/Unsafe over the unmanaged heap (§6.5) ---
	registerUnsafeNatives(n)

	// --- java/net sockets over Doppio sockets (§5.3) ---
	registerSocketNatives(n)

	// --- §6.8 JavaScript interop ---
	n["doppio/lang/JS.eval(Ljava/lang/String;)Ljava/lang/String;"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		return NativeResult{Value: h.NewString(h.EvalJS(h.GoString(args[0].(*Object))))}
	}

	return n
}

// javaDoubleString renders a double the way Java's Double.toString
// does for the common cases.
func javaDoubleString(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "Infinity"
	case math.IsInf(v, -1):
		return "-Infinity"
	case v == math.Trunc(v) && math.Abs(v) < 1e7:
		return strconv.FormatFloat(v, 'f', 1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// byteArray copies data into a fresh JVM byte[]. It must copy: data
// may be a file's shared read-only contents (HostFS.ReadFile), and the
// guest is free to write into the array it gets.
func byteArray(h NativeHost, data []byte) *Object {
	arrC := h.LookupClass("[B")
	arr := NewArray(arrC, "B", len(data))
	copy(int8Bytes(arr.Arr.([]int8)), data)
	return arr
}

// goBytes copies a JVM byte[] into fresh Go bytes.
func goBytes(o *Object) []byte {
	src, _ := o.Arr.([]int8)
	out := make([]byte, len(src))
	copy(out, int8Bytes(src))
	return out
}

// int8Bytes views a byte[]'s []int8 storage as []byte (same size and
// layout), so copies in and out of guest arrays are one bulk copy.
func int8Bytes(s []int8) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

func stringArray(h NativeHost, ss []string) *Object {
	arrC := h.LookupClass("[Ljava/lang/String;")
	arr := NewArray(arrC, "Ljava/lang/String;", len(ss))
	dst := arr.Arr.([]*Object)
	for i, s := range ss {
		dst[i] = h.Intern(s)
	}
	return arr
}

func ioException(h NativeHost, err error) *Object {
	return h.MakeThrowable("java/io/IOException", err.Error())
}

func registerFSNatives(n map[string]NativeFunc) {
	const fs = "doppio/io/FileSystem."
	n[fs+"readFile(Ljava/lang/String;)[B"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		path := h.GoString(args[0].(*Object))
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.FS().ReadFile(path, func(data []byte, err error) {
				if err != nil {
					complete(nil, h.MakeThrowable("java/io/FileNotFoundException", path))
					return
				}
				complete(byteArray(h, data), nil)
			})
		})
		return NativeResult{Async: true}
	}
	n[fs+"writeFile(Ljava/lang/String;[B)V"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		path := h.GoString(args[0].(*Object))
		data := goBytes(args[1].(*Object))
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.FS().WriteFile(path, data, func(err error) {
				if err != nil {
					complete(nil, ioException(h, err))
					return
				}
				complete(nil, nil)
			})
		})
		return NativeResult{Async: true}
	}
	n[fs+"appendFile(Ljava/lang/String;[B)V"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		path := h.GoString(args[0].(*Object))
		data := goBytes(args[1].(*Object))
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.FS().Append(path, data, func(err error) {
				if err != nil {
					complete(nil, ioException(h, err))
					return
				}
				complete(nil, nil)
			})
		})
		return NativeResult{Async: true}
	}
	n[fs+"exists(Ljava/lang/String;)Z"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		path := h.GoString(args[0].(*Object))
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.FS().Stat(path, func(_ int64, _, exists bool) {
				complete(boolVal(exists), nil)
			})
		})
		return NativeResult{Async: true}
	}
	n[fs+"isDirectory(Ljava/lang/String;)Z"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		path := h.GoString(args[0].(*Object))
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.FS().Stat(path, func(_ int64, isDir, _ bool) {
				complete(boolVal(isDir), nil)
			})
		})
		return NativeResult{Async: true}
	}
	n[fs+"length(Ljava/lang/String;)J"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		path := h.GoString(args[0].(*Object))
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.FS().Stat(path, func(size int64, _, _ bool) {
				complete(size, nil)
			})
		})
		return NativeResult{Async: true}
	}
	n[fs+"list(Ljava/lang/String;)[Ljava/lang/String;"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		path := h.GoString(args[0].(*Object))
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.FS().List(path, func(names []string, err error) {
				if err != nil {
					complete(nil, ioException(h, err))
					return
				}
				complete(stringArray(h, names), nil)
			})
		})
		return NativeResult{Async: true}
	}
	n[fs+"delete(Ljava/lang/String;)V"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		path := h.GoString(args[0].(*Object))
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.FS().Delete(path, func(err error) {
				if err != nil {
					complete(nil, ioException(h, err))
					return
				}
				complete(nil, nil)
			})
		})
		return NativeResult{Async: true}
	}
	n[fs+"mkdir(Ljava/lang/String;)V"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		path := h.GoString(args[0].(*Object))
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.FS().Mkdir(path, func(err error) {
				if err != nil {
					complete(nil, ioException(h, err))
					return
				}
				complete(nil, nil)
			})
		})
		return NativeResult{Async: true}
	}
	n[fs+"rename(Ljava/lang/String;Ljava/lang/String;)V"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		oldP := h.GoString(args[0].(*Object))
		newP := h.GoString(args[1].(*Object))
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.FS().Rename(oldP, newP, func(err error) {
				if err != nil {
					complete(nil, ioException(h, err))
					return
				}
				complete(nil, nil)
			})
		})
		return NativeResult{Async: true}
	}
}

func boolVal(b bool) Value {
	if b {
		return int32(1)
	}
	return int32(0)
}

func registerUnsafeNatives(n map[string]NativeFunc) {
	const u = "sun/misc/Unsafe."
	n[u+"allocateMemory(J)J"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		addr, err := h.Heap().Malloc(int(args[0].(int64)))
		if err != nil {
			return NativeResult{Thrown: h.MakeThrowable("java/lang/OutOfMemoryError", err.Error())}
		}
		return NativeResult{Value: int64(addr)}
	}
	n[u+"freeMemory(J)V"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		if err := h.Heap().Free(int(args[0].(int64))); err != nil {
			return NativeResult{Thrown: h.MakeThrowable("java/lang/IllegalArgumentException", err.Error())}
		}
		return NativeResult{}
	}
	// access binds one heap load or store at the address in args[0]. An
	// address outside the heap throws java/lang/InternalError, as
	// HotSpot does for a faulting unsafe access.
	access := func(op func(hp *umheap.Heap, addr int, args []Value) Value) NativeFunc {
		return func(h NativeHost, _ *Object, args []Value) (res NativeResult) {
			defer func() {
				if r := recover(); r != nil {
					fault, ok := r.(*umheap.AccessError)
					if !ok {
						panic(r)
					}
					res = NativeResult{Thrown: h.MakeThrowable("java/lang/InternalError",
						"a fault occurred in an unsafe memory access operation: "+fault.Error())}
				}
			}()
			return NativeResult{Value: op(h.Heap(), int(args[0].(int64)), args)}
		}
	}
	n[u+"getByte(J)B"] = access(func(hp *umheap.Heap, a int, _ []Value) Value { return int32(hp.LoadI8(a)) })
	n[u+"putByte(JB)V"] = access(func(hp *umheap.Heap, a int, args []Value) Value {
		hp.StoreI8(a, int8(args[1].(int32)))
		return nil
	})
	n[u+"getShort(J)S"] = access(func(hp *umheap.Heap, a int, _ []Value) Value { return int32(hp.LoadI16(a)) })
	n[u+"putShort(JS)V"] = access(func(hp *umheap.Heap, a int, args []Value) Value {
		hp.StoreI16(a, int16(args[1].(int32)))
		return nil
	})
	n[u+"getInt(J)I"] = access(func(hp *umheap.Heap, a int, _ []Value) Value { return hp.LoadI32(a) })
	n[u+"putInt(JI)V"] = access(func(hp *umheap.Heap, a int, args []Value) Value {
		hp.StoreI32(a, args[1].(int32))
		return nil
	})
	n[u+"getLong(J)J"] = access(func(hp *umheap.Heap, a int, _ []Value) Value { return hp.LoadI64(a).Int64() })
	n[u+"putLong(JJ)V"] = access(func(hp *umheap.Heap, a int, args []Value) Value {
		hp.StoreI64(a, jlong.FromInt64(args[1].(int64)))
		return nil
	})
	n[u+"getFloat(J)F"] = access(func(hp *umheap.Heap, a int, _ []Value) Value { return hp.LoadF32(a) })
	n[u+"putFloat(JF)V"] = access(func(hp *umheap.Heap, a int, args []Value) Value {
		hp.StoreF32(a, args[1].(float32))
		return nil
	})
	n[u+"getDouble(J)D"] = access(func(hp *umheap.Heap, a int, _ []Value) Value { return hp.LoadF64(a) })
	n[u+"putDouble(JD)V"] = access(func(hp *umheap.Heap, a int, args []Value) Value {
		hp.StoreF64(a, args[1].(float64))
		return nil
	})
}

func registerSocketNatives(n map[string]NativeFunc) {
	const s = "java/net/Socket."
	n[s+"connect0(Ljava/lang/String;I)I"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		host := h.GoString(args[0].(*Object))
		port := args[1].(int32)
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.SocketConnect(host, port, func(handle int32, err error) {
				if err != nil {
					complete(nil, ioException(h, err))
					return
				}
				complete(handle, nil)
			})
		})
		return NativeResult{Async: true}
	}
	n[s+"read0(II)[B"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		handle := args[0].(int32)
		count := args[1].(int32)
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.SocketRead(handle, count, func(data []byte, err error) {
				if err != nil {
					complete(nil, ioException(h, err))
					return
				}
				if data == nil {
					complete(nil, nil) // EOF
					return
				}
				complete(byteArray(h, data), nil)
			})
		})
		return NativeResult{Async: true}
	}
	n[s+"write0(I[B)V"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		handle := args[0].(int32)
		data := goBytes(args[1].(*Object))
		h.BlockAndCall(func(complete func(Value, *Object)) {
			h.SocketWrite(handle, data, func(err error) {
				if err != nil {
					complete(nil, ioException(h, err))
					return
				}
				complete(nil, nil)
			})
		})
		return NativeResult{Async: true}
	}
	n[s+"close0(I)V"] = func(h NativeHost, _ *Object, args []Value) NativeResult {
		h.SocketClose(args[0].(int32))
		return NativeResult{}
	}
}

// nativeArraycopy implements System.arraycopy for every element kind.
func nativeArraycopy(h NativeHost, _ *Object, args []Value) NativeResult {
	src, _ := args[0].(*Object)
	srcPos := int(args[1].(int32))
	dst, _ := args[2].(*Object)
	dstPos := int(args[3].(int32))
	length := int(args[4].(int32))
	if src == nil || dst == nil {
		return NativeResult{Thrown: h.MakeThrowable("java/lang/NullPointerException", "arraycopy")}
	}
	if srcPos < 0 || dstPos < 0 || length < 0 ||
		srcPos+length > src.ArrayLen() || dstPos+length > dst.ArrayLen() {
		return NativeResult{Thrown: h.MakeThrowable("java/lang/ArrayIndexOutOfBoundsException", "arraycopy")}
	}
	switch s := src.Arr.(type) {
	case []int8:
		d, ok := dst.Arr.([]int8)
		if !ok {
			return arrayStoreMismatch(h)
		}
		copy(d[dstPos:dstPos+length], s[srcPos:srcPos+length])
	case []uint16:
		d, ok := dst.Arr.([]uint16)
		if !ok {
			return arrayStoreMismatch(h)
		}
		copy(d[dstPos:dstPos+length], s[srcPos:srcPos+length])
	case []int16:
		d, ok := dst.Arr.([]int16)
		if !ok {
			return arrayStoreMismatch(h)
		}
		copy(d[dstPos:dstPos+length], s[srcPos:srcPos+length])
	case []int32:
		d, ok := dst.Arr.([]int32)
		if !ok {
			return arrayStoreMismatch(h)
		}
		copy(d[dstPos:dstPos+length], s[srcPos:srcPos+length])
	case []int64:
		d, ok := dst.Arr.([]int64)
		if !ok {
			return arrayStoreMismatch(h)
		}
		copy(d[dstPos:dstPos+length], s[srcPos:srcPos+length])
	case []float32:
		d, ok := dst.Arr.([]float32)
		if !ok {
			return arrayStoreMismatch(h)
		}
		copy(d[dstPos:dstPos+length], s[srcPos:srcPos+length])
	case []float64:
		d, ok := dst.Arr.([]float64)
		if !ok {
			return arrayStoreMismatch(h)
		}
		copy(d[dstPos:dstPos+length], s[srcPos:srcPos+length])
	case []*Object:
		d, ok := dst.Arr.([]*Object)
		if !ok {
			return arrayStoreMismatch(h)
		}
		copy(d[dstPos:dstPos+length], s[srcPos:srcPos+length])
	default:
		return arrayStoreMismatch(h)
	}
	return NativeResult{}
}

func arrayStoreMismatch(h NativeHost) NativeResult {
	return NativeResult{Thrown: h.MakeThrowable("java/lang/ArrayStoreException", "incompatible array types")}
}
