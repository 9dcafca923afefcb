package minic

import (
	"fmt"
	"io"
	"time"

	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/core"
	"doppio/internal/profile"
	"doppio/internal/umheap"
	"doppio/internal/vfs"
)

// VM executes a compiled MiniC program inside the Doppio execution
// environment. All program memory — the data segment, the call-frame
// stack, and malloc'd blocks — lives in the Doppio unmanaged heap
// (§5.2), mirroring Emscripten's memory model; the VM runs as a
// Doppio thread, so long computations segment automatically (§4.1)
// and file/console syscalls block via suspend-and-resume (§4.2).
type VM struct {
	prog  *Program
	heap  *umheap.Heap
	win   *browser.Window
	rt    *core.Runtime
	rtCfg core.Config // kept so forked clones inherit the timeslice
	fs    *vfs.FS

	stdout io.Writer
	stdin  func(max int, cb func(line string, eof bool))
	args   []string
	os     OS
	thread *core.Thread

	dataBase  int
	stackBase int
	stackTop  int // byte size of the frame stack region
	sp        int // next free byte in the frame region

	frames []cFrame
	ops    []int32 // operand stack

	// Steps counts executed IR instructions.
	Steps int64

	// prof is the guest profiler (nil when off).
	prof *profile.Profiler

	exitCode int32
	runErr   error
	done     bool

	depValue int32
	depReady bool
}

type cFrame struct {
	fn    *Func
	pc    int
	fp    int // heap address of the frame's local slots
	opsAt int // operand stack height at entry
}

// VMOptions configure a MiniC VM.
type VMOptions struct {
	Stdout io.Writer
	// Stdin supplies a line of console input asynchronously (the
	// blocking-getline path, §3.2); nil means immediate EOF.
	Stdin func(max int, cb func(line string, eof bool))
	// FS is the Doppio file system for readfile/writefile; nil makes
	// a fresh in-memory one.
	FS        *vfs.FS
	HeapSize  int
	StackSize int
	// Args are the program's command-line arguments (argc/getarg).
	Args []string
	// OS is the process-syscall back end (fork/waitpid/kill/getpid);
	// nil leaves those syscalls returning -1.
	OS OS
	// Timeslice passes through to the Doppio execution environment.
	Timeslice time.Duration
	// Profiler, when non-nil, samples guest CPU time, allocation
	// (the umheap malloc path), and blocked time into the given
	// profiler. Stacks are keyed by MiniC function name.
	Profiler *profile.Profiler
}

// NewVM creates a VM for prog inside the browser window.
func NewVM(win *browser.Window, prog *Program, opts VMOptions) (*VM, error) {
	if opts.Stdout == nil {
		opts.Stdout = io.Discard
	}
	if opts.HeapSize == 0 {
		opts.HeapSize = 4 << 20
	}
	if opts.StackSize == 0 {
		opts.StackSize = 256 << 10
	}
	bufs := &buffer.Factory{
		Typed:            win.Profile.HasTypedArrays,
		ValidatesStrings: win.Profile.ValidatesStrings,
		OnTypedAlloc:     win.NoteTypedArrayAlloc,
	}
	if opts.FS == nil {
		opts.FS = vfs.New(win.Loop, bufs, vfs.NewInMemory())
	}
	heap := umheap.New(opts.HeapSize, win.Profile.HasTypedArrays, win.NoteTypedArrayAlloc)
	rtCfg := core.Config{
		Timeslice: opts.Timeslice,
		Telemetry: win.Telemetry,
	}
	vm := &VM{
		prog:   prog,
		heap:   heap,
		win:    win,
		rt:     core.NewRuntime(win.Loop, rtCfg),
		rtCfg:  rtCfg,
		fs:     opts.FS,
		stdout: opts.Stdout,
		stdin:  opts.Stdin,
		args:   opts.Args,
		os:     opts.OS,
	}
	dataBase, err := heap.Malloc(len(prog.Data) + 4)
	if err != nil {
		return nil, err
	}
	heap.WriteBytes(dataBase, prog.Data)
	vm.dataBase = dataBase
	stackBase, err := heap.Malloc(opts.StackSize)
	if err != nil {
		return nil, err
	}
	vm.stackBase = stackBase
	vm.stackTop = opts.StackSize
	if opts.Profiler != nil {
		vm.installProfiler(opts.Profiler)
	}
	return vm, nil
}

// profStack walks the VM's frames root-first, keyed by function name
// (MiniC profiles are function-granular).
func (vm *VM) profStack() []string {
	n := len(vm.frames)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range vm.frames {
		out[i] = vm.frames[i].fn.Name
	}
	return out
}

// installProfiler attaches p: CPU samples ride the runtime's suspend-
// clock probe and slice boundaries, contention folds the labelled
// Completion waits, and the heap observer covers every malloc (the
// SysMalloc syscall and the VM's own arena allocations alike).
func (vm *VM) installProfiler(p *profile.Profiler) {
	vm.prof = p
	vm.rt.SetSampleHook(func(_ *core.Thread, dt time.Duration) {
		if st := vm.profStack(); st != nil {
			p.SampleCPU(st, dt)
		}
	}, p.CPUInterval())
	vm.rt.SetBlockHook(func(_ *core.Thread, reason string, dt time.Duration) {
		p.SampleBlock(append(vm.profStack(), reason), dt)
	})
	vm.heap.SetAllocHook(func(n int) {
		if !p.AllocReady() {
			return
		}
		st := vm.profStack()
		if st == nil {
			st = []string{"(startup)"}
		}
		p.SampleAlloc(append(st, "(umheap)"), int64(n))
	})
}

// Profiler returns the VM's guest profiler (nil when off).
func (vm *VM) Profiler() *profile.Profiler { return vm.prof }

// FS returns the file system the program sees.
func (vm *VM) FS() *vfs.FS { return vm.fs }

// ExitCode returns main's return value.
func (vm *VM) ExitCode() int32 { return vm.exitCode }

// Start begins execution of main; done fires on the event loop when
// the program exits. The caller drives the window's loop.
func (vm *VM) Start(done func(exit int32, err error)) {
	mainIdx := vm.prog.FuncIdx["main"]
	if err := vm.pushFrame(vm.prog.Funcs[mainIdx], nil); err != nil {
		done(0, err)
		return
	}
	vm.thread = vm.rt.Spawn("minic-main", core.RunnableFunc(vm.run))
	vm.rt.OnIdle(func() {
		done(vm.exitCode, vm.runErr)
	})
	vm.rt.Start()
}

// Run executes the program to completion, driving the event loop.
func (vm *VM) Run() (int32, error) {
	var exit int32
	var err error
	finished := false
	vm.Start(func(e int32, rerr error) {
		exit, err, finished = e, rerr, true
	})
	if lerr := vm.win.Loop.Run(); lerr != nil {
		return 0, lerr
	}
	if !finished {
		return 0, fmt.Errorf("minic: event loop drained before main returned")
	}
	return exit, err
}

func (vm *VM) pushFrame(fn *Func, args []int32) error {
	need := fn.NSlots * 4
	if vm.sp+need > vm.stackTop {
		return fmt.Errorf("minic: stack overflow calling %s", fn.Name)
	}
	fp := vm.stackBase + vm.sp
	vm.sp += need
	for i, a := range args {
		vm.heap.StoreI32(fp+4*i, a)
	}
	vm.frames = append(vm.frames, cFrame{fn: fn, fp: fp, opsAt: len(vm.ops)})
	return nil
}

func (vm *VM) fail(err error) {
	vm.runErr = err
	vm.done = true
	vm.frames = nil
}

func (vm *VM) push(v int32) { vm.ops = append(vm.ops, v) }

func (vm *VM) pop() int32 {
	v := vm.ops[len(vm.ops)-1]
	vm.ops = vm.ops[:len(vm.ops)-1]
	return v
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// run is the Doppio Runnable: it interprets IR until done, yield, or
// block, checking for suspension at calls, returns and loop back
// edges. The top frame's code, pc and frame pointer, the operand stack
// and the step count live in locals. They are written back to the VM
// where code outside the loop may look at them: calls, returns,
// syscalls, yields and the faults the loop detects. A memory fault
// unwinds to catchFault and leaves Steps at its last write-back.
func (vm *VM) run(ct *core.Thread) (res core.RunResult) {
	defer vm.catchFault(&res)
	if vm.depReady {
		vm.depReady = false
		vm.push(vm.depValue)
	}
	if vm.done || len(vm.frames) == 0 {
		return core.Done
	}
	heap, funcs := vm.heap, vm.prog.Funcs
	f := &vm.frames[len(vm.frames)-1]
	code, pc, fp := f.fn.Code, f.pc, f.fp
	ops, steps := vm.ops, vm.Steps
	var err error
loop:
	for {
		if pc >= len(code) {
			err = fmt.Errorf("minic: fell off the end of %s", f.fn.Name)
			break
		}
		ins := code[pc]
		pc++
		steps++
		n := len(ops)

		switch ins.Op {
		case IPush:
			ops = append(ops, ins.A)
		case IAddrG:
			ops = append(ops, int32(vm.dataBase)+ins.A)
		case IAddrL:
			ops = append(ops, int32(fp)+4*ins.A)
		case ILoadW:
			ops[n-1] = heap.LoadI32(int(ops[n-1]))
		case IStoreW:
			heap.StoreI32(int(ops[n-2]), ops[n-1])
			ops[n-2], ops = ops[n-1], ops[:n-1]
		case ILoadB:
			ops[n-1] = int32(heap.LoadU8(int(ops[n-1])))
		case IStoreB:
			heap.StoreU8(int(ops[n-2]), uint8(ops[n-1]))
			ops[n-2], ops = ops[n-1], ops[:n-1]
		case ILoadL:
			ops = append(ops, heap.LoadI32(fp+4*int(ins.A)))
		case IStoreL:
			heap.StoreI32(fp+4*int(ins.A), ops[n-1])
		case IPop:
			ops = ops[:n-1]
		case IDup:
			ops = append(ops, ops[n-1])
		case IAdd:
			ops[n-2], ops = ops[n-2]+ops[n-1], ops[:n-1]
		case ISub:
			ops[n-2], ops = ops[n-2]-ops[n-1], ops[:n-1]
		case IMul:
			ops[n-2], ops = ops[n-2]*ops[n-1], ops[:n-1]
		case IDiv:
			if ops[n-1] == 0 {
				err = fmt.Errorf("minic: division by zero in %s", f.fn.Name)
				break loop
			}
			ops[n-2], ops = ops[n-2]/ops[n-1], ops[:n-1]
		case IRem:
			if ops[n-1] == 0 {
				err = fmt.Errorf("minic: modulo by zero in %s", f.fn.Name)
				break loop
			}
			ops[n-2], ops = ops[n-2]%ops[n-1], ops[:n-1]
		case IAnd:
			ops[n-2], ops = ops[n-2]&ops[n-1], ops[:n-1]
		case IOr:
			ops[n-2], ops = ops[n-2]|ops[n-1], ops[:n-1]
		case IXor:
			ops[n-2], ops = ops[n-2]^ops[n-1], ops[:n-1]
		case IShl:
			ops[n-2], ops = ops[n-2]<<(uint(ops[n-1])&31), ops[:n-1]
		case IShr:
			ops[n-2], ops = ops[n-2]>>(uint(ops[n-1])&31), ops[:n-1]
		case INeg:
			ops[n-1] = -ops[n-1]
		case IBNot:
			ops[n-1] = ^ops[n-1]
		case ILNot:
			ops[n-1] = b2i(ops[n-1] == 0)
		case IEq:
			ops[n-2], ops = b2i(ops[n-2] == ops[n-1]), ops[:n-1]
		case INe:
			ops[n-2], ops = b2i(ops[n-2] != ops[n-1]), ops[:n-1]
		case ILt:
			ops[n-2], ops = b2i(ops[n-2] < ops[n-1]), ops[:n-1]
		case ILe:
			ops[n-2], ops = b2i(ops[n-2] <= ops[n-1]), ops[:n-1]
		case IGt:
			ops[n-2], ops = b2i(ops[n-2] > ops[n-1]), ops[:n-1]
		case IGe:
			ops[n-2], ops = b2i(ops[n-2] >= ops[n-1]), ops[:n-1]
		case IJz, IJnz:
			v := ops[n-1]
			if ops = ops[:n-1]; (v != 0) != (ins.Op == IJnz) {
				continue
			}
			fallthrough
		case IJmp:
			backward := int(ins.A) < pc
			pc = int(ins.A)
			// Loop back edges also check for suspension — the §6.1
			// refinement ("it would be possible to instrument loop
			// back edges to perform the same checks"), which
			// Emscripten-style code needs since hot loops may make no
			// calls at all.
			if backward && ct.CheckSuspend() {
				res = core.Yield
				break loop
			}
		case ICall:
			// The arguments move from the operand stack straight into
			// the callee's slots.
			target := funcs[ins.A]
			base := n - target.NArgs
			f.pc, vm.ops, vm.Steps = pc, ops[:base], steps
			if err = vm.pushFrame(target, ops[base:]); err != nil {
				break loop
			}
			f = &vm.frames[len(vm.frames)-1]
			code, pc, fp, ops = target.Code, 0, f.fp, ops[:base]
			// §4.1: check for suspension at call boundaries.
			if ct.CheckSuspend() {
				res = core.Yield
				break loop
			}
		case IRet:
			ret := ops[n-1]
			vm.sp = fp - vm.stackBase
			ops = ops[:f.opsAt]
			vm.frames = vm.frames[:len(vm.frames)-1]
			if len(vm.frames) == 0 {
				vm.exitCode, vm.done = ret, true
				res = core.Done
				break loop
			}
			ops = append(ops, ret)
			f = &vm.frames[len(vm.frames)-1]
			code, pc, fp = f.fn.Code, f.pc, f.fp
			vm.Steps = steps
			if ct.CheckSuspend() {
				res = core.Yield
				break loop
			}
		case ISys:
			f.pc, vm.ops, vm.Steps = pc, ops, steps
			if blocked := vm.syscall(ct, ins.A); blocked {
				return core.Block
			}
			if vm.done {
				return core.Done
			}
			ops = vm.ops
		default:
			err = fmt.Errorf("minic: illegal opcode %d", ins.Op)
			break loop
		}
	}
	f.pc, vm.ops, vm.Steps = pc, ops, steps
	if err != nil {
		vm.fail(err)
		return core.Done
	}
	return res
}

// catchFault is run's one recover: an opcode or a syscall that touched
// memory outside the heap raised a *umheap.AccessError, which ends the
// program with a segmentation fault, as a wild pointer ends a process
// and not its host. Any other panic is a host bug and keeps unwinding.
func (vm *VM) catchFault(res *core.RunResult) {
	r := recover()
	if r == nil {
		return
	}
	fault, ok := r.(*umheap.AccessError)
	if !ok {
		panic(r)
	}
	vm.fail(fmt.Errorf("minic: segmentation fault in %s: %v", vm.frames[len(vm.frames)-1].fn.Name, fault))
	*res = core.Done
}

// cString reads a NUL-terminated string at addr.
func (vm *VM) cString(addr int32) string {
	return vm.heap.CString(int(addr))
}

// syscall executes syscall n; it returns true when the thread blocked
// on an asynchronous Doppio service.
func (vm *VM) syscall(ct *core.Thread, n int32) bool {
	switch n {
	case SysPutStr:
		return vm.writeOut(ct, vm.cString(vm.pop()))
	case SysPutInt:
		return vm.writeOut(ct, fmt.Sprint(vm.pop()))
	case SysPutChar:
		return vm.writeOut(ct, string(rune(vm.pop()&0xFF)))
	case SysMalloc:
		nBytes := vm.pop()
		addr, err := vm.heap.Malloc(int(nBytes))
		if err != nil {
			vm.push(0)
			return false
		}
		vm.push(int32(addr))
	case SysFree:
		vm.heap.Free(int(vm.pop()))
		vm.push(0)
	case SysStrLen:
		vm.push(int32(vm.heap.StrLen(int(vm.pop()))))
	case SysStrCmp:
		b := vm.cString(vm.pop())
		a := vm.cString(vm.pop())
		switch {
		case a < b:
			vm.push(-1)
		case a > b:
			vm.push(1)
		default:
			vm.push(0)
		}
	case SysStrCpy:
		src := vm.cString(vm.pop())
		dst := vm.pop()
		vm.heap.WriteCString(int(dst), src)
		vm.push(dst)
	case SysAtoi:
		s := vm.cString(vm.pop())
		var v int32
		neg := false
		i := 0
		if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
			neg = s[0] == '-'
			i = 1
		}
		for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
			v = v*10 + int32(s[i]-'0')
		}
		if neg {
			v = -v
		}
		vm.push(v)

	case SysSetPrio:
		// setpriority(p): move the calling thread to run-queue level p
		// (clamped); returns the effective priority.
		p := vm.pop()
		ct.SetPriority(int(p))
		vm.push(int32(ct.Priority()))

	case SysExists:
		path := vm.cString(vm.pop())
		return vm.blockOnFS(ct, "minic.exists("+path+")", func(done func(int32)) {
			vm.fs.Exists(path, func(ok bool) { done(b2i(ok)) })
		})
	case SysReadFile:
		// The §7.2 payoff: synchronous dynamic file loading — the
		// program blocks while the Doppio FS fetches the file. The
		// VFS's slice is read-only; WriteBytes into the heap is the
		// read's one copy.
		path := vm.cString(vm.pop())
		return vm.blockOnFS(ct, "minic.readfile("+path+")", func(done func(int32)) {
			vm.fs.ReadFileBytes(path, func(data []byte, err error) {
				if err != nil {
					done(0)
					return
				}
				addr, merr := vm.heap.Malloc(len(data) + 1)
				if merr != nil {
					done(0)
					return
				}
				vm.heap.WriteBytes(addr, data)
				vm.heap.StoreU8(addr+len(data), 0)
				done(int32(addr))
			})
		})
	case SysWrite:
		length := vm.pop()
		dataAddr := vm.pop()
		path := vm.cString(vm.pop())
		data := vm.heap.ReadBytes(int(dataAddr), int(length))
		return vm.blockOnFS(ct, "minic.writefile("+path+")", func(done func(int32)) {
			vm.fs.WriteFile(path, data, func(err error) {
				if err != nil {
					done(-1)
					return
				}
				done(0)
			})
		})
	case SysGetLine:
		max := vm.pop()
		buf := vm.pop()
		if vm.stdin == nil || max < 1 {
			vm.push(-1)
			return false
		}
		// The line arrives in a later macrotask, outside run's recover,
		// so the buffer is checked now.
		vm.heap.Check(int(buf), int(max))
		return vm.blockOn(ct, "minic.getline", func(done func(int32)) {
			vm.stdin(int(max), func(line string, eof bool) {
				if eof {
					done(-1)
					return
				}
				if len(line) > int(max)-1 {
					line = line[:int(max)-1]
				}
				vm.heap.WriteCString(int(buf), line)
				done(int32(len(line)))
			})
		})

	case SysArgc:
		vm.push(int32(len(vm.args)))
	case SysGetArg:
		max := vm.pop()
		buf := vm.pop()
		i := vm.pop()
		if i < 0 || int(i) >= len(vm.args) || max < 1 {
			vm.push(-1)
			return false
		}
		arg := vm.args[i]
		if len(arg) > int(max)-1 {
			arg = arg[:int(max)-1]
		}
		vm.heap.WriteCString(int(buf), arg)
		vm.push(int32(len(arg)))
	case SysGetPid:
		if vm.os == nil {
			vm.push(-1)
			return false
		}
		vm.push(vm.os.Getpid())
	case SysFork:
		if vm.os == nil {
			vm.push(-1)
			return false
		}
		// pc is already past the ISys, so the clone resumes right
		// after fork. The two sides diverge only in the value pushed
		// onto each operand stack: the clone gets the child's 0 now,
		// the original gets the pid the kernel assigns.
		child := vm.Clone()
		child.push(0)
		vm.push(vm.os.Fork(child))
	case SysWaitPid:
		if vm.os == nil {
			vm.push(-1)
			return false
		}
		pid := vm.pop()
		return vm.blockOn(ct, fmt.Sprintf("minic.waitpid(%d)", pid), func(done func(int32)) {
			vm.os.Waitpid(pid, func(code int32, ok bool) {
				if !ok {
					done(-1)
					return
				}
				done(code)
			})
		})
	case SysKill:
		sig := vm.pop()
		pid := vm.pop()
		if vm.os == nil {
			vm.push(-1)
			return false
		}
		vm.push(vm.os.Kill(pid, sig))
	case SysExit:
		vm.exitCode = vm.pop()
		vm.done = true
		vm.frames = nil

	default:
		vm.fail(fmt.Errorf("minic: unknown syscall %d", n))
	}
	return false
}

// writeOut delivers console output. Against a plain io.Writer it is
// synchronous as before; against an AsyncWriter (a pipe end) the
// thread blocks until the sink accepts the bytes — pipe backpressure
// reaching the guest — and a refused write (EPIPE after the reader
// closed) surfaces as -1. It returns true when the thread blocked.
func (vm *VM) writeOut(ct *core.Thread, s string) bool {
	aw, ok := vm.stdout.(AsyncWriter)
	if !ok {
		fmt.Fprint(vm.stdout, s)
		vm.push(0)
		return false
	}
	return vm.blockOn(ct, "minic.write(stdout)", func(done func(int32)) {
		aw.WriteAsync([]byte(s), func(n int, err error) {
			if err != nil {
				done(-1)
				return
			}
			done(0)
		})
	})
}

// blockOnFS is blockOn for a file syscall: launch runs inside
// vfs.FS.Blocking, so an answer the backend chain gives inline settles
// the syscall without suspending the thread.
func (vm *VM) blockOnFS(ct *core.Thread, label string, launch func(done func(int32))) bool {
	return vm.blockOn(ct, label, func(done func(int32)) {
		vm.fs.Blocking(func() { launch(done) })
	})
}

// blockOn bridges an async Doppio service into a blocking syscall
// (§4.2) through a core.Completion labelled with the operation (the
// label deadlock reports show). If the completion fires synchronously
// the thread never blocks; otherwise the result is deposited for the
// resume.
func (vm *VM) blockOn(ct *core.Thread, label string, launch func(done func(int32))) bool {
	c := core.NewCompletion(vm.win.Loop, label)
	launch(func(v int32) { c.Resolve(v, nil) })
	if !c.Await(ct) {
		vm.push(c.Value().(int32))
		return false
	}
	c.Then(func(v interface{}, _ error) {
		vm.depValue = v.(int32)
		vm.depReady = true
	})
	return true
}
