package minic

import (
	"io"

	"doppio/internal/core"
	"doppio/internal/umheap"
)

// This file is MiniC's binding to the process layer (internal/proc,
// the Browsix-style small Unix over the Doppio runtime). The VM knows
// nothing about pids or pipes; it exposes three extension points the
// kernel plugs into:
//
//   - OS: the syscall back end for fork/waitpid/kill/getpid. A VM
//     without an OS (plain minicc runs) answers those syscalls with
//     -1, the traditional "no such facility" errno stance.
//   - AsyncWriter: a console writer whose completion is delivered
//     asynchronously. When the VM's stdout implements it, the write
//     syscalls block the interpreter thread until the sink accepts
//     the bytes — which is how pipe backpressure reaches an
//     unmodified MiniC program.
//   - Clone/StartForked/Kill: the mechanics of fork-lite. Fork clones
//     the entire VM (heap image, call stack, operand stack) mid-
//     syscall; the child resumes at the instruction after fork with a
//     different return value on its operand stack.

// OS bridges the process syscalls to a kernel outside the package.
// All callbacks are delivered on the event loop.
type OS interface {
	// Getpid returns the calling process's pid.
	Getpid() int32
	// Fork adopts child — a clone of the calling VM whose operand
	// stack already carries the child-side return value 0 — as a new
	// process and starts it. It returns the child's pid, or -1 when
	// the kernel refuses (e.g. process table full).
	Fork(child *VM) int32
	// Waitpid reports a child's exit status: cb(code, true) once the
	// child terminates, cb(-1, false) when pid is not a live child of
	// the caller (ECHILD).
	Waitpid(pid int32, cb func(code int32, ok bool))
	// Kill sends sig to pid; returns 0 or -1 (ESRCH).
	Kill(pid, sig int32) int32
}

// AsyncWriter is implemented by console sinks that acknowledge writes
// asynchronously (the process layer's pipe ends). WriteAsync must
// call cb exactly once, on the event loop, when the bytes have been
// accepted (or refused with an error such as EPIPE).
type AsyncWriter interface {
	io.Writer
	WriteAsync(p []byte, cb func(n int, err error))
}

// SetOS installs the process-syscall back end (nil detaches).
func (vm *VM) SetOS(os OS) { vm.os = os }

// SetStdio rebinds the console streams — the kernel points a forked
// child at its own process's stdio adapters.
func (vm *VM) SetStdio(stdout io.Writer, stdin func(max int, cb func(line string, eof bool))) {
	if stdout == nil {
		stdout = io.Discard
	}
	vm.stdout = stdout
	vm.stdin = stdin
}

// Runtime exposes the VM's Doppio execution environment (thread
// dumps, /debug/proc blocked-on labels).
func (vm *VM) Runtime() *core.Runtime { return vm.rt }

// Heap exposes the VM's managed heap (budget enforcement, /debug/heap).
func (vm *VM) Heap() *umheap.Heap { return vm.heap }

// Clone duplicates the VM mid-execution: a byte-identical heap image
// (data segment, frame stack region, malloc'd blocks), a deep copy of
// the call-frame and operand stacks, and a fresh Doppio runtime on
// the same event loop. The program, file system, and console bindings
// are shared until the kernel rebinds them. The clone is inert until
// StartForked.
func (vm *VM) Clone() *VM {
	c := &VM{
		prog:      vm.prog,
		heap:      vm.heap.Clone(vm.win.NoteTypedArrayAlloc),
		win:       vm.win,
		rt:        core.NewRuntime(vm.win.Loop, vm.rtCfg),
		rtCfg:     vm.rtCfg,
		fs:        vm.fs,
		stdout:    vm.stdout,
		stdin:     vm.stdin,
		args:      vm.args,
		dataBase:  vm.dataBase,
		stackBase: vm.stackBase,
		stackTop:  vm.stackTop,
		sp:        vm.sp,
		frames:    append([]cFrame(nil), vm.frames...),
		ops:       append([]int32(nil), vm.ops...),
	}
	// The child's runtime samples from the same rtCfg hub; only the
	// cloned heap's allocation observer must be bound to the child.
	c.bindProfiler()
	return c
}

// StartForked begins executing an already-populated clone: no main
// frame is pushed — the cloned call stack resumes right after the
// fork syscall. done fires on the event loop when the program exits.
func (vm *VM) StartForked(done func(exit int32, err error)) {
	vm.thread = vm.rt.Spawn("minic-forked", core.RunnableFunc(vm.run))
	vm.thread.Data = vm
	vm.rt.OnIdle(func() { done(vm.exitCode, vm.runErr) })
	vm.rt.Start()
}

// Kill force-terminates the VM: the interpreter thread is removed
// from the scheduler even while parked on a Completion, and the
// program never runs again. Exit-code bookkeeping (128+signal) is the
// caller's job; the VM's own done callback may never fire after Kill,
// so the kernel resolves waiters itself.
func (vm *VM) Kill() {
	vm.done = true
	vm.frames = nil
	if vm.thread != nil {
		vm.thread.Kill()
	}
}
