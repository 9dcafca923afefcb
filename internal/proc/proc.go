// Package proc is the Browsix-style process layer over the Doppio
// runtime: a small Unix built from pieces the repo already has. A
// process is one guest VM — a Doppio JVM or a MiniC VM — with a pid,
// a parent, stdio streams, and its own vfs.FS front end over the
// kernel's shared root backend (the shared mount table). Pipes are
// in-kernel ring buffers bridging two VMs' Completions; signals map
// onto the existing kill machinery; Waitpid is a labelled
// core.Completion, so a shell blocked on a child shows up in
// /debug/threads as `proc.waitpid(N)` like any other blocked thread.
//
// Everything here is single-goroutine state on the kernel's event
// loop: spawn, wait, kill, and every pipe callback execute as loop
// turns, which is what lets a JVM guest and a MiniC guest sit on the
// two ends of one pipe without a lock in sight.
package proc

import (
	"fmt"
	"sort"

	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/core"
	"doppio/internal/vfs"
)

// State is a process's lifecycle state.
type State string

const (
	// StateRunning covers runnable and blocked alike — the process
	// exists and may make progress. Snapshot splits the two by asking
	// the VM's scheduler.
	StateRunning State = "running"
	// StateZombie is exited but not yet reaped by Waitpid.
	StateZombie State = "zombie"
)

// Process is one process-table entry.
type Process struct {
	PID  int32
	PPID int32
	// Name is the command name ("cat", "JGrep"); Args its argv tail.
	Name string
	Args []string

	// FS is the process's own front end (cwd, fd table) over the
	// kernel's shared root backend.
	FS *vfs.FS

	Stdin          ReadStream
	Stdout, Stderr WriteStream

	kernel *Kernel
	rt     *core.Runtime // guest scheduler, for blocked-on labels
	// kill force-terminates the guest VM; exit bookkeeping stays with
	// the kernel (the VM's own done callback may never fire after).
	kill func(code int32)

	exited   bool
	exitCode int32
	reaped   bool

	children map[int32]*Process
	// waiters are resolvers of proc.waitpid Completions parked on
	// this process, delivered (exitCode, nil) at exit.
	waiters []func(int32)

	// pendingReads/Writes are in-flight interruptible pipe operations;
	// signal delivery cancels them with EINTR before the default
	// action lands.
	pendingReads  map[*pipeRead]*Pipe
	pendingWrites map[*pipeWrite]*Pipe
}

// ExitCode is valid once the process has exited.
func (p *Process) ExitCode() int32 { return p.exitCode }

// Exited reports whether the process has terminated.
func (p *Process) Exited() bool { return p.exited }

// Runtime exposes the process's guest scheduler (nil until the exec
// layer attaches a VM) — budget accounting hosts read CPU time and
// queue depth from it.
func (p *Process) Runtime() *core.Runtime { return p.rt }

// Kernel owns the process table. Create one per event loop with
// NewKernel; all methods must be called on that loop.
type Kernel struct {
	win  *browser.Window
	bufs *buffer.Factory
	root vfs.Backend

	procs   map[int32]*Process
	nextPID int32
	pipeSeq int
}

// NewKernel creates a process kernel over the window's event loop and
// a shared VFS root backend (every process mounts the same tree). Every
// VM the kernel spawns reports into the window's telemetry hub, so a
// hub with a Profiler folds the whole process tree into one profile.
func NewKernel(win *browser.Window, root vfs.Backend) *Kernel {
	return &Kernel{
		win: win,
		bufs: &buffer.Factory{
			Typed:            win.Profile.HasTypedArrays,
			ValidatesStrings: win.Profile.ValidatesStrings,
			OnTypedAlloc:     win.NoteTypedArrayAlloc,
		},
		root:    root,
		procs:   make(map[int32]*Process),
		nextPID: 0,
	}
}

// Window exposes the kernel's browser window (its event loop).
func (k *Kernel) Window() *browser.Window { return k.win }

// Root exposes the shared mount-table backend (ops /debug/vfs).
func (k *Kernel) Root() vfs.Backend { return k.root }

// flight records a process-layer event in the window's flight
// recorder, when telemetry is enabled.
func (k *Kernel) flight(cat, event, label string, arg int64) {
	if k.win.Telemetry != nil {
		k.win.Telemetry.Flight.Record(cat, event, label, arg)
	}
}

// NewFS builds a fresh VFS front end over the shared root: same mount
// table, private cwd and fd bookkeeping. Every spawn gets one; the
// shell uses another for its own builtins (cd, redirections).
func (k *Kernel) NewFS() *vfs.FS {
	return vfs.New(k.win.Loop, k.bufs, k.root)
}

// register allocates a pid and inserts the process.
func (k *Kernel) register(p *Process, ppid int32) *Process {
	k.nextPID++
	p.PID = k.nextPID
	p.PPID = ppid
	p.kernel = k
	p.children = make(map[int32]*Process)
	p.pendingReads = make(map[*pipeRead]*Pipe)
	p.pendingWrites = make(map[*pipeWrite]*Pipe)
	k.procs[p.PID] = p
	if parent := k.procs[ppid]; parent != nil {
		parent.children[p.PID] = p
	}
	return p
}

// Lookup returns the live process with pid, or nil.
func (k *Kernel) Lookup(pid int32) *Process {
	p := k.procs[pid]
	if p == nil || p.reaped {
		return nil
	}
	return p
}

// Waitpid returns a Completion that resolves with the child's exit
// code — labelled `proc.waitpid(N)`, so a parent parked on it is
// legible in thread dumps. A pid that is not an unreaped child of
// parent resolves immediately with ECHILD. A zombie resolves
// immediately and is reaped; a live child resolves at its exit (the
// kernel reaps it then).
func (k *Kernel) Waitpid(parent *Process, pid int32) *core.Completion {
	c := core.NewCompletion(k.win.Loop, fmt.Sprintf("proc.waitpid(%d)", pid))
	child := k.procs[pid]
	owner := child != nil && !child.reaped &&
		(parent == nil || child.PPID == parent.PID)
	if !owner {
		c.Resolve(nil, vfs.Err(vfs.ECHILD, "waitpid", fmt.Sprintf("pid:%d", pid)))
		return c
	}
	if child.exited {
		k.reap(child)
		c.Resolve(child.exitCode, nil)
		return c
	}
	child.waiters = append(child.waiters, func(code int32) {
		c.Resolve(code, nil)
	})
	return c
}

// reap removes a zombie from the table.
func (k *Kernel) reap(p *Process) {
	if !p.exited || p.reaped {
		return
	}
	p.reaped = true
	delete(k.procs, p.PID)
	if parent := k.procs[p.PPID]; parent != nil {
		delete(parent.children, p.PID)
	}
}

// exit is the single termination bookkeeping path — reached from a
// VM's done callback or from a terminating signal. It closes the
// process's stdio ends (EOF downstream, EPIPE upstream), resolves
// waiters, notifies the parent with SIGCHLD, and leaves a zombie
// until reaped (immediately when waiters were already parked; on the
// next Waitpid otherwise — even pid-0-parented processes stay
// waitable after death).
func (k *Kernel) exit(p *Process, code int32) {
	if p.exited {
		return
	}
	p.exited = true
	p.exitCode = code
	k.flight("proc", "exit", fmt.Sprintf("%s[%d]", p.Name, p.PID), int64(code))

	// A dying process abandons its in-flight pipe operations.
	for r, pipe := range p.pendingReads {
		pipe.cancelRead(r, vfs.EINTR)
	}
	for w, pipe := range p.pendingWrites {
		pipe.cancelWrite(w, vfs.EINTR)
	}
	p.pendingReads = make(map[*pipeRead]*Pipe)
	p.pendingWrites = make(map[*pipeWrite]*Pipe)

	if p.Stdin != nil {
		p.Stdin.CloseRead()
	}
	if p.Stdout != nil {
		p.Stdout.CloseWrite()
	}
	if p.Stderr != nil {
		p.Stderr.CloseWrite()
	}

	// Orphaned children have no one left to wait for them: reparent
	// to "init" (ppid 0) and reap the already-dead ones.
	for _, c := range p.children {
		c.PPID = 0
		if c.exited {
			k.reap(c)
		}
	}

	waiters := p.waiters
	p.waiters = nil
	parent := k.procs[p.PPID]
	if len(waiters) > 0 {
		k.reap(p)
	}
	for _, w := range waiters {
		w(code)
	}
	if parent != nil {
		k.flight("proc", "signal", fmt.Sprintf("%s→%s[%d]", SIGCHLD, parent.Name, parent.PID), int64(p.PID))
	}
}

// Kill delivers sig to pid: cancel the process's blocked pipe
// operations with EINTR, then apply the signal's default action
// (terminate with 128+sig for all but SIGCHLD — there are no guest
// signal handlers in this kernel). It returns an ESRCH error for a
// dead or unknown pid.
func (k *Kernel) Kill(pid int32, sig Signal) error {
	p := k.procs[pid]
	if p == nil || p.reaped || p.exited {
		return vfs.Err(vfs.ESRCH, "kill", fmt.Sprintf("pid:%d", pid))
	}
	k.flight("proc", "signal", fmt.Sprintf("%s→%s[%d]", sig, p.Name, p.PID), int64(pid))

	// EINTR first: a thread parked on a pipe read observes the
	// interrupted syscall before the process disappears.
	for r, pipe := range p.pendingReads {
		pipe.cancelRead(r, vfs.EINTR)
	}
	for w, pipe := range p.pendingWrites {
		pipe.cancelWrite(w, vfs.EINTR)
	}
	p.pendingReads = make(map[*pipeRead]*Pipe)
	p.pendingWrites = make(map[*pipeWrite]*Pipe)

	if !sig.terminates() {
		return nil
	}
	if p.kill != nil {
		p.kill(sig.ExitStatus())
	}
	k.exit(p, sig.ExitStatus())
	return nil
}

// trackRead registers an interruptible pipe read with its owning
// process (nil handles — non-blocking streams — are ignored).
func (p *Process) trackRead(r *pipeRead, pipe *Pipe) {
	if r != nil && !r.canceled && !r.done {
		p.pendingReads[r] = pipe
	}
}

func (p *Process) untrackRead(r *pipeRead) {
	if r != nil {
		delete(p.pendingReads, r)
	}
}

func (p *Process) trackWrite(w *pipeWrite, pipe *Pipe) {
	if w != nil && !w.canceled && !w.done {
		p.pendingWrites[w] = pipe
	}
}

func (p *Process) untrackWrite(w *pipeWrite) {
	if w != nil {
		delete(p.pendingWrites, w)
	}
}

// ProcInfo is one row of the ps-style table (/debug/proc).
type ProcInfo struct {
	PID      int32   `json:"pid"`
	PPID     int32   `json:"ppid"`
	Name     string  `json:"name"`
	State    string  `json:"state"`
	Blocked  string  `json:"blocked_on,omitempty"`
	ExitCode int32   `json:"exit_code"`
	Children []int32 `json:"children,omitempty"`
}

// Snapshot captures the live process table, pid-ordered. State is
// derived from the guest scheduler: "running" when a thread is
// runnable, "blocked" (with the Completion label) when every live
// thread is parked, "zombie" after exit.
func (k *Kernel) Snapshot() []ProcInfo {
	out := make([]ProcInfo, 0, len(k.procs))
	for _, p := range k.procs {
		info := ProcInfo{
			PID: p.PID, PPID: p.PPID, Name: p.Name,
			ExitCode: p.exitCode,
		}
		for pid := range p.children {
			info.Children = append(info.Children, pid)
		}
		sort.Slice(info.Children, func(i, j int) bool { return info.Children[i] < info.Children[j] })
		switch {
		case p.exited:
			info.State = string(StateZombie)
		default:
			info.State = string(StateRunning)
			if p.rt != nil {
				d := p.rt.Dump()
				blocked := d.Blocked()
				running := false
				for _, t := range d.Threads {
					if t.State == "ready" || t.State == "running" {
						running = true
					}
				}
				if !running && len(blocked) > 0 {
					info.State = "blocked"
					info.Blocked = blocked[0].BlockedOn
				}
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}
