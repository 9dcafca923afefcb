package proc

import (
	"doppio/internal/minic"
	"doppio/internal/vfs"
)

// SpawnSpec describes the process to create: command name, argv
// tail, and stdio. Nil streams default to immediate-EOF stdin and
// discarded output.
type SpawnSpec struct {
	Name           string
	Args           []string
	Stdin          ReadStream
	Stdout, Stderr WriteStream
	// Cwd is the child's initial working directory — the shell passes
	// its own cwd so children started after `cd` resolve relative
	// paths like Unix children do. Empty means "/".
	Cwd string
	// PPID is the parent pid (0 for a shell-spawned top-level job).
	PPID int32
}

func (k *Kernel) fill(spec *SpawnSpec) {
	if spec.Stdin == nil {
		spec.Stdin = &BytesReader{}
	}
	if spec.Stdout == nil {
		spec.Stdout = &WriterStream{W: discard{}}
	}
	if spec.Stderr == nil {
		spec.Stderr = spec.Stdout
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// procWriter adapts a process's WriteStream to the guests' async
// stdout interfaces (minic.AsyncWriter and jvm.AsyncWriter share the
// shape), registering in-flight pipe writes for EINTR and raising
// SIGPIPE on a broken-pipe write — the Unix default a guest cannot
// ignore.
type procWriter struct {
	p *Process
	w WriteStream
}

func (m *procWriter) Write(b []byte) (int, error) { return m.w.Write(b) }

func (m *procWriter) WriteAsync(b []byte, cb func(int, error)) {
	sigpipe := false
	var handle *pipeWrite
	handle = m.w.WriteAsync(b, func(n int, err error) {
		m.p.untrackWrite(handle)
		sigpipe = vfs.IsErrno(err, vfs.EPIPE) && !m.p.exited
		// Deliver the error to the guest first, then the signal:
		// puts() observes -1 (a JVM PrintStream an IOException), and
		// the default action terminates the process with 141 like a
		// shell pipeline member.
		cb(n, err)
		if sigpipe {
			m.p.kernel.Kill(m.p.PID, SIGPIPE)
		}
	})
	if pw, ok := m.w.(*PipeWriter); ok {
		m.p.trackWrite(handle, pw.P)
	}
}

// minicStdin adapts a ReadStream to minic's line-oriented stdin
// callback. EOF and EINTR both surface as eof=true — getline returns
// -1 and the guest's loop ends; if the EINTR came from a terminating
// signal the process is gone before it can act on it anyway.
func minicStdin(p *Process, r ReadStream) func(max int, cb func(line string, eof bool)) {
	return func(max int, cb func(line string, eof bool)) {
		var handle *pipeRead
		handle = r.ReadLine(max, func(b []byte, err error) {
			p.untrackRead(handle)
			if err != nil || len(b) == 0 {
				cb("", true)
				return
			}
			// getline semantics: strip the terminator.
			if b[len(b)-1] == '\n' {
				b = b[:len(b)-1]
			}
			cb(string(b), false)
		})
		if pr, ok := r.(*PipeReader); ok {
			p.trackRead(handle, pr.P)
		}
	}
}

// minicOS is the minic.OS syscall back end bound to one process.
type minicOS struct {
	k *Kernel
	p *Process
}

func (o *minicOS) Getpid() int32 { return o.p.PID }

func (o *minicOS) Fork(child *minic.VM) int32 {
	return o.k.adoptFork(o.p, child)
}

func (o *minicOS) Waitpid(pid int32, cb func(code int32, ok bool)) {
	c := o.k.Waitpid(o.p, pid)
	c.Then(func(v interface{}, err error) {
		if err != nil {
			cb(-1, false)
			return
		}
		cb(v.(int32), true)
	})
}

func (o *minicOS) Kill(pid, sig int32) int32 {
	if err := o.k.Kill(pid, Signal(sig)); err != nil {
		return -1
	}
	return 0
}

// SpawnMinic execs a compiled MiniC program as a new process: fresh
// VM, fresh vfs.FS front end over the shared mount table, stdio wired
// through the spec's streams. The process appears in the table
// immediately; the program starts on the next loop turns.
func (k *Kernel) SpawnMinic(prog *minic.Program, spec SpawnSpec) (*Process, error) {
	k.fill(&spec)
	p := k.register(&Process{
		Name:   spec.Name,
		Args:   spec.Args,
		FS:     k.NewFS(),
		Stdin:  spec.Stdin,
		Stdout: spec.Stdout,
		Stderr: spec.Stderr,
	}, spec.PPID)
	if spec.Cwd != "" {
		p.FS.SetCwd(spec.Cwd)
	}

	vm, err := minic.NewVM(k.win, prog, minic.VMOptions{
		Stdout: &procWriter{p: p, w: spec.Stdout},
		Stdin:  minicStdin(p, spec.Stdin),
		FS:     p.FS,
		Args:   append([]string{spec.Name}, spec.Args...),
		OS:     &minicOS{k: k, p: p},
	})
	if err != nil {
		k.reapFailedSpawn(p)
		return nil, err
	}
	p.rt = vm.Runtime()
	p.kill = func(int32) { vm.Kill() }
	k.flight("proc", "exec", execLabel(p), int64(p.PID))
	vm.Start(func(exit int32, runErr error) {
		if runErr != nil && exit == 0 {
			exit = 127
		}
		k.exit(p, exit)
	})
	return p, nil
}

// adoptFork registers a cloned MiniC VM as a child process of parent
// — the kernel half of the fork syscall. The clone inherits the
// parent's stdio streams and working directory, and gets its own FS
// front end (same mount table, private cwd/fds), then starts
// mid-flight.
func (k *Kernel) adoptFork(parent *Process, child *minic.VM) int32 {
	p := k.register(&Process{
		Name:   parent.Name,
		Args:   parent.Args,
		FS:     k.NewFS(),
		Stdin:  dupRead(parent.Stdin),
		Stdout: dupWrite(parent.Stdout),
		Stderr: dupWrite(parent.Stderr),
	}, parent.PID)
	p.FS.SetCwd(parent.FS.Cwd())
	child.SetStdio(&procWriter{p: p, w: p.Stdout}, minicStdin(p, p.Stdin))
	child.SetOS(&minicOS{k: k, p: p})
	p.rt = child.Runtime()
	p.kill = func(int32) { child.Kill() }
	k.flight("proc", "fork", execLabel(p), int64(parent.PID))
	child.StartForked(func(exit int32, runErr error) {
		if runErr != nil && exit == 0 {
			exit = 127
		}
		k.exit(p, exit)
	})
	return p.PID
}

// reapFailedSpawn removes a table entry whose VM never started.
func (k *Kernel) reapFailedSpawn(p *Process) {
	p.exited = true
	k.reap(p)
}

func execLabel(p *Process) string {
	return p.Name
}

// dupRead/dupWrite duplicate a stream reference across fork: pipe
// ends gain an open-end count (the pipe stays open until both parent
// and child close their copy); other streams are plain shared state.
func dupRead(s ReadStream) ReadStream {
	if pr, ok := s.(*PipeReader); ok {
		pr.P.readers++
	}
	return s
}

func dupWrite(s WriteStream) WriteStream {
	if pw, ok := s.(*PipeWriter); ok {
		pw.P.writers++
	}
	return s
}
