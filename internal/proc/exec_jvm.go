package proc

import (
	"doppio/internal/jvm"
)

// jvmStdin adapts a ReadStream to the JVM's byte-oriented StdinRead.
// Any error — EOF or EINTR — surfaces as (nil, err): ConsoleIn
// translates no-data-with-error to a clean end-of-stream, which is
// the right guest-visible face for both.
func jvmStdin(p *Process, r ReadStream) func(n int, cb func([]byte, error)) {
	return func(n int, cb func([]byte, error)) {
		var handle *pipeRead
		handle = r.Read(n, func(b []byte, err error) {
			p.untrackRead(handle)
			cb(b, err)
		})
		if pr, ok := r.(*PipeReader); ok {
			p.trackRead(handle, pr.P)
		}
	}
}

// SpawnJVM execs mainClass on a fresh Doppio JVM as a new process.
// classes is the class-file image (MapProvider-style); the process
// gets its own vfs.FS front end over the shared mount table and
// stdio through the spec's streams, so a JVM stage slots into a
// pipeline exactly like a MiniC one.
func (k *Kernel) SpawnJVM(mainClass string, classes map[string][]byte, spec SpawnSpec) (*Process, error) {
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

	vm := jvm.NewDoppioVM(k.win, jvm.DoppioOptions{
		Stdout:   &procWriter{p: p, w: spec.Stdout},
		Stderr:   &procWriter{p: p, w: spec.Stderr},
		Stdin:    jvmStdin(p, spec.Stdin),
		Provider: jvm.MapProvider(classes),
		FS:       &jvm.VFSHostFS{FS: p.FS},
	})
	p.rt = vm.Runtime()
	// Force-kill = System.exit with the signal's wait status: Exit
	// tears down every guest thread and fires the done callback,
	// whose exit bookkeeping the kernel guards against running twice.
	p.kill = func(code int32) { vm.Exit(code) }
	k.flight("proc", "exec", execLabel(p), int64(p.PID))
	vm.StartMain(mainClass, spec.Args, func(err error) {
		code := vm.ExitCode()
		if err != nil && code == 0 {
			code = 1
		}
		k.exit(p, code)
	})
	return p, nil
}
