package vfs

import (
	"doppio/internal/buffer"
	"doppio/internal/eventloop"
	"doppio/internal/vfs/vkernel"
)

// FS is the unified, Node-compatible file system front end (§5.1).
// Its Node-style API is asynchronous: a callback is delivered as an
// event-loop macrotask, never before the call that issued it returns,
// matching the guarantee the paper gives ("our emulated fs module only
// guarantees the availability of the asynchronous interface for any
// given backend"). Blocking is the entry point for callers that block
// a guest thread on the callback anyway: there an answer the backend
// chain gives inline is delivered inline too.
//
// Every call works on whole files, as the backends store them: a read
// loads the file, a write replaces it with one Sync. Nothing between a
// caller and the backend buffers writes; a guest that wants §5.1's
// sync-on-close batches its own (DoppioJVM's FileOutputStream issues
// one writeFile on close).
type FS struct {
	loop *eventloop.Loop
	bufs *buffer.Factory
	root Backend

	cwd string

	// OnOp, if non-nil, observes each operation as it is issued —
	// the hook perfbench's fs workload counts guest operations with.
	OnOp func(op, path string)

	// While Blocking runs its call, holding is set and deliver appends
	// callbacks to held instead of posting them.
	holding bool
	held    []func()
}

// New creates a file system over root, delivering callbacks on loop
// and allocating file buffers from bufs. The initial working
// directory is "/".
func New(loop *eventloop.Loop, bufs *buffer.Factory, root Backend) *FS {
	return &FS{loop: loop, bufs: bufs, root: root, cwd: "/"}
}

// Root returns the root backend.
func (fs *FS) Root() Backend { return fs.root }

// BufferFactory returns the buffer factory used for file contents.
func (fs *FS) BufferFactory() *buffer.Factory { return fs.bufs }

// --- the process module (§5.1): cwd emulation ---

// Cwd returns the current working directory.
func (fs *FS) Cwd() string { return fs.cwd }

// Chdir changes the current working directory, verifying it exists.
func (fs *FS) Chdir(path string, cb func(error)) {
	p := fs.resolve(path)
	fs.note("chdir", p)
	fs.root.Stat(p, func(st Stats, err error) {
		if err == nil && !st.IsDirectory() {
			err = Err(ENOTDIR, "chdir", p)
		}
		if err == nil {
			fs.cwd = p
		}
		fs.deliverErr(cb, err)
	})
}

// SetCwd sets the working directory without the existence check —
// the inheritance path: a spawned child adopts its parent's already-
// verified cwd, Unix-style. Relative paths resolve against the
// parent's cwd first.
func (fs *FS) SetCwd(path string) { fs.cwd = vkernel.Resolve(fs.cwd, path) }

func (fs *FS) resolve(p string) string { return vkernel.Resolve(fs.cwd, p) }

func (fs *FS) note(op, path string) {
	if fs.OnOp != nil {
		fs.OnOp(op, path)
	}
}

// deliver hands a callback to the caller. Inside Blocking's call it is
// held for Blocking to run once the call returns; otherwise it is
// posted as an "fs-cb" macrotask, so a Node-style callback never runs
// before its call returns.
func (fs *FS) deliver(fn func()) {
	if fs.holding {
		fs.held = append(fs.held, fn)
		return
	}
	fs.loop.Post("fs-cb", fn)
}

// Blocking runs call, which issues operations on fs, for a caller that
// blocks a guest thread until their callbacks fire: a JVM file native,
// a MiniC file syscall, a class load. While call runs, callbacks are
// held instead of posted, and those the backend chain answered before
// call returned run, in order, before Blocking returns. The caller's
// Completion therefore settles before it awaits, and the thread does
// not suspend (§4.2 without the §4.4 resumption). An answer that comes
// later (an asynchronous backend, injected latency, a retry backoff) is
// posted as usual, and the thread crosses the bridge. Held callbacks
// run with the hold released, so a Node-style call they issue is still
// posted; a Blocking call inside call shares the outer hold.
func (fs *FS) Blocking(call func()) {
	if fs.holding {
		call()
		return
	}
	fs.holding = true
	call()
	fs.holding = false
	held := fs.held
	fs.held = nil
	for _, fn := range held {
		fn()
	}
}

func (fs *FS) deliverErr(cb func(error), err error) {
	fs.deliver(func() { cb(err) })
}

// --- the whole-file and metadata API (standardized in terms of the
// core backend methods, as §5.1 describes) ---

// ReadFile loads the entire file at path into a fresh Buffer the
// caller owns.
func (fs *FS) ReadFile(path string, cb func(*buffer.Buffer, error)) {
	fs.ReadFileBytes(path, func(data []byte, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		cb(fs.bufs.FromBytes(data), nil)
	})
}

// ReadFileBytes loads the entire file at path and delivers the
// backend's slice without copying it. Like Backend.Open's, the slice
// is read-only: it may alias stored contents or a cache page, so the
// caller copies it to mutate or keep a private version. It is the
// read path of consumers that copy into memory of their own (a guest
// heap or array, a class parser).
func (fs *FS) ReadFileBytes(path string, cb func([]byte, error)) {
	p := fs.resolve(path)
	fs.note("readFile", p)
	fs.root.Stat(p, func(st Stats, err error) {
		switch {
		case err != nil:
			fs.deliver(func() { cb(nil, err) })
		case st.IsDirectory():
			fs.deliver(func() { cb(nil, Err(EISDIR, "readFile", p)) })
		default:
			fs.root.Open(p, func(data []byte, err error) {
				if err != nil {
					data = nil // never hand out a partial transfer
				}
				fs.deliver(func() { cb(data, err) })
			})
		}
	})
}

// WriteFile replaces the entire file at path with data.
func (fs *FS) WriteFile(path string, data []byte, cb func(error)) {
	p := fs.resolve(path)
	fs.note("writeFile", p)
	if fs.root.ReadOnly() {
		fs.deliverErr(cb, Err(EROFS, "writeFile", p))
		return
	}
	fs.checkWritableTarget(p, "writeFile", func(err error) {
		if err != nil {
			fs.deliverErr(cb, err)
			return
		}
		fs.root.Sync(p, data, func(err error) { fs.deliverErr(cb, err) })
	})
}

// checkWritableTarget verifies p is not a directory and its parent
// exists and is a directory.
func (fs *FS) checkWritableTarget(p, op string, cb func(error)) {
	fs.root.Stat(p, func(st Stats, err error) {
		switch {
		case err == nil && st.IsDirectory():
			cb(Err(EISDIR, op, p))
		case err == nil:
			cb(nil)
		case IsErrno(err, ENOENT):
			dir, _ := splitDir(p)
			fs.root.Stat(dir, func(dst Stats, derr error) {
				switch {
				case derr != nil:
					cb(Err(ENOENT, op, p))
				case !dst.IsDirectory():
					cb(Err(ENOTDIR, op, p))
				default:
					cb(nil)
				}
			})
		default:
			cb(err)
		}
	})
}

// AppendFile appends data to the file at path, creating it if needed.
func (fs *FS) AppendFile(path string, data []byte, cb func(error)) {
	p := fs.resolve(path)
	fs.note("appendFile", p)
	if fs.root.ReadOnly() {
		fs.deliverErr(cb, Err(EROFS, "appendFile", p))
		return
	}
	fs.root.Open(p, func(old []byte, err error) {
		if err != nil && !IsErrno(err, ENOENT) {
			fs.deliverErr(cb, err)
			return
		}
		combined := append(append([]byte(nil), old...), data...)
		fs.checkWritableTarget(p, "appendFile", func(err error) {
			if err != nil {
				fs.deliverErr(cb, err)
				return
			}
			fs.root.Sync(p, combined, func(err error) { fs.deliverErr(cb, err) })
		})
	})
}

// Stat describes the node at path.
func (fs *FS) Stat(path string, cb func(Stats, error)) {
	p := fs.resolve(path)
	fs.note("stat", p)
	fs.root.Stat(p, func(st Stats, err error) {
		fs.deliver(func() { cb(st, err) })
	})
}

// Exists reports whether path exists (Node's deprecated-but-loved API).
func (fs *FS) Exists(path string, cb func(bool)) {
	p := fs.resolve(path)
	fs.note("exists", p)
	fs.root.Stat(p, func(_ Stats, err error) {
		fs.deliver(func() { cb(err == nil) })
	})
}

// Unlink removes the file at path.
func (fs *FS) Unlink(path string, cb func(error)) {
	p := fs.resolve(path)
	fs.note("unlink", p)
	if fs.root.ReadOnly() {
		fs.deliverErr(cb, Err(EROFS, "unlink", p))
		return
	}
	fs.root.Unlink(p, func(err error) { fs.deliverErr(cb, err) })
}

// Rmdir removes the empty directory at path.
func (fs *FS) Rmdir(path string, cb func(error)) {
	p := fs.resolve(path)
	fs.note("rmdir", p)
	if fs.root.ReadOnly() {
		fs.deliverErr(cb, Err(EROFS, "rmdir", p))
		return
	}
	fs.root.Rmdir(p, func(err error) { fs.deliverErr(cb, err) })
}

// Mkdir creates a directory at path.
func (fs *FS) Mkdir(path string, cb func(error)) {
	p := fs.resolve(path)
	fs.note("mkdir", p)
	if fs.root.ReadOnly() {
		fs.deliverErr(cb, Err(EROFS, "mkdir", p))
		return
	}
	fs.root.Mkdir(p, func(err error) { fs.deliverErr(cb, err) })
}

// MkdirAll creates path and any missing parents (not part of Node's
// fs, but simulated here in terms of Mkdir as the §5.1 kernel
// simulates redundant APIs in terms of the core backend methods).
func (fs *FS) MkdirAll(path string, cb func(error)) {
	p := fs.resolve(path)
	var make func(string, func(error))
	make = func(dir string, done func(error)) {
		fs.root.Stat(dir, func(st Stats, err error) {
			switch {
			case err == nil && st.IsDirectory():
				done(nil)
			case err == nil:
				done(Err(ENOTDIR, "mkdir", dir))
			default:
				parent, _ := splitDir(dir)
				make(parent, func(err error) {
					if err != nil {
						done(err)
						return
					}
					fs.note("mkdir", dir)
					fs.root.Mkdir(dir, done)
				})
			}
		})
	}
	make(p, func(err error) { fs.deliverErr(cb, err) })
}

// Readdir lists the names in the directory at path, sorted by the
// backend's natural order.
func (fs *FS) Readdir(path string, cb func([]string, error)) {
	p := fs.resolve(path)
	fs.note("readdir", p)
	fs.root.Readdir(p, func(names []string, err error) {
		fs.deliver(func() { cb(names, err) })
	})
}

// Rename moves oldPath to newPath. Two cases are decided here, once
// for every backend: a rename onto itself changes nothing and answers
// as a Stat of the source does, and a directory cannot move into its
// own subtree (EINVAL, as Unix refuses it). A file source whose target
// lies under it goes on to the backend, which answers ENOTDIR.
func (fs *FS) Rename(oldPath, newPath string, cb func(error)) {
	op := fs.resolve(oldPath)
	np := fs.resolve(newPath)
	fs.note("rename", op)
	if fs.root.ReadOnly() {
		fs.deliverErr(cb, Err(EROFS, "rename", op))
		return
	}
	rename := func() { fs.root.Rename(op, np, func(err error) { fs.deliverErr(cb, err) }) }
	if op != np && !vkernel.Covers(op, np) {
		rename()
		return
	}
	fs.root.Stat(op, func(st Stats, err error) {
		switch {
		case err != nil:
			if errno, ok := Classify(err); ok {
				err = Err(errno, "rename", op)
			}
			fs.deliverErr(cb, err)
		case op == np:
			fs.deliverErr(cb, nil)
		case st.IsDirectory():
			fs.deliverErr(cb, Err(EINVAL, "rename", np))
		default:
			rename()
		}
	})
}
