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
// An open descriptor holds its whole file in a Buffer and writes it
// back with one Sync on Close or FSync (§5.1's NFS-style
// sync-on-close). That is the only write buffering between a caller
// and the backend: every decorator below writes through.
type FS struct {
	loop *eventloop.Loop
	bufs *buffer.Factory
	root Backend

	fds    map[int]*FD
	nextFD int

	cwd string

	// Ops counts file system operations as they are issued (used by
	// the Figure 6 trace benchmark).
	Ops int
	// OnOp, if non-nil, observes each operation as it is issued —
	// the hook the fstrace recorder attaches to.
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
	return &FS{loop: loop, bufs: bufs, root: root, fds: make(map[int]*FD), cwd: "/"}
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

// OpenFDs reports the number of descriptors currently open.
func (fs *FS) OpenFDs() int { return len(fs.fds) }

func (fs *FS) resolve(p string) string { return vkernel.Resolve(fs.cwd, p) }

func (fs *FS) note(op, path string) {
	fs.Ops++
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

// --- file descriptors ---

// FD is a file descriptor object. Unlike Unix integer descriptors,
// Doppio file descriptors are objects (§5.1): they hold the file's
// entire contents in memory and implement NFS-style sync-on-close.
type FD struct {
	fs     *FS
	id     int
	path   string
	flag   Flag
	data   *buffer.Buffer
	pos    int
	dirty  bool
	closed bool
}

// Path returns the file's absolute path.
func (fd *FD) Path() string { return fd.path }

// ID returns the numeric descriptor id (for display only).
func (fd *FD) ID() int { return fd.id }

// Size returns the current in-memory file size.
func (fd *FD) Size() int { return fd.data.Len() }

// Open opens path with a Node flag string ("r", "w", "a+", ...).
func (fs *FS) Open(path, flagStr string, cb func(*FD, error)) {
	p := fs.resolve(path)
	fs.note("open", p)
	flag, err := ParseFlag(flagStr)
	if err != nil {
		fs.deliver(func() { cb(nil, err) })
		return
	}
	if fs.root.ReadOnly() && flag.Has(FlagWrite) {
		fs.deliver(func() { cb(nil, Err(EROFS, "open", p)) })
		return
	}
	finish := func(fd *FD, err error) { fs.deliver(func() { cb(fd, err) }) }
	newFD := func(data *buffer.Buffer, dirty bool) *FD {
		fs.nextFD++
		fd := &FD{fs: fs, id: fs.nextFD, path: p, flag: flag, data: data, dirty: dirty}
		fs.fds[fd.id] = fd
		return fd
	}
	fs.root.Stat(p, func(st Stats, statErr error) {
		switch {
		case statErr == nil && st.IsDirectory():
			finish(nil, Err(EISDIR, "open", p))
		case statErr == nil:
			if flag.Has(FlagExclusive) {
				finish(nil, Err(EEXIST, "open", p))
				return
			}
			if flag.Has(FlagTruncate) {
				finish(newFD(fs.bufs.New(0), true), nil)
				return
			}
			fs.root.Open(p, func(data []byte, err error) {
				if err != nil {
					finish(nil, err)
					return
				}
				// The FD's Buffer is the mutable copy of the
				// backend's read-only slice.
				fd := newFD(fs.bufs.FromBytes(data), false)
				if flag.Has(FlagAppend) {
					fd.pos = fd.data.Len()
				}
				finish(fd, nil)
			})
		case IsErrno(statErr, ENOENT) && flag.Has(FlagCreate):
			// Creating: the parent directory must exist.
			dir, _ := splitDir(p)
			fs.root.Stat(dir, func(dst Stats, derr error) {
				switch {
				case derr != nil:
					finish(nil, Err(ENOENT, "open", p))
				case !dst.IsDirectory():
					finish(nil, Err(ENOTDIR, "open", p))
				default:
					finish(newFD(fs.bufs.New(0), true), nil)
				}
			})
		default:
			finish(nil, statErr)
		}
	})
}

// Close closes the descriptor, syncing dirty contents back to the
// backend (sync-on-close).
func (fs *FS) Close(fd *FD, cb func(error)) {
	fs.note("close", fd.path)
	if fd.closed {
		fs.deliverErr(cb, Err(EBADF, "close", fd.path))
		return
	}
	fd.closed = true
	delete(fs.fds, fd.id)
	if !fd.dirty {
		fs.deliverErr(cb, nil)
		return
	}
	fs.root.Sync(fd.path, fd.data.Bytes(), func(err error) {
		fs.deliverErr(cb, err)
	})
}

// FSync flushes dirty contents without closing.
func (fs *FS) FSync(fd *FD, cb func(error)) {
	fs.note("fsync", fd.path)
	if fd.closed {
		fs.deliverErr(cb, Err(EBADF, "fsync", fd.path))
		return
	}
	if !fd.dirty {
		fs.deliverErr(cb, nil)
		return
	}
	fs.root.Sync(fd.path, fd.data.Bytes(), func(err error) {
		if err == nil {
			fd.dirty = false
		}
		fs.deliverErr(cb, err)
	})
}

// Read copies up to length bytes from the file at position pos
// (or the current position when pos < 0) into dst at dstOff and
// advances the position. It reports 0 bytes at EOF.
func (fs *FS) Read(fd *FD, dst *buffer.Buffer, dstOff, length, pos int, cb func(n int, err error)) {
	fs.note("read", fd.path)
	fs.deliver(func() {
		if fd.closed || !fd.flag.Has(FlagRead) {
			cb(0, Err(EBADF, "read", fd.path))
			return
		}
		p := pos
		if p < 0 {
			p = fd.pos
		}
		n := length
		if rem := fd.data.Len() - p; n > rem {
			n = rem
		}
		if n <= 0 {
			cb(0, nil)
			return
		}
		fd.data.Copy(dst, dstOff, p, p+n)
		if pos < 0 {
			fd.pos = p + n
		}
		cb(n, nil)
	})
}

// Write copies length bytes from src at srcOff into the file at
// position pos (current position when pos < 0; end of file under the
// append flag), growing the file as needed.
func (fs *FS) Write(fd *FD, src *buffer.Buffer, srcOff, length, pos int, cb func(n int, err error)) {
	fs.note("write", fd.path)
	fs.deliver(func() {
		if fd.closed || !fd.flag.Has(FlagWrite) {
			cb(0, Err(EBADF, "write", fd.path))
			return
		}
		p := pos
		if fd.flag.Has(FlagAppend) {
			p = fd.data.Len()
		} else if p < 0 {
			p = fd.pos
		}
		if end := p + length; end > fd.data.Len() {
			grown := fs.bufs.New(end)
			fd.data.Copy(grown, 0, 0, fd.data.Len())
			fd.data = grown
		}
		src.Copy(fd.data, p, srcOff, srcOff+length)
		fd.dirty = true
		if pos < 0 || fd.flag.Has(FlagAppend) {
			fd.pos = p + length
		}
		cb(length, nil)
	})
}

// FStat describes an open file.
func (fs *FS) FStat(fd *FD, cb func(Stats, error)) {
	fs.note("fstat", fd.path)
	fs.deliver(func() {
		if fd.closed {
			cb(Stats{}, Err(EBADF, "fstat", fd.path))
			return
		}
		cb(Stats{Type: TypeFile, Size: int64(fd.data.Len())}, nil)
	})
}

// FTruncate resizes an open file.
func (fs *FS) FTruncate(fd *FD, size int, cb func(error)) {
	fs.note("ftruncate", fd.path)
	fs.deliver(func() {
		if fd.closed || !fd.flag.Has(FlagWrite) {
			cb(Err(EBADF, "ftruncate", fd.path))
			return
		}
		resized := fs.bufs.New(size)
		n := fd.data.Len()
		if n > size {
			n = size
		}
		fd.data.Copy(resized, 0, 0, n)
		fd.data = resized
		fd.dirty = true
		cb(nil)
	})
}

// --- whole-file and metadata convenience API (standardized in terms
// of the nine core backend methods, as §5.1 describes) ---

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
// simulates redundant APIs in terms of the core nine).
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

// Rename moves oldPath to newPath.
func (fs *FS) Rename(oldPath, newPath string, cb func(error)) {
	op := fs.resolve(oldPath)
	np := fs.resolve(newPath)
	fs.note("rename", op)
	if fs.root.ReadOnly() {
		fs.deliverErr(cb, Err(EROFS, "rename", op))
		return
	}
	fs.root.Rename(op, np, func(err error) { fs.deliverErr(cb, err) })
}

// Truncate resizes the file at path.
func (fs *FS) Truncate(path string, size int, cb func(error)) {
	p := fs.resolve(path)
	fs.note("truncate", p)
	if fs.root.ReadOnly() {
		fs.deliverErr(cb, Err(EROFS, "truncate", p))
		return
	}
	fs.root.Open(p, func(data []byte, err error) {
		if err != nil {
			fs.deliverErr(cb, err)
			return
		}
		resized := make([]byte, size)
		copy(resized, data)
		fs.root.Sync(p, resized, func(err error) { fs.deliverErr(cb, err) })
	})
}

// Symlink creates a symbolic link (optional backend feature).
func (fs *FS) Symlink(target, path string, cb func(error)) {
	p := fs.resolve(path)
	fs.note("symlink", p)
	lb, ok := fs.root.(LinkBackend)
	if !ok {
		fs.deliverErr(cb, Err(ENOTSUP, "symlink", p))
		return
	}
	lb.Symlink(target, p, func(err error) { fs.deliverErr(cb, err) })
}

// Readlink reads a symbolic link's target.
func (fs *FS) Readlink(path string, cb func(string, error)) {
	p := fs.resolve(path)
	fs.note("readlink", p)
	lb, ok := fs.root.(LinkBackend)
	if !ok {
		fs.deliver(func() { cb("", Err(ENOTSUP, "readlink", p)) })
		return
	}
	lb.Readlink(p, func(target string, err error) {
		fs.deliver(func() { cb(target, err) })
	})
}
