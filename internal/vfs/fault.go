package vfs

import (
	"time"

	"doppio/internal/vfs/faultfs"
)

// NewFaulty wraps a backend in the fault-injection decorator: every
// operation consults the injector and may fail with a seeded,
// deterministic errno, suffer a latency spike, or complete a
// truncated transfer. The decorator is the innermost layer of the
// Stack — it stands in for the flaky network between the runtime and
// a remote backend (§5.1's cloud/HTTP stores, which are the only
// layers that model a network), so everything above it (retry, cache,
// instrumentation) sees exactly the failures a real deployment would.
//
// Fault semantics per kind:
//
//   - ErrPre: the operation never reaches the backend (request lost).
//   - ErrPost: the operation commits on the backend, then the reply is
//     replaced by the errno (acknowledgement lost). This is the case
//     that distinguishes safe retries from duplicated mutations.
//   - Short: Open delivers a prefix of the data alongside a transient
//     error; Sync commits a prefix to the backend and reports a
//     transient error. Ops that carry no payload treat Short as ErrPre
//     with EIO.
//   - A latency spike sleeps before the backend call, on the calling
//     goroutine — in this simulation that is usually the event-loop
//     thread, so a spike models exactly the jank a slow network causes.
//
// Like Instrument and NewCached, the wrapper preserves the backend's
// optional capabilities. A nil injector (or a plan that cannot inject)
// returns the backend unchanged.
func NewFaulty(b Backend, inj *faultfs.Injector) Backend {
	if b == nil || inj == nil || !inj.Plan().Enabled() {
		return b
	}
	base := &faulty{b: b, inj: inj}
	lb, hasLink := b.(LinkBackend)
	ab, hasAttr := b.(AttrBackend)
	base.lb, base.ab = lb, ab
	switch {
	case hasLink && hasAttr:
		return &faultyLinkAttr{faultyLink{base}}
	case hasLink:
		return &faultyLink{base}
	case hasAttr:
		return &faultyAttr{base}
	default:
		return base
	}
}

// faulty decorates the mandatory Backend surface; capability variants
// embed it, mirroring instrument.go.
type faulty struct {
	b   Backend
	lb  LinkBackend
	ab  AttrBackend
	inj *faultfs.Injector
}

func (f *faulty) Name() string   { return f.b.Name() }
func (f *faulty) ReadOnly() bool { return f.b.ReadOnly() }

// Unwrap exposes the wrapped backend for decorator-chain discovery.
func (f *faulty) Unwrap() Backend { return f.b }

// FaultStats snapshots the injector's decision counters.
func (f *faulty) FaultStats() faultfs.Stats { return f.inj.Stats() }

// next draws the next decision and applies its latency spike.
func (f *faulty) next(op string) faultfs.Fault {
	ft := f.inj.Next(op)
	if ft.Delay > 0 {
		time.Sleep(ft.Delay)
	}
	return ft
}

// errFor maps an injected errno string onto an *ApiError, defaulting
// unknown strings to EIO so the error always classifies.
func errFor(ft faultfs.Fault, op, path string) error {
	e := Errno(ft.Errno)
	if e == "" {
		e = EIO
	}
	return Err(e, op, path)
}

// errOp runs an error-only operation under fault injection; Short
// degrades to a pre-commit EIO since there is no payload to truncate.
func (f *faulty) errOp(op, path string, call func(cb func(error)), cb func(error)) {
	ft := f.next(op)
	switch ft.Kind {
	case faultfs.ErrPre:
		cb(errFor(ft, op, path))
	case faultfs.ErrPost:
		call(func(error) { cb(errFor(ft, op, path)) })
	case faultfs.Short:
		cb(Err(EIO, op, path))
	default:
		call(cb)
	}
}

func (f *faulty) Stat(p string, cb func(Stats, error)) {
	ft := f.next("stat")
	switch ft.Kind {
	case faultfs.ErrPre, faultfs.Short:
		cb(Stats{}, errFor(ft, "stat", p))
	case faultfs.ErrPost:
		f.b.Stat(p, func(Stats, error) { cb(Stats{}, errFor(ft, "stat", p)) })
	default:
		f.b.Stat(p, cb)
	}
}

func (f *faulty) Open(p string, cb func([]byte, error)) {
	ft := f.next("open")
	switch ft.Kind {
	case faultfs.ErrPre:
		cb(nil, errFor(ft, "open", p))
	case faultfs.ErrPost:
		f.b.Open(p, func([]byte, error) { cb(nil, errFor(ft, "open", p)) })
	case faultfs.Short:
		// The transfer aborts partway: deliver the prefix that made it
		// across together with a transient error, like an interrupted
		// download.
		f.b.Open(p, func(data []byte, err error) {
			if err != nil {
				cb(nil, err)
				return
			}
			k := int(float64(len(data)) * ft.Keep)
			cb(data[:k], Err(EIO, "open", p))
		})
	default:
		f.b.Open(p, cb)
	}
}

func (f *faulty) Sync(p string, data []byte, cb func(error)) {
	ft := f.next("sync")
	switch ft.Kind {
	case faultfs.ErrPre:
		cb(errFor(ft, "sync", p))
	case faultfs.ErrPost:
		f.b.Sync(p, data, func(error) { cb(errFor(ft, "sync", p)) })
	case faultfs.Short:
		// A short write really lands on the backend: the file holds a
		// truncated prefix until a retry re-uploads the whole content.
		k := int(float64(len(data)) * ft.Keep)
		f.b.Sync(p, data[:k], func(err error) {
			if err != nil {
				cb(err)
				return
			}
			cb(Err(EIO, "sync", p))
		})
	default:
		f.b.Sync(p, data, cb)
	}
}

func (f *faulty) Unlink(p string, cb func(error)) {
	f.errOp("unlink", p, func(cb2 func(error)) { f.b.Unlink(p, cb2) }, cb)
}

func (f *faulty) Rmdir(p string, cb func(error)) {
	f.errOp("rmdir", p, func(cb2 func(error)) { f.b.Rmdir(p, cb2) }, cb)
}

func (f *faulty) Mkdir(p string, cb func(error)) {
	f.errOp("mkdir", p, func(cb2 func(error)) { f.b.Mkdir(p, cb2) }, cb)
}

func (f *faulty) Readdir(p string, cb func([]string, error)) {
	ft := f.next("readdir")
	switch ft.Kind {
	case faultfs.ErrPre, faultfs.Short:
		cb(nil, errFor(ft, "readdir", p))
	case faultfs.ErrPost:
		f.b.Readdir(p, func([]string, error) { cb(nil, errFor(ft, "readdir", p)) })
	default:
		f.b.Readdir(p, cb)
	}
}

func (f *faulty) Rename(oldPath, newPath string, cb func(error)) {
	f.errOp("rename", oldPath, func(cb2 func(error)) { f.b.Rename(oldPath, newPath, cb2) }, cb)
}

// faultyLink adds the optional link capability.
type faultyLink struct{ *faulty }

func (f *faultyLink) Symlink(target, path string, cb func(error)) {
	f.errOp("symlink", path, func(cb2 func(error)) { f.lb.Symlink(target, path, cb2) }, cb)
}

func (f *faultyLink) Readlink(path string, cb func(string, error)) {
	ft := f.next("readlink")
	switch ft.Kind {
	case faultfs.ErrPre, faultfs.Short:
		cb("", errFor(ft, "readlink", path))
	case faultfs.ErrPost:
		f.lb.Readlink(path, func(string, error) { cb("", errFor(ft, "readlink", path)) })
	default:
		f.lb.Readlink(path, cb)
	}
}

// faultyAttr adds the optional attribute capability.
type faultyAttr struct{ *faulty }

func (f *faultyAttr) Chmod(path string, mode int, cb func(error)) {
	f.errOp("chmod", path, func(cb2 func(error)) { f.ab.Chmod(path, mode, cb2) }, cb)
}

func (f *faultyAttr) Utimes(path string, atime, mtime time.Time, cb func(error)) {
	f.errOp("utimes", path, func(cb2 func(error)) { f.ab.Utimes(path, atime, mtime, cb2) }, cb)
}

// faultyLinkAttr has both optional capabilities.
type faultyLinkAttr struct{ faultyLink }

func (f *faultyLinkAttr) Chmod(path string, mode int, cb func(error)) {
	f.errOp("chmod", path, func(cb2 func(error)) { f.ab.Chmod(path, mode, cb2) }, cb)
}

func (f *faultyLinkAttr) Utimes(path string, atime, mtime time.Time, cb func(error)) {
	f.errOp("utimes", path, func(cb2 func(error)) { f.ab.Utimes(path, atime, mtime, cb2) }, cb)
}
