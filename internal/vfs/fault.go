package vfs

import "doppio/internal/vfs/faultfs"

// NewFaulty wraps a backend in the fault-injection decorator: every
// operation consults the injector and may fail with a seeded,
// deterministic EIO or complete a truncated transfer. The decorator is
// the innermost layer of the Stack — it stands in for the flaky
// network between the runtime and a remote backend (§5.1's cloud/HTTP
// stores, which are the only layers that model a network), so
// everything above it (retry, cache, instrumentation) sees exactly the
// failures a real deployment would.
//
// Fault semantics per kind:
//
//   - ErrPre: the operation never reaches the backend (request lost).
//   - ErrPost: the operation commits on the backend, then the reply is
//     replaced by EIO (acknowledgement lost). This is the case that
//     distinguishes safe retries from duplicated mutations.
//   - Short: Open delivers a prefix of the data alongside a transient
//     error; Sync commits a prefix to the backend and reports a
//     transient error. Ops that carry no payload treat Short as ErrPre.
//
// Like Instrument and NewCached, the wrapper preserves the backend's
// optional link capability. A nil injector (or a plan that cannot
// inject) returns the backend unchanged.
func NewFaulty(b Backend, inj *faultfs.Injector) Backend {
	if b == nil || inj == nil || !inj.Plan().Enabled() {
		return b
	}
	base := &faulty{b: b, inj: inj}
	if lb, ok := b.(LinkBackend); ok {
		base.lb = lb
		return &faultyLink{base}
	}
	return base
}

// faulty decorates the mandatory Backend surface; the link variant
// embeds it, mirroring instrument.go.
type faulty struct {
	b   Backend
	lb  LinkBackend
	inj *faultfs.Injector
}

func (f *faulty) Name() string   { return f.b.Name() }
func (f *faulty) ReadOnly() bool { return f.b.ReadOnly() }

// Unwrap exposes the wrapped backend for decorator-chain discovery.
func (f *faulty) Unwrap() Backend { return f.b }

// FaultStats snapshots the injector's decision counters.
func (f *faulty) FaultStats() faultfs.Stats { return f.inj.Stats() }

// errOp runs an error-only operation under fault injection; Short
// degrades to a pre-commit fault since there is no payload to truncate.
func (f *faulty) errOp(op, path string, call func(cb func(error)), cb func(error)) {
	switch f.inj.Next(op).Kind {
	case faultfs.ErrPre, faultfs.Short:
		cb(Err(EIO, op, path))
	case faultfs.ErrPost:
		call(func(error) { cb(Err(EIO, op, path)) })
	default:
		call(cb)
	}
}

func (f *faulty) Stat(p string, cb func(Stats, error)) {
	switch f.inj.Next("stat").Kind {
	case faultfs.ErrPre, faultfs.Short:
		cb(Stats{}, Err(EIO, "stat", p))
	case faultfs.ErrPost:
		f.b.Stat(p, func(Stats, error) { cb(Stats{}, Err(EIO, "stat", p)) })
	default:
		f.b.Stat(p, cb)
	}
}

func (f *faulty) Open(p string, cb func([]byte, error)) {
	ft := f.inj.Next("open")
	switch ft.Kind {
	case faultfs.ErrPre:
		cb(nil, Err(EIO, "open", p))
	case faultfs.ErrPost:
		f.b.Open(p, func([]byte, error) { cb(nil, Err(EIO, "open", p)) })
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
	ft := f.inj.Next("sync")
	switch ft.Kind {
	case faultfs.ErrPre:
		cb(Err(EIO, "sync", p))
	case faultfs.ErrPost:
		f.b.Sync(p, data, func(error) { cb(Err(EIO, "sync", p)) })
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
	switch f.inj.Next("readdir").Kind {
	case faultfs.ErrPre, faultfs.Short:
		cb(nil, Err(EIO, "readdir", p))
	case faultfs.ErrPost:
		f.b.Readdir(p, func([]string, error) { cb(nil, Err(EIO, "readdir", p)) })
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
	switch f.inj.Next("readlink").Kind {
	case faultfs.ErrPre, faultfs.Short:
		cb("", Err(EIO, "readlink", path))
	case faultfs.ErrPost:
		f.lb.Readlink(path, func(string, error) { cb("", Err(EIO, "readlink", path)) })
	default:
		f.lb.Readlink(path, cb)
	}
}
