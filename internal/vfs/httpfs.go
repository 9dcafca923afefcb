package vfs

import (
	"sort"
	"strings"

	"doppio/internal/browser"
	"doppio/internal/eventloop"
	"doppio/internal/vfs/vkernel"
)

// HTTPFS is the read-only backend over files served by the web server
// (§5.1, Figure 2: "one offers read-only access to files served by the
// web server"). Files download asynchronously on demand — the property
// that lets DoppioJVM's class loader pull in class files lazily
// (§6.4) — and are cached in memory once fetched, via the §5.1 index
// utility.
type HTTPFS struct {
	loop   *eventloop.Loop
	remote *browser.RemoteServer
	prefix string // path prefix on the remote server

	// index maps vfs paths to remote existence; built from the
	// server-provided listing at mount time, like Doppio's XHR
	// backend listing file.
	files map[string]bool
	dirs  map[string]bool

	cache map[string][]byte
	sizes map[string]int
}

// NewHTTPFS builds a read-only backend over the remote server,
// exposing the files under prefix. The listing is the pre-generated
// index a Doppio deployment ships alongside the page.
func NewHTTPFS(loop *eventloop.Loop, remote *browser.RemoteServer, prefix string) *HTTPFS {
	h := &HTTPFS{
		loop:   loop,
		remote: remote,
		prefix: strings.Trim(prefix, "/"),
		files:  make(map[string]bool),
		dirs:   map[string]bool{"/": true},
		cache:  make(map[string][]byte),
		sizes:  make(map[string]int),
	}
	for _, rp := range remote.Index() {
		if h.prefix != "" {
			if !strings.HasPrefix(rp, h.prefix+"/") {
				continue
			}
			rp = rp[len(h.prefix)+1:]
		}
		p := "/" + rp
		h.files[p] = true
		for d, _ := splitDir(p); d != "/"; d, _ = splitDir(d) {
			h.dirs[d] = true
		}
	}
	return h
}

// Name identifies the backend.
func (h *HTTPFS) Name() string { return "HTTPRequest" }

// ReadOnly reports true: the web server cannot be written.
func (h *HTTPFS) ReadOnly() bool { return true }

func (h *HTTPFS) remotePath(p string) string {
	rp := strings.TrimPrefix(p, "/")
	if h.prefix != "" {
		rp = h.prefix + "/" + rp
	}
	return rp
}

// Stat describes a node using the index; sizes of not-yet-downloaded
// files are fetched with a HEAD request and cached.
func (h *HTTPFS) Stat(p string, cb func(Stats, error)) {
	if h.dirs[p] {
		cb(Stats{Type: TypeDir}, nil)
		return
	}
	if !h.files[p] {
		cb(Stats{}, Err(ENOENT, "stat", p))
		return
	}
	if size, ok := h.sizes[p]; ok {
		cb(Stats{Type: TypeFile, Size: int64(size)}, nil)
		return
	}
	h.remote.XHRHeadAsync(h.loop, h.remotePath(p), func(size int, err error) {
		if err != nil {
			cb(Stats{}, ErrWithCause(EIO, "stat", p, err))
			return
		}
		h.sizes[p] = size
		cb(Stats{Type: TypeFile, Size: int64(size)}, nil)
	})
}

// Open downloads the file (or serves the cached copy).
func (h *HTTPFS) Open(p string, cb func([]byte, error)) {
	if h.dirs[p] {
		cb(nil, Err(EISDIR, "open", p))
		return
	}
	if !h.files[p] {
		cb(nil, Err(ENOENT, "open", p))
		return
	}
	if data, ok := h.cache[p]; ok {
		cb(data, nil)
		return
	}
	h.remote.XHRGetAsync(h.loop, h.remotePath(p), func(data []byte, err error) {
		if err != nil {
			cb(nil, ErrWithCause(EIO, "open", p, err))
			return
		}
		h.cache[p] = data
		h.sizes[p] = len(data)
		cb(data, nil)
	})
}

// Sync fails: the backend is read-only.
func (h *HTTPFS) Sync(p string, _ []byte, cb func(error)) { cb(Err(EROFS, "sync", p)) }

// Unlink fails: the backend is read-only.
func (h *HTTPFS) Unlink(p string, cb func(error)) { cb(Err(EROFS, "unlink", p)) }

// Rmdir fails: the backend is read-only.
func (h *HTTPFS) Rmdir(p string, cb func(error)) { cb(Err(EROFS, "rmdir", p)) }

// Mkdir fails: the backend is read-only.
func (h *HTTPFS) Mkdir(p string, cb func(error)) { cb(Err(EROFS, "mkdir", p)) }

// Rename fails: the backend is read-only.
func (h *HTTPFS) Rename(oldPath, _ string, cb func(error)) { cb(Err(EROFS, "rename", oldPath)) }

// Readdir lists the indexed children of a directory.
func (h *HTTPFS) Readdir(p string, cb func([]string, error)) {
	if h.files[p] {
		cb(nil, Err(ENOTDIR, "readdir", p))
		return
	}
	if !h.dirs[p] {
		cb(nil, Err(ENOENT, "readdir", p))
		return
	}
	seen := make(map[string]bool)
	collect := func(paths map[string]bool) {
		for fp := range paths {
			if name, ok := vkernel.ChildOf(p, fp); ok {
				seen[name] = true
			}
		}
	}
	collect(h.files)
	collect(h.dirs)
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	cb(names, nil)
}
