package vfs

import (
	"sort"
	"sync"
	"time"

	"doppio/internal/core"
	"doppio/internal/eventloop"
	"doppio/internal/vfs/vkernel"
)

// CloudStore simulates a Dropbox-style cloud storage service: a remote
// file store reached over the network, with per-operation latency.
// The paper's Dropbox backend (§5.1, Figure 2; Acknowledgements) is a
// thin client over such a service. The store itself lives "outside the
// browser" — it is goroutine-safe and persists across windows, which
// is what makes it cloud storage.
type CloudStore struct {
	mu      sync.Mutex
	files   map[string][]byte
	dirs    map[string]bool
	latency time.Duration
}

// NewCloudStore creates an empty cloud account with the given
// round-trip latency per API call.
func NewCloudStore(latency time.Duration) *CloudStore {
	return &CloudStore{
		files:   make(map[string][]byte),
		dirs:    map[string]bool{"/": true},
		latency: latency,
	}
}

// call delivers fn on the loop after the network round trip.
func (c *CloudStore) call(loop *eventloop.Loop, fn func()) {
	comp := core.NewCompletion(loop, "vfs.cloud")
	comp.Then(func(interface{}, error) { fn() })
	resolve := comp.Resolver()
	go func() {
		if c.latency > 0 {
			time.Sleep(c.latency)
		}
		resolve(nil, nil)
	}()
}

// CloudFS is the Doppio backend over a CloudStore account.
type CloudFS struct {
	loop  *eventloop.Loop
	store *CloudStore
}

// NewCloudFS creates a backend for the cloud account, delivering
// completions on loop.
func NewCloudFS(loop *eventloop.Loop, store *CloudStore) *CloudFS {
	return &CloudFS{loop: loop, store: store}
}

// Name identifies the backend.
func (c *CloudFS) Name() string { return "Dropbox" }

// ReadOnly reports false: cloud storage is writable.
func (c *CloudFS) ReadOnly() bool { return false }

// Stat describes the node at path.
func (c *CloudFS) Stat(p string, cb func(Stats, error)) {
	c.store.call(c.loop, func() {
		c.store.mu.Lock()
		defer c.store.mu.Unlock()
		if data, ok := c.store.files[p]; ok {
			cb(Stats{Type: TypeFile, Size: int64(len(data))}, nil)
			return
		}
		if c.store.dirs[p] {
			cb(Stats{Type: TypeDir}, nil)
			return
		}
		cb(Stats{}, Err(ENOENT, "stat", p))
	})
}

// Open downloads the file's contents: the stored slice itself, which
// Sync replaces rather than modifies.
func (c *CloudFS) Open(p string, cb func([]byte, error)) {
	c.store.call(c.loop, func() {
		c.store.mu.Lock()
		defer c.store.mu.Unlock()
		if data, ok := c.store.files[p]; ok {
			cb(data, nil)
			return
		}
		if c.store.dirs[p] {
			cb(nil, Err(EISDIR, "open", p))
			return
		}
		cb(nil, Err(ENOENT, "open", p))
	})
}

// Sync uploads the file's contents.
func (c *CloudFS) Sync(p string, data []byte, cb func(error)) {
	cp := append([]byte(nil), data...)
	c.store.call(c.loop, func() {
		c.store.mu.Lock()
		defer c.store.mu.Unlock()
		dir, base := splitDir(p)
		if base == "" {
			cb(Err(EINVAL, "sync", p))
			return
		}
		if !c.store.dirs[dir] {
			cb(Err(ENOENT, "sync", p))
			return
		}
		if c.store.dirs[p] {
			cb(Err(EISDIR, "sync", p))
			return
		}
		c.store.files[p] = cp
		cb(nil)
	})
}

// Unlink removes a file.
func (c *CloudFS) Unlink(p string, cb func(error)) {
	c.store.call(c.loop, func() {
		c.store.mu.Lock()
		defer c.store.mu.Unlock()
		if _, ok := c.store.files[p]; !ok {
			if c.store.dirs[p] {
				cb(Err(EISDIR, "unlink", p))
				return
			}
			cb(Err(ENOENT, "unlink", p))
			return
		}
		delete(c.store.files, p)
		cb(nil)
	})
}

// Rmdir removes an empty directory.
func (c *CloudFS) Rmdir(p string, cb func(error)) {
	c.store.call(c.loop, func() {
		c.store.mu.Lock()
		defer c.store.mu.Unlock()
		if !c.store.dirs[p] {
			if _, ok := c.store.files[p]; ok {
				cb(Err(ENOTDIR, "rmdir", p))
				return
			}
			cb(Err(ENOENT, "rmdir", p))
			return
		}
		if p == "/" {
			cb(Err(EPERM, "rmdir", p))
			return
		}
		if len(c.store.childrenLocked(p)) > 0 {
			cb(Err(ENOTEMPTY, "rmdir", p))
			return
		}
		delete(c.store.dirs, p)
		cb(nil)
	})
}

// Mkdir creates a directory.
func (c *CloudFS) Mkdir(p string, cb func(error)) {
	c.store.call(c.loop, func() {
		c.store.mu.Lock()
		defer c.store.mu.Unlock()
		if c.store.dirs[p] {
			cb(Err(EEXIST, "mkdir", p))
			return
		}
		if _, ok := c.store.files[p]; ok {
			cb(Err(EEXIST, "mkdir", p))
			return
		}
		dir, _ := splitDir(p)
		if !c.store.dirs[dir] {
			cb(Err(ENOENT, "mkdir", p))
			return
		}
		c.store.dirs[p] = true
		cb(nil)
	})
}

func (c *CloudStore) childrenLocked(p string) []string {
	seen := make(map[string]bool)
	add := func(fp string) {
		if name, ok := vkernel.ChildOf(p, fp); ok {
			seen[name] = true
		}
	}
	for fp := range c.files {
		add(fp)
	}
	for dp := range c.dirs {
		add(dp)
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Readdir lists a directory's children.
func (c *CloudFS) Readdir(p string, cb func([]string, error)) {
	c.store.call(c.loop, func() {
		c.store.mu.Lock()
		defer c.store.mu.Unlock()
		if !c.store.dirs[p] {
			if _, ok := c.store.files[p]; ok {
				cb(nil, Err(ENOTDIR, "readdir", p))
				return
			}
			cb(nil, Err(ENOENT, "readdir", p))
			return
		}
		cb(c.store.childrenLocked(p), nil)
	})
}

// Rename moves a file within the account.
func (c *CloudFS) Rename(oldPath, newPath string, cb func(error)) {
	c.store.call(c.loop, func() {
		c.store.mu.Lock()
		defer c.store.mu.Unlock()
		data, ok := c.store.files[oldPath]
		if !ok {
			cb(Err(ENOENT, "rename", oldPath))
			return
		}
		if c.store.dirs[newPath] {
			cb(Err(EISDIR, "rename", newPath))
			return
		}
		dir, _ := splitDir(newPath)
		if !c.store.dirs[dir] {
			cb(Err(ENOENT, "rename", newPath))
			return
		}
		delete(c.store.files, oldPath)
		c.store.files[newPath] = data
		cb(nil)
	})
}
