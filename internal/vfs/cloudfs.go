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

// Rename moves a file, or a directory with its subtree, within the
// account. The target follows InMemory's rules: its parent must be a
// directory, a directory target must be empty, and a file cannot
// replace a directory.
func (c *CloudFS) Rename(oldPath, newPath string, cb func(error)) {
	c.store.call(c.loop, func() {
		c.store.mu.Lock()
		defer c.store.mu.Unlock()
		cb(c.store.renameLocked(oldPath, newPath))
	})
}

func (c *CloudStore) renameLocked(oldPath, newPath string) error {
	data, isFile := c.files[oldPath]
	if !isFile && !c.dirs[oldPath] {
		return Err(ENOENT, "rename", oldPath)
	}
	dir, _ := splitDir(newPath)
	if !c.dirs[dir] {
		if _, ok := c.files[dir]; ok {
			return Err(ENOTDIR, "rename", newPath)
		}
		return Err(ENOENT, "rename", newPath)
	}
	if c.dirs[newPath] {
		if len(c.childrenLocked(newPath)) > 0 {
			return Err(ENOTEMPTY, "rename", newPath)
		}
		if isFile {
			return Err(EISDIR, "rename", newPath)
		}
	}
	if isFile {
		delete(c.files, oldPath)
		c.files[newPath] = data
		return nil
	}
	// A directory replaces the target, then its subtree moves under
	// the new name.
	delete(c.files, newPath)
	moved := func(p string) string { return newPath + p[len(oldPath):] }
	files := make(map[string][]byte)
	for p, d := range c.files {
		if vkernel.Under(p, oldPath) {
			files[moved(p)] = d
			delete(c.files, p)
		}
	}
	var dirs []string
	for p := range c.dirs {
		if vkernel.Under(p, oldPath) {
			dirs = append(dirs, moved(p))
			delete(c.dirs, p)
		}
	}
	for p, d := range files {
		c.files[p] = d
	}
	for _, p := range dirs {
		c.dirs[p] = true
	}
	return nil
}
