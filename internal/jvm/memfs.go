package jvm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// MemHostFS is a synchronous in-memory HostFS — the native engine's
// stand-in for a local disk when benchmarks must run hermetically.
type MemHostFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewMemHostFS creates an empty in-memory host file system.
func NewMemHostFS() *MemHostFS {
	return &MemHostFS{files: make(map[string][]byte)}
}

// Put seeds a file.
func (m *MemHostFS) Put(path string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path] = append([]byte(nil), data...)
}

// Len reports the number of files.
func (m *MemHostFS) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.files)
}

// ReadFile reads a whole file: the stored slice itself, read-only
// (see HostFS.ReadFile). Put stores a copy and Append only writes past
// the end of earlier contents, so delivered slices never change.
func (m *MemHostFS) ReadFile(p string, cb func([]byte, error)) {
	m.mu.Lock()
	d, ok := m.files[p]
	m.mu.Unlock()
	if !ok {
		cb(nil, fmt.Errorf("memfs: not found: %s", p))
		return
	}
	cb(d, nil)
}

// WriteFile replaces a whole file.
func (m *MemHostFS) WriteFile(p string, d []byte, cb func(error)) {
	m.Put(p, d)
	cb(nil)
}

// Append appends to a file.
func (m *MemHostFS) Append(p string, d []byte, cb func(error)) {
	m.mu.Lock()
	m.files[p] = append(m.files[p], d...)
	m.mu.Unlock()
	cb(nil)
}

// Stat reports size and kind; directories are implied by prefixes.
func (m *MemHostFS) Stat(p string, cb func(int64, bool, bool)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d, ok := m.files[p]; ok {
		cb(int64(len(d)), false, true)
		return
	}
	prefix := strings.TrimSuffix(p, "/") + "/"
	for f := range m.files {
		if strings.HasPrefix(f, prefix) || p == "/" {
			cb(0, true, true)
			return
		}
	}
	cb(0, false, false)
}

// List names a directory's children.
func (m *MemHostFS) List(p string, cb func([]string, error)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := strings.TrimSuffix(p, "/") + "/"
	if p == "/" {
		prefix = "/"
	}
	seen := map[string]bool{}
	for f := range m.files {
		if !strings.HasPrefix(f, prefix) {
			continue
		}
		rest := f[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		if rest != "" {
			seen[rest] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	cb(names, nil)
}

// Delete removes a file.
func (m *MemHostFS) Delete(p string, cb func(error)) {
	m.mu.Lock()
	delete(m.files, p)
	m.mu.Unlock()
	cb(nil)
}

// Mkdir is a no-op (directories are implicit).
func (m *MemHostFS) Mkdir(p string, cb func(error)) { cb(nil) }

// Rename moves a file.
func (m *MemHostFS) Rename(a, b string, cb func(error)) {
	m.mu.Lock()
	if d, ok := m.files[a]; ok {
		m.files[b] = d
		delete(m.files, a)
	}
	m.mu.Unlock()
	cb(nil)
}
