package vfs

import (
	"sort"
	"strings"
	"time"

	"doppio/internal/vfs/vkernel"
)

// InMemory is the temporary in-memory storage backend (§5.1, Figure 2:
// "one provides temporary in-memory storage") — the analog of /tmp.
// It keeps a real directory tree and additionally supports the
// optional symlink operations (LinkBackend).
type InMemory struct {
	root *memNode
}

type memNode struct {
	typ      FileType
	data     []byte
	children map[string]*memNode
	target   string // symlink target
	mode     int
	mtime    time.Time
	atime    time.Time
}

// NewInMemory creates an empty in-memory file system.
func NewInMemory() *InMemory {
	return &InMemory{root: newDirNode()}
}

func newDirNode() *memNode {
	return &memNode{typ: TypeDir, children: make(map[string]*memNode), mode: 0o777, mtime: time.Now()}
}

// Name identifies the backend.
func (m *InMemory) Name() string { return "InMemory" }

// ReadOnly reports false: the backend is writable.
func (m *InMemory) ReadOnly() bool { return false }

// walk resolves a normalized absolute path to a node, following
// symlinks in intermediate components (bounded depth).
func (m *InMemory) walk(p string, followLeaf bool) (*memNode, error) {
	return m.walkDepth(p, followLeaf, 0)
}

func (m *InMemory) walkDepth(p string, followLeaf bool, depth int) (*memNode, error) {
	if depth > 16 {
		return nil, Err(EINVAL, "walk", p)
	}
	node := m.root
	if p == "/" {
		return node, nil
	}
	// Step through the components in place: rest starts with the
	// component being looked up.
	for rest := strings.TrimPrefix(p, "/"); ; {
		part, tail, more := strings.Cut(rest, "/")
		if node.typ != TypeDir {
			return nil, Err(ENOTDIR, "walk", p)
		}
		child, ok := node.children[part]
		if !ok {
			return nil, Err(ENOENT, "walk", p)
		}
		if child.typ == TypeSymlink && (more || followLeaf) {
			// Relative targets resolve against the link's directory —
			// the same kernel resolution the front end applies to cwd.
			linkDir := strings.TrimSuffix(p[:len(p)-len(rest)], "/")
			resolved, err := m.walkDepth(vkernel.Resolve(linkDir, child.target), true, depth+1)
			if err != nil {
				return nil, err
			}
			child = resolved
		}
		node = child
		if !more {
			return node, nil
		}
		rest = tail
	}
}

func (m *InMemory) parentOf(p, op string) (*memNode, string, error) {
	dir, base := splitDir(p)
	if base == "" {
		return nil, "", Err(EINVAL, op, p)
	}
	node, err := m.walk(dir, true)
	if err != nil {
		return nil, "", Err(ENOENT, op, p)
	}
	if node.typ != TypeDir {
		return nil, "", Err(ENOTDIR, op, p)
	}
	return node, base, nil
}

// Stat describes the node at path (following symlinks).
func (m *InMemory) Stat(p string, cb func(Stats, error)) {
	node, err := m.walk(p, true)
	if err != nil {
		cb(Stats{}, Err(ENOENT, "stat", p))
		return
	}
	cb(statOf(node), nil)
}

func statOf(n *memNode) Stats {
	return Stats{
		Type: n.typ, Size: int64(len(n.data)), Mode: n.mode,
		Mtime: n.mtime, Atime: n.atime, Ctime: n.mtime,
	}
}

// Open delivers the file's stored contents without copying (see
// Backend.Open).
func (m *InMemory) Open(p string, cb func([]byte, error)) {
	node, err := m.walk(p, true)
	switch {
	case err != nil:
		cb(nil, Err(ENOENT, "open", p))
	case node.typ == TypeDir:
		cb(nil, Err(EISDIR, "open", p))
	default:
		node.atime = time.Now()
		cb(node.data, nil)
	}
}

// Sync writes back the file's contents, creating it if needed.
func (m *InMemory) Sync(p string, data []byte, cb func(error)) {
	parent, base, err := m.parentOf(p, "sync")
	if err != nil {
		cb(err)
		return
	}
	node, ok := parent.children[base]
	if ok && node.typ == TypeDir {
		cb(Err(EISDIR, "sync", p))
		return
	}
	if !ok {
		node = &memNode{typ: TypeFile, mode: 0o644}
		parent.children[base] = node
	}
	node.data = append([]byte(nil), data...)
	node.mtime = time.Now()
	cb(nil)
}

// Unlink removes a file or symlink.
func (m *InMemory) Unlink(p string, cb func(error)) {
	parent, base, err := m.parentOf(p, "unlink")
	if err != nil {
		cb(err)
		return
	}
	node, ok := parent.children[base]
	switch {
	case !ok:
		cb(Err(ENOENT, "unlink", p))
	case node.typ == TypeDir:
		cb(Err(EISDIR, "unlink", p))
	default:
		delete(parent.children, base)
		cb(nil)
	}
}

// Rmdir removes an empty directory.
func (m *InMemory) Rmdir(p string, cb func(error)) {
	parent, base, err := m.parentOf(p, "rmdir")
	if err != nil {
		cb(err)
		return
	}
	node, ok := parent.children[base]
	switch {
	case !ok:
		cb(Err(ENOENT, "rmdir", p))
	case node.typ != TypeDir:
		cb(Err(ENOTDIR, "rmdir", p))
	case len(node.children) > 0:
		cb(Err(ENOTEMPTY, "rmdir", p))
	default:
		delete(parent.children, base)
		cb(nil)
	}
}

// Mkdir creates a directory; the parent must already exist.
func (m *InMemory) Mkdir(p string, cb func(error)) {
	parent, base, err := m.parentOf(p, "mkdir")
	if err != nil {
		cb(err)
		return
	}
	if _, ok := parent.children[base]; ok {
		cb(Err(EEXIST, "mkdir", p))
		return
	}
	parent.children[base] = newDirNode()
	cb(nil)
}

// Readdir lists a directory's names, sorted.
func (m *InMemory) Readdir(p string, cb func([]string, error)) {
	node, err := m.walk(p, true)
	switch {
	case err != nil:
		cb(nil, Err(ENOENT, "readdir", p))
	case node.typ != TypeDir:
		cb(nil, Err(ENOTDIR, "readdir", p))
	default:
		names := make([]string, 0, len(node.children))
		for name := range node.children {
			names = append(names, name)
		}
		sort.Strings(names)
		cb(names, nil)
	}
}

// Rename moves oldPath to newPath, replacing a plain-file target.
func (m *InMemory) Rename(oldPath, newPath string, cb func(error)) {
	op, ob, err := m.parentOf(oldPath, "rename")
	if err != nil {
		cb(err)
		return
	}
	node, ok := op.children[ob]
	if !ok {
		cb(Err(ENOENT, "rename", oldPath))
		return
	}
	np, nb, err := m.parentOf(newPath, "rename")
	if err != nil {
		cb(err)
		return
	}
	if existing, ok := np.children[nb]; ok {
		if existing.typ == TypeDir && len(existing.children) > 0 {
			cb(Err(ENOTEMPTY, "rename", newPath))
			return
		}
		if existing.typ == TypeDir && node.typ != TypeDir {
			cb(Err(EISDIR, "rename", newPath))
			return
		}
	}
	delete(op.children, ob)
	np.children[nb] = node
	cb(nil)
}

// Symlink creates a symbolic link at path pointing at target.
func (m *InMemory) Symlink(target, p string, cb func(error)) {
	parent, base, err := m.parentOf(p, "symlink")
	if err != nil {
		cb(err)
		return
	}
	if _, ok := parent.children[base]; ok {
		cb(Err(EEXIST, "symlink", p))
		return
	}
	parent.children[base] = &memNode{typ: TypeSymlink, target: target, mode: 0o777, mtime: time.Now()}
	cb(nil)
}

// Readlink returns a symlink's target.
func (m *InMemory) Readlink(p string, cb func(string, error)) {
	node, err := m.walk(p, false)
	switch {
	case err != nil:
		cb("", Err(ENOENT, "readlink", p))
	case node.typ != TypeSymlink:
		cb("", Err(EINVAL, "readlink", p))
	default:
		cb(node.target, nil)
	}
}
