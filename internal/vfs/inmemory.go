package vfs

import (
	"sort"
	"strings"
)

// InMemory is the temporary in-memory storage backend (§5.1, Figure 2:
// "one provides temporary in-memory storage") — the analog of /tmp.
// It keeps a real directory tree.
type InMemory struct {
	root *memNode
}

type memNode struct {
	typ      FileType
	data     []byte
	children map[string]*memNode
}

// NewInMemory creates an empty in-memory file system.
func NewInMemory() *InMemory {
	return &InMemory{root: newDirNode()}
}

func newDirNode() *memNode {
	return &memNode{typ: TypeDir, children: make(map[string]*memNode)}
}

// Name identifies the backend.
func (m *InMemory) Name() string { return "InMemory" }

// ReadOnly reports false: the backend is writable.
func (m *InMemory) ReadOnly() bool { return false }

// walk resolves a normalized absolute path to a node.
func (m *InMemory) walk(p string) (*memNode, error) {
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
	node, err := m.walk(dir)
	if err != nil {
		return nil, "", Err(ENOENT, op, p)
	}
	if node.typ != TypeDir {
		return nil, "", Err(ENOTDIR, op, p)
	}
	return node, base, nil
}

// Stat describes the node at path.
func (m *InMemory) Stat(p string, cb func(Stats, error)) {
	node, err := m.walk(p)
	if err != nil {
		cb(Stats{}, Err(ENOENT, "stat", p))
		return
	}
	cb(Stats{Type: node.typ, Size: int64(len(node.data))}, nil)
}

// Open delivers the file's stored contents without copying (see
// Backend.Open).
func (m *InMemory) Open(p string, cb func([]byte, error)) {
	node, err := m.walk(p)
	switch {
	case err != nil:
		cb(nil, Err(ENOENT, "open", p))
	case node.typ == TypeDir:
		cb(nil, Err(EISDIR, "open", p))
	default:
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
		node = &memNode{typ: TypeFile}
		parent.children[base] = node
	}
	node.data = append([]byte(nil), data...)
	cb(nil)
}

// Unlink removes a file.
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
	node, err := m.walk(p)
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
