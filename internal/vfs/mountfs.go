package vfs

import (
	"sort"
	"strings"

	"doppio/internal/vfs/vkernel"
)

// MountFS is the MountableFileSystem of §5.1: it composes a root
// backend with backends mounted at directory prefixes, Unix-style,
// routing every operation through the standard backend API — so it is
// "compatible with any new file systems that are implemented in the
// future". All prefix matching and path translation goes through the
// shared resolution kernel (vkernel), the same helpers the FS front
// end and the backends use.
type MountFS struct {
	root   Backend
	mounts []mountPoint // sorted longest prefix first

	// onChange observes Mount with the affected prefix; a Cached
	// wrapping this MountFS registers here so routing changes
	// invalidate its cached state.
	onChange func(path string)
}

type mountPoint struct {
	at string // normalized absolute path, not "/"
	b  Backend
}

// NewMountFS creates a mountable file system with root as the backend
// for unmounted paths.
func NewMountFS(root Backend) *MountFS {
	return &MountFS{root: root}
}

// Mount attaches b at path (which is then shadowed entirely).
func (m *MountFS) Mount(path string, b Backend) {
	path = vkernel.Clean(strings.TrimSuffix(path, "/"))
	m.mounts = append(m.mounts, mountPoint{at: path, b: b})
	sort.Slice(m.mounts, func(i, j int) bool { return len(m.mounts[i].at) > len(m.mounts[j].at) })
	m.notifyChange(path)
}

func (m *MountFS) notifyChange(path string) {
	if m.onChange != nil {
		m.onChange(path)
	}
}

// route finds the backend owning p and translates p into that
// backend's namespace.
func (m *MountFS) route(p string) (Backend, string) {
	for _, mp := range m.mounts {
		if vkernel.Under(p, mp.at) {
			return mp.b, vkernel.Rel(p, mp.at)
		}
	}
	return m.root, p
}

// Name identifies the backend.
func (m *MountFS) Name() string { return "MountableFileSystem" }

// ReadOnly reports false; individual sub-backends enforce their own
// read-only state on mutation.
func (m *MountFS) ReadOnly() bool { return false }

// Stat describes the node at path. Directories that exist only as
// ancestors of a mount point stat as directories.
func (m *MountFS) Stat(p string, cb func(Stats, error)) {
	b, rel := m.route(p)
	b.Stat(rel, func(st Stats, err error) {
		if err != nil && m.coversMountPrefix(p) {
			cb(Stats{Type: TypeDir}, nil)
			return
		}
		cb(st, err)
	})
}

// coversMountPrefix reports whether some mount point lives under p.
func (m *MountFS) coversMountPrefix(p string) bool {
	for _, mp := range m.mounts {
		if vkernel.Covers(p, mp.at) {
			return true
		}
	}
	return false
}

// Open loads a file through the owning backend.
func (m *MountFS) Open(p string, cb func([]byte, error)) {
	b, rel := m.route(p)
	b.Open(rel, cb)
}

// Sync writes a file through the owning backend.
func (m *MountFS) Sync(p string, data []byte, cb func(error)) {
	b, rel := m.route(p)
	b.Sync(rel, data, cb)
}

// Unlink removes a file through the owning backend.
func (m *MountFS) Unlink(p string, cb func(error)) {
	b, rel := m.route(p)
	b.Unlink(rel, cb)
}

// Rmdir removes a directory; mount points cannot be removed.
func (m *MountFS) Rmdir(p string, cb func(error)) {
	if m.isMountPoint(p) {
		cb(Err(EPERM, "rmdir", p))
		return
	}
	b, rel := m.route(p)
	b.Rmdir(rel, cb)
}

// Mkdir creates a directory through the owning backend.
func (m *MountFS) Mkdir(p string, cb func(error)) {
	b, rel := m.route(p)
	b.Mkdir(rel, cb)
}

func (m *MountFS) isMountPoint(p string) bool {
	for _, mp := range m.mounts {
		if mp.at == p {
			return true
		}
	}
	return false
}

// Readdir lists a directory, merging in any mount points that live
// directly beneath it.
func (m *MountFS) Readdir(p string, cb func([]string, error)) {
	b, rel := m.route(p)
	b.Readdir(rel, func(names []string, err error) {
		// Mount points under p must appear even if the underlying
		// backend has no such entry (or the dir only exists because
		// of the mount).
		extra := make(map[string]bool)
		for _, mp := range m.mounts {
			if name, ok := vkernel.ChildOf(p, mp.at); ok {
				extra[name] = true
			}
		}
		if err != nil {
			if len(extra) == 0 {
				cb(nil, err)
				return
			}
			names = nil // dir exists only via mounts
		}
		seen := make(map[string]bool, len(names))
		for _, n := range names {
			seen[n] = true
		}
		for n := range extra {
			if !seen[n] {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		cb(names, nil)
	})
}

// Rename moves a node; cross-backend renames report EXDEV, exactly as
// Unix rename does across devices (callers copy + delete instead).
func (m *MountFS) Rename(oldPath, newPath string, cb func(error)) {
	ob, orel := m.route(oldPath)
	nb, nrel := m.route(newPath)
	if ob != nb {
		cb(Err(EXDEV, "rename", oldPath))
		return
	}
	ob.Rename(orel, nrel, cb)
}
