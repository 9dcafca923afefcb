package vfs

import "doppio/internal/vfs/vkernel"

// FileType distinguishes the node kinds the file system models.
type FileType int

const (
	// TypeFile is a regular file.
	TypeFile FileType = iota
	// TypeDir is a directory.
	TypeDir
)

// Stats describes a file, in the style of Node's fs.Stats.
type Stats struct {
	Type FileType
	Size int64
}

// IsFile reports whether the node is a regular file.
func (s Stats) IsFile() bool { return s.Type == TypeFile }

// IsDirectory reports whether the node is a directory.
func (s Stats) IsDirectory() bool { return s.Type == TypeDir }

// Backend is the §5.1 backend API. A backend stores whole files: Open
// loads one and Sync writes one back, and a Sync's callback runs once
// the backend holds the data, since no decorator defers it.
//
// All methods take mount-relative, normalized, absolute paths ("/" is
// the backend root, which always exists and is a directory). Backends
// may invoke callbacks synchronously or on a later event-loop turn.
// The front end posts the answer to its Node-style callers either way;
// inside FS.Blocking it delivers an inline answer inline.
type Backend interface {
	// Name identifies the backend kind (e.g. "InMemory", "LocalStorage").
	Name() string
	// ReadOnly reports whether mutation is forbidden (EROFS).
	ReadOnly() bool
	// Stat describes the node at path.
	Stat(path string, cb func(Stats, error))
	// Open loads the entire contents of the file at path. The slice
	// is a read-only value: it may alias backend storage or a cache
	// page, so callers must not modify it (copy first to mutate).
	Open(path string, cb func([]byte, error))
	// Sync writes back the entire contents of the file at path,
	// creating it if necessary. The caller keeps data: a backend that
	// retains the contents stores its own copy, which it then never
	// modifies in place, so the slices Open delivers stay valid.
	Sync(path string, data []byte, cb func(error))
	// Unlink removes the file at path.
	Unlink(path string, cb func(error))
	// Rmdir removes the empty directory at path.
	Rmdir(path string, cb func(error))
	// Mkdir creates a directory at path (parent must exist).
	Mkdir(path string, cb func(error))
	// Readdir lists the names in the directory at path. The slice
	// belongs to the caller, which may reorder and extend it (MountFS
	// sorts it and appends its mount points), so a backend that keeps
	// a listing hands out a copy.
	Readdir(path string, cb func([]string, error))
	// Rename moves old to new within the backend. FS.Rename answers
	// a rename onto itself and a directory moved into its own subtree
	// before any backend sees them.
	Rename(oldPath, newPath string, cb func(error))
}

// splitDir returns the parent directory and base name of a normalized
// absolute path. It is the kernel's vkernel.SplitDir, re-exported for
// the backends in this package.
func splitDir(p string) (dir, base string) { return vkernel.SplitDir(p) }
