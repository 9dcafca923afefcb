package vfs

import (
	"time"

	"doppio/internal/vfs/vkernel"
)

// FileType distinguishes the node kinds the file system models.
type FileType int

const (
	// TypeFile is a regular file.
	TypeFile FileType = iota
	// TypeDir is a directory.
	TypeDir
	// TypeSymlink is a symbolic link (optional backend feature).
	TypeSymlink
)

// Stats describes a file, in the style of Node's fs.Stats.
type Stats struct {
	Type  FileType
	Size  int64
	Mode  int
	Mtime time.Time
	Atime time.Time
	Ctime time.Time
}

// IsFile reports whether the node is a regular file.
func (s Stats) IsFile() bool { return s.Type == TypeFile }

// IsDirectory reports whether the node is a directory.
func (s Stats) IsDirectory() bool { return s.Type == TypeDir }

// IsSymbolicLink reports whether the node is a symlink.
func (s Stats) IsSymbolicLink() bool { return s.Type == TypeSymlink }

// Flag is a parsed file-open mode.
type Flag int

const (
	// FlagRead permits reads.
	FlagRead Flag = 1 << iota
	// FlagWrite permits writes.
	FlagWrite
	// FlagCreate creates the file if missing.
	FlagCreate
	// FlagTruncate empties the file on open.
	FlagTruncate
	// FlagAppend positions every write at the end.
	FlagAppend
	// FlagExclusive fails if the file already exists.
	FlagExclusive
)

// ParseFlag parses a Node fs flag string ("r", "r+", "w", "wx", "w+",
// "a", "ax", "a+", ...) into a Flag. Unknown strings yield EINVAL.
func ParseFlag(s string) (Flag, error) {
	switch s {
	case "r":
		return FlagRead, nil
	case "r+", "rs+":
		return FlagRead | FlagWrite, nil
	case "w":
		return FlagWrite | FlagCreate | FlagTruncate, nil
	case "wx", "xw":
		return FlagWrite | FlagCreate | FlagTruncate | FlagExclusive, nil
	case "w+":
		return FlagRead | FlagWrite | FlagCreate | FlagTruncate, nil
	case "wx+", "xw+":
		return FlagRead | FlagWrite | FlagCreate | FlagTruncate | FlagExclusive, nil
	case "a":
		return FlagWrite | FlagCreate | FlagAppend, nil
	case "ax", "xa":
		return FlagWrite | FlagCreate | FlagAppend | FlagExclusive, nil
	case "a+":
		return FlagRead | FlagWrite | FlagCreate | FlagAppend, nil
	case "ax+", "xa+":
		return FlagRead | FlagWrite | FlagCreate | FlagAppend | FlagExclusive, nil
	}
	return 0, Err(EINVAL, "open", s)
}

// Has reports whether f includes all bits of g.
func (f Flag) Has(g Flag) bool { return f&g == g }

// Backend is the §5.1 backend API. A backend stores whole files; the
// kernel's file objects provide positional read/write over an
// in-memory copy and write back via Sync on close (NFS-style
// sync-on-close semantics). That is the only write buffering in the
// stack: a Sync's callback runs once the backend holds the data, and
// no decorator defers it.
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
	// Rename moves old to new within the backend.
	Rename(oldPath, newPath string, cb func(error))
}

// LinkBackend is the optional link support of §5.1 ("A backend can
// optionally also support chmod, chown, utimes, link, symlink, and
// readlink").
type LinkBackend interface {
	Symlink(target, path string, cb func(error))
	Readlink(path string, cb func(string, error))
}

// splitDir returns the parent directory and base name of a normalized
// absolute path. It is the kernel's vkernel.SplitDir, re-exported for
// the backends in this package.
func splitDir(p string) (dir, base string) { return vkernel.SplitDir(p) }
