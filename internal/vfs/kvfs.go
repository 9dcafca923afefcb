package vfs

import (
	"sort"
	"strings"

	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/vfs/vkernel"
)

// kvErr classifies a raw key/value store failure into an *ApiError,
// so every FlatKV failure path is classifiable by vfs.Classify:
// quota exhaustion is ENOSPC (final), anything else is EIO
// (transient). A nil error stays nil.
func kvErr(err error, op, path string) error {
	if err == nil {
		return nil
	}
	if err == browser.ErrQuotaExceeded {
		return ErrWithCause(ENOSPC, op, path, err)
	}
	return ErrWithCause(EIO, op, path, err)
}

// kvAPI is the minimal key/value contract shared by localStorage
// (synchronous strings) and IndexedDB (asynchronous objects); the
// FlatKV backend is written once against it, which is how the paper's
// "two browser-local storage mechanisms" backends share their logic.
type kvAPI interface {
	get(key string, cb func(val string, ok bool))
	put(key, val string, cb func(err error))
	del(key string, cb func())
	keys(cb func([]string))
}

// FlatKV stores a file tree in a flat key/value namespace:
//
//	"f!<path>" → file contents as a packed binary string (§5.1's
//	             Buffer string conversion serving "double-duty" for
//	             string-based storage mechanisms)
//	"d!<path>" → directory marker
//
// The root directory is implicit.
type FlatKV struct {
	kv   kvAPI
	bufs *buffer.Factory
	name string
}

const (
	fileKeyPrefix = "f!"
	dirKeyPrefix  = "d!"
)

// NewLocalStorageFS creates a backend over the window's synchronous
// localStorage, packing file bytes into strings via bufs.
func NewLocalStorageFS(ls *browser.LocalStorage, bufs *buffer.Factory) *FlatKV {
	return &FlatKV{kv: localStorageKV{ls}, bufs: bufs, name: "LocalStorage"}
}

// NewIndexedDBFS creates a backend over the window's asynchronous
// IndexedDB-like object store.
func NewIndexedDBFS(db *browser.AsyncStore, bufs *buffer.Factory) *FlatKV {
	return &FlatKV{kv: asyncStoreKV{db}, bufs: bufs, name: "IndexedDB"}
}

type localStorageKV struct{ ls *browser.LocalStorage }

func (k localStorageKV) get(key string, cb func(string, bool)) { cb(k.ls.GetItem(key)) }
func (k localStorageKV) put(key, val string, cb func(error))   { cb(k.ls.SetItem(key, val)) }
func (k localStorageKV) del(key string, cb func())             { k.ls.RemoveItem(key); cb() }
func (k localStorageKV) keys(cb func([]string)) {
	n := k.ls.Length()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, k.ls.Key(i))
	}
	cb(out)
}

type asyncStoreKV struct{ db *browser.AsyncStore }

func (k asyncStoreKV) get(key string, cb func(string, bool)) {
	k.db.Get(key, func(v []byte, ok bool) { cb(string(v), ok) })
}
func (k asyncStoreKV) put(key, val string, cb func(error)) {
	k.db.Put(key, []byte(val), cb)
}
func (k asyncStoreKV) del(key string, cb func()) {
	k.db.Delete(key, func(error) { cb() })
}
func (k asyncStoreKV) keys(cb func([]string)) { k.db.Keys(cb) }

// Name identifies the backend kind.
func (f *FlatKV) Name() string { return f.name }

// ReadOnly reports false: the backend is writable.
func (f *FlatKV) ReadOnly() bool { return false }

// statNode classifies p as file, dir, or missing.
func (f *FlatKV) statNode(p string, cb func(typ FileType, size int, exists bool)) {
	if p == "/" {
		cb(TypeDir, 0, true)
		return
	}
	f.kv.get(fileKeyPrefix+p, func(val string, ok bool) {
		if ok {
			data, err := f.unpackContents(val)
			if err != nil {
				cb(TypeFile, 0, true)
				return
			}
			cb(TypeFile, len(data), true)
			return
		}
		f.kv.get(dirKeyPrefix+p, func(_ string, ok bool) {
			cb(TypeDir, 0, ok)
		})
	})
}

func (f *FlatKV) packContents(data []byte) (string, error) {
	b := f.bufs.FromBytes(data)
	return b.ToString(buffer.Packed, 0, b.Len())
}

func (f *FlatKV) unpackContents(val string) ([]byte, error) {
	b, err := f.bufs.FromString(val, buffer.Packed)
	if err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Stat describes the node at path.
func (f *FlatKV) Stat(p string, cb func(Stats, error)) {
	f.statNode(p, func(typ FileType, size int, exists bool) {
		if !exists {
			cb(Stats{}, Err(ENOENT, "stat", p))
			return
		}
		cb(Stats{Type: typ, Size: int64(size)}, nil)
	})
}

// Open loads the file's contents, unpacking the stored string.
func (f *FlatKV) Open(p string, cb func([]byte, error)) {
	f.kv.get(fileKeyPrefix+p, func(val string, ok bool) {
		if !ok {
			f.kv.get(dirKeyPrefix+p, func(_ string, isDir bool) {
				if isDir || p == "/" {
					cb(nil, Err(EISDIR, "open", p))
					return
				}
				cb(nil, Err(ENOENT, "open", p))
			})
			return
		}
		data, err := f.unpackContents(val)
		if err != nil {
			cb(nil, ErrWithCause(EIO, "open", p, err))
			return
		}
		cb(data, nil)
	})
}

// Sync writes back the file's contents as a packed string. Quota
// exhaustion maps to ENOSPC.
func (f *FlatKV) Sync(p string, data []byte, cb func(error)) {
	dir, base := splitDir(p)
	if base == "" {
		cb(Err(EINVAL, "sync", p))
		return
	}
	f.statNode(dir, func(typ FileType, _ int, exists bool) {
		switch {
		case !exists:
			cb(Err(ENOENT, "sync", p))
			return
		case typ != TypeDir:
			cb(Err(ENOTDIR, "sync", p))
			return
		}
		f.kv.get(dirKeyPrefix+p, func(_ string, isDir bool) {
			if isDir {
				cb(Err(EISDIR, "sync", p))
				return
			}
			packed, err := f.packContents(data)
			if err != nil {
				cb(ErrWithCause(EIO, "sync", p, err))
				return
			}
			f.kv.put(fileKeyPrefix+p, packed, func(err error) {
				cb(kvErr(err, "sync", p))
			})
		})
	})
}

// Unlink removes a file.
func (f *FlatKV) Unlink(p string, cb func(error)) {
	f.kv.get(fileKeyPrefix+p, func(_ string, ok bool) {
		if !ok {
			f.kv.get(dirKeyPrefix+p, func(_ string, isDir bool) {
				if isDir {
					cb(Err(EISDIR, "unlink", p))
					return
				}
				cb(Err(ENOENT, "unlink", p))
			})
			return
		}
		f.kv.del(fileKeyPrefix+p, func() { cb(nil) })
	})
}

// childNames extracts the immediate child names of dir from the full
// key list.
func childNames(keys []string, dir string) []string {
	seen := make(map[string]bool)
	for _, key := range keys {
		var p string
		switch {
		case strings.HasPrefix(key, fileKeyPrefix):
			p = key[len(fileKeyPrefix):]
		case strings.HasPrefix(key, dirKeyPrefix):
			p = key[len(dirKeyPrefix):]
		default:
			continue
		}
		if name, ok := vkernel.ChildOf(dir, p); ok {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Rmdir removes an empty directory.
func (f *FlatKV) Rmdir(p string, cb func(error)) {
	f.statNode(p, func(typ FileType, _ int, exists bool) {
		switch {
		case !exists:
			cb(Err(ENOENT, "rmdir", p))
			return
		case typ != TypeDir:
			cb(Err(ENOTDIR, "rmdir", p))
			return
		case p == "/":
			cb(Err(EPERM, "rmdir", p))
			return
		}
		f.kv.keys(func(keys []string) {
			if len(childNames(keys, p)) > 0 {
				cb(Err(ENOTEMPTY, "rmdir", p))
				return
			}
			f.kv.del(dirKeyPrefix+p, func() { cb(nil) })
		})
	})
}

// Mkdir creates a directory marker; the parent must exist.
func (f *FlatKV) Mkdir(p string, cb func(error)) {
	f.statNode(p, func(_ FileType, _ int, exists bool) {
		if exists {
			cb(Err(EEXIST, "mkdir", p))
			return
		}
		dir, _ := splitDir(p)
		f.statNode(dir, func(typ FileType, _ int, parentExists bool) {
			switch {
			case !parentExists:
				cb(Err(ENOENT, "mkdir", p))
			case typ != TypeDir:
				cb(Err(ENOTDIR, "mkdir", p))
			default:
				f.kv.put(dirKeyPrefix+p, "", cb)
			}
		})
	})
}

// Readdir lists the immediate children of a directory.
func (f *FlatKV) Readdir(p string, cb func([]string, error)) {
	f.statNode(p, func(typ FileType, _ int, exists bool) {
		switch {
		case !exists:
			cb(nil, Err(ENOENT, "readdir", p))
			return
		case typ != TypeDir:
			cb(nil, Err(ENOTDIR, "readdir", p))
			return
		}
		f.kv.keys(func(keys []string) { cb(childNames(keys, p), nil) })
	})
}

// Rename moves a file (directory renames move the marker and all
// descendants). The target follows InMemory's rules: its parent must be
// a directory, a directory target must be empty, a file cannot replace
// a directory, and whatever the source replaces is cleared first.
func (f *FlatKV) Rename(oldPath, newPath string, cb func(error)) {
	f.kv.get(fileKeyPrefix+oldPath, func(val string, ok bool) {
		if ok {
			f.clearTarget(newPath, false, func(err error) {
				if err != nil {
					cb(err)
					return
				}
				f.kv.put(fileKeyPrefix+newPath, val, func(err error) {
					if err != nil {
						cb(kvErr(err, "rename", newPath))
						return
					}
					f.kv.del(fileKeyPrefix+oldPath, func() { cb(nil) })
				})
			})
			return
		}
		f.kv.get(dirKeyPrefix+oldPath, func(_ string, isDir bool) {
			if !isDir {
				cb(Err(ENOENT, "rename", oldPath))
				return
			}
			f.clearTarget(newPath, true, func(err error) {
				if err != nil {
					cb(err)
					return
				}
				f.moveTree(oldPath, newPath, cb)
			})
		})
	})
}

// clearTarget checks a rename's target as InMemory does and clears
// what the source replaces. Only a directory source replacing a file
// needs a delete: a file source's put overwrites a file's key, and a
// directory source rewrites an empty directory's marker.
func (f *FlatKV) clearTarget(newPath string, srcDir bool, cb func(error)) {
	dir, _ := splitDir(newPath)
	f.statNode(dir, func(typ FileType, _ int, exists bool) {
		switch {
		case !exists:
			cb(Err(ENOENT, "rename", newPath))
			return
		case typ != TypeDir:
			cb(Err(ENOTDIR, "rename", newPath))
			return
		}
		f.kv.get(dirKeyPrefix+newPath, func(_ string, isDir bool) {
			if !isDir {
				if srcDir {
					f.kv.del(fileKeyPrefix+newPath, func() { cb(nil) })
					return
				}
				cb(nil) // the put replaces a file target
				return
			}
			f.kv.keys(func(keys []string) {
				switch {
				case len(childNames(keys, newPath)) > 0:
					cb(Err(ENOTEMPTY, "rename", newPath))
				case !srcDir:
					cb(Err(EISDIR, "rename", newPath))
				default:
					cb(nil)
				}
			})
		})
	})
}

// moveTree moves the directory marker at oldPath and every descendant
// key to newPath.
func (f *FlatKV) moveTree(oldPath, newPath string, cb func(error)) {
	f.kv.keys(func(keys []string) {
		moves := [][2]string{{dirKeyPrefix + oldPath, dirKeyPrefix + newPath}}
		for _, key := range keys {
			for _, prefix := range []string{fileKeyPrefix, dirKeyPrefix} {
				if strings.HasPrefix(key, prefix+oldPath+"/") {
					moves = append(moves, [2]string{key, prefix + newPath + key[len(prefix+oldPath):]})
				}
			}
		}
		var step func(i int)
		step = func(i int) {
			if i == len(moves) {
				cb(nil)
				return
			}
			from, to := moves[i][0], moves[i][1]
			f.kv.get(from, func(val string, ok bool) {
				if !ok {
					step(i + 1)
					return
				}
				f.kv.put(to, val, func(err error) {
					if err != nil {
						cb(kvErr(err, "rename", newPath))
						return
					}
					f.kv.del(from, func() { step(i + 1) })
				})
			})
		}
		step(0)
	})
}
