// Package vkernel is the shared path-resolution kernel of the Doppio
// file system (§5.1). It owns the one canonical notion of a "resolved
// path": a normalized, absolute, slash-separated string with no "."
// or ".." components and no trailing slash (except the root "/").
//
// Every layer of the VFS stack — the FS front end, the mountable
// composition, and the individual backends — resolves, routes, and
// prefix-matches through these helpers, so normalization and
// prefix-matching behave identically everywhere instead of being
// re-implemented per layer. The package has no dependencies; both
// the vpath Node-path emulation and the vfs kernel build on it.
package vkernel

import (
	"path"
	"strings"
)

// Sep is the path separator.
const Sep = "/"

// IsAbs reports whether p is an absolute path.
func IsAbs(p string) bool { return strings.HasPrefix(p, Sep) }

// Normalize cleans a path: collapses duplicate separators, resolves
// "." and "..", and strips trailing slashes (except for the root).
// Relative paths stay relative (leading ".." components survive); an
// empty path normalizes to ".". These are path.Clean's rules.
func Normalize(p string) string { return path.Clean(p) }

// Clean normalizes p as an absolute path: relative input is rooted at
// "/" and ".." never escapes the root.
func Clean(p string) string {
	if !IsAbs(p) {
		p = Sep + p
	}
	return Normalize(p)
}

// Resolve resolves p against the working directory cwd, producing a
// canonical absolute path. Absolute p ignores cwd.
func Resolve(cwd, p string) string {
	if IsAbs(p) {
		return Normalize(p)
	}
	if cwd == "" {
		cwd = Sep
	}
	return Clean(cwd + Sep + p)
}

// SplitDir splits a resolved path into its parent directory and base
// name. The root splits into ("/", "").
func SplitDir(p string) (dir, base string) {
	if p == Sep {
		return Sep, ""
	}
	i := strings.LastIndexByte(p, '/')
	if i < 0 {
		return Sep, p
	}
	dir = p[:i]
	if dir == "" {
		dir = Sep
	}
	return dir, p[i+1:]
}

// DirPrefix returns the prefix that children of dir start with:
// dir + "/", or "/" for the root.
func DirPrefix(dir string) string {
	if dir == Sep {
		return Sep
	}
	return dir + Sep
}

// Under reports whether p equals prefix or lives inside it. Both must
// be resolved paths.
func Under(p, prefix string) bool {
	if p == prefix || prefix == Sep {
		return true
	}
	return strings.HasPrefix(p, prefix+Sep)
}

// Rel translates p into the namespace rooted at prefix: Rel(p, p) is
// "/", and Rel("/mnt/a/b", "/mnt") is "/a/b". p must be Under prefix.
func Rel(p, prefix string) string {
	if p == prefix || prefix == Sep && p == Sep {
		return Sep
	}
	if prefix == Sep {
		return p
	}
	return p[len(prefix):]
}

// Covers reports whether sub lives strictly inside p — p is a proper
// ancestor directory of sub.
func Covers(p, sub string) bool {
	return sub != p && Under(sub, p)
}

// ChildOf returns the name of the immediate child of dir that p lives
// in (or is): ChildOf("/a", "/a/b/c") is ("b", true). It reports false
// when p is dir itself or outside dir.
func ChildOf(dir, p string) (string, bool) {
	if !Covers(dir, p) {
		return "", false
	}
	rest := p[len(DirPrefix(dir)):]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "", false
	}
	return rest, true
}
