// Package vfs implements the Doppio file system (§5.1): a Node
// JS-compatible `fs` front end over a small backend API, letting one
// set of file system semantics run over many browser persistent
// storage mechanisms.
//
// Like the original, the front end only guarantees an asynchronous
// interface — callbacks are delivered on the browser event loop —
// because many storage mechanisms have no synchronous API. Language
// implementations combine it with the core package's
// suspend-and-resume to expose synchronous file APIs to programs
// (§4.2, §6.3).
//
// Backends implement the nine-method API of §5.1 ("Backend API"):
// rename, stat, open, unlink, rmdir, mkdir, readdir, close, sync —
// close and sync appear here as the kernel's sync-on-close file
// objects and the backend Sync method. The kernel standardizes
// arguments, resolves relative paths, raises the appropriate errno
// errors, and supplies the shared whole-file-in-memory file
// implementation, so each backend stays small.
package vfs

import (
	"errors"
	"fmt"
)

// Errno is a Unix-style error number.
type Errno string

// The errno values used by the file system, mirroring Node's fs errors.
const (
	ENOENT    Errno = "ENOENT"
	EEXIST    Errno = "EEXIST"
	EISDIR    Errno = "EISDIR"
	ENOTDIR   Errno = "ENOTDIR"
	ENOTEMPTY Errno = "ENOTEMPTY"
	EBADF     Errno = "EBADF"
	EINVAL    Errno = "EINVAL"
	EPERM     Errno = "EPERM"
	EROFS     Errno = "EROFS"
	ENOSPC    Errno = "ENOSPC"
	EXDEV     Errno = "EXDEV"
	ENOTSUP   Errno = "ENOTSUP"
	EIO       Errno = "EIO"
	EAGAIN    Errno = "EAGAIN"
	ETIMEDOUT Errno = "ETIMEDOUT"
	EPIPE     Errno = "EPIPE"
	ECHILD    Errno = "ECHILD"
	EINTR     Errno = "EINTR"
	ESRCH     Errno = "ESRCH"

	// The connection errnos carried by the socket layer (§5.3): a
	// refused dial, a reset transport, and a peer that violated the
	// mux framing protocol. They live here so the gateway's stream
	// errors classify through the same Classify/Transient machinery
	// as VFS errnos — shed and reset streams retry, protocol
	// violations and refused dials are final.
	ECONNREFUSED Errno = "ECONNREFUSED"
	ECONNRESET   Errno = "ECONNRESET"
	EPROTO       Errno = "EPROTO"
)

// Transient reports whether the errno describes a failure that may
// succeed if the operation is simply tried again — the classification
// the RetryBackend consumes instead of string-matching error text.
// EIO is transient here by design: in this runtime it is the errno the
// remote backends (and the fault injector) surface for flaky-transport
// failures, while genuine namespace errors keep their specific errnos
// (ENOENT, EEXIST, ...), all of which are final.
// EINTR is transient: the interrupted call did not happen (or happened
// partially) and Unix semantics are to retry it, exactly the decision
// the retry layer encodes. The other process errnos are final: a
// broken pipe stays broken (EPIPE), a child that does not exist will
// not appear by retrying (ECHILD), and neither will a dead pid (ESRCH).
// Of the connection errnos, only ECONNRESET is transient: the peer was
// there and the link died, so redialing is worthwhile. A refused dial
// means nothing is listening, and a protocol violation will repeat
// itself byte-for-byte — both final. A shed stream surfaces as EAGAIN,
// already transient, which is exactly the invitation to back off and
// retry that shedding intends.
func (e Errno) Transient() bool {
	switch e {
	case EIO, EAGAIN, ETIMEDOUT, EINTR, ECONNRESET:
		return true
	}
	return false
}

// Classify extracts the errno from an error. The second result
// reports whether the error carried one: any *ApiError anywhere in the
// Unwrap chain classifies; a nil or foreign error does not. Retry
// decisions go through Classify so that backends that forget to wrap a
// failure degrade to "unclassified" (treated as final) instead of
// being string-matched.
func Classify(err error) (Errno, bool) {
	var ae *ApiError
	if errors.As(err, &ae) {
		return ae.Errno, true
	}
	// Any other error carrying an errno — the socket layer's DialError
	// and StreamError implement this — classifies through the same
	// switchboard without importing sockets here: a shed stream
	// (EAGAIN) or a reset transport (ECONNRESET) is transient, a
	// refused dial or protocol violation final.
	var ec interface{ Errno() Errno }
	if errors.As(err, &ec) {
		return ec.Errno(), true
	}
	return "", false
}

// IsTransient reports whether err classifies to a transient errno.
func IsTransient(err error) bool {
	e, ok := Classify(err)
	return ok && e.Transient()
}

// ApiError is the error type returned by every file system operation,
// carrying the errno, the operation, and the path.
type ApiError struct {
	Errno Errno
	Op    string
	Path  string
	Cause error
}

func (e *ApiError) Error() string {
	msg := fmt.Sprintf("%s: %s '%s'", e.Errno, errnoText(e.Errno), e.Path)
	if e.Op != "" {
		msg = e.Op + ": " + msg
	}
	return msg
}

// Unwrap exposes the underlying cause, if any.
func (e *ApiError) Unwrap() error { return e.Cause }

func errnoText(e Errno) string {
	switch e {
	case ENOENT:
		return "no such file or directory"
	case EEXIST:
		return "file already exists"
	case EISDIR:
		return "illegal operation on a directory"
	case ENOTDIR:
		return "not a directory"
	case ENOTEMPTY:
		return "directory not empty"
	case EBADF:
		return "bad file descriptor"
	case EINVAL:
		return "invalid argument"
	case EPERM:
		return "operation not permitted"
	case EROFS:
		return "read-only file system"
	case ENOSPC:
		return "no space left on device"
	case EXDEV:
		return "cross-device link"
	case ENOTSUP:
		return "operation not supported"
	case EIO:
		return "input/output error"
	case EAGAIN:
		return "resource temporarily unavailable"
	case ETIMEDOUT:
		return "operation timed out"
	case EPIPE:
		return "broken pipe"
	case ECHILD:
		return "no child processes"
	case EINTR:
		return "interrupted system call"
	case ESRCH:
		return "no such process"
	case ECONNREFUSED:
		return "connection refused"
	case ECONNRESET:
		return "connection reset by peer"
	case EPROTO:
		return "protocol error"
	}
	return "unknown error"
}

// Err builds an ApiError.
func Err(errno Errno, op, path string) *ApiError {
	return &ApiError{Errno: errno, Op: op, Path: path}
}

// ErrWithCause builds an ApiError wrapping an underlying error.
func ErrWithCause(errno Errno, op, path string, cause error) *ApiError {
	return &ApiError{Errno: errno, Op: op, Path: path, Cause: cause}
}

// IsErrno reports whether err classifies to the given errno.
func IsErrno(err error, errno Errno) bool {
	e, ok := Classify(err)
	return ok && e == errno
}
