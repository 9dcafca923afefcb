package vfs

import (
	"fmt"
	"testing"
)

func TestProcessErrnoClassification(t *testing.T) {
	// The process-layer errnos: EINTR is retryable (the interrupted
	// call did not take effect), the rest are final facts about the
	// world that retrying cannot change.
	for errno, wantTransient := range map[Errno]bool{
		EPIPE:  false,
		ECHILD: false,
		ESRCH:  false,
		EINTR:  true,
	} {
		if got := errno.Transient(); got != wantTransient {
			t.Errorf("%s.Transient() = %v, want %v", errno, got, wantTransient)
		}
		err := Err(errno, "read", "pipe:0")
		if got, ok := Classify(err); !ok || got != errno {
			t.Errorf("Classify(%s) = %v, %v", errno, got, ok)
		}
		if errnoText(errno) == "unknown error" {
			t.Errorf("%s has no errnoText entry", errno)
		}
	}
	if IsTransient(Err(EPIPE, "write", "pipe:1")) {
		t.Error("EPIPE classified transient; writers would spin on a closed pipe")
	}
	// Classify finds the errno through wrapping; a plain error has none.
	if errno, ok := Classify(fmt.Errorf("read /f: %w", Err(ENOENT, "stat", "/f"))); !ok || errno != ENOENT {
		t.Errorf("Classify(wrapped ApiError) = %v, %v", errno, ok)
	}
	if _, ok := Classify(fmt.Errorf("plain")); ok {
		t.Error("plain error classified")
	}
}
