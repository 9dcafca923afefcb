package vfs

import (
	"sync"
	"testing"

	"doppio/internal/vfs/retry"
)

// scripted wraps a backend and fails chosen calls on a per-op script:
// each entry either drops the request before it reaches the backend
// (pre-commit) or lets it commit and then fails the reply (post-commit,
// the lost-acknowledgement fault). An empty errno passes through.
type scripted struct {
	Backend
	mu   sync.Mutex
	plan map[string][]scriptedFault // op → successive outcomes
	// calls counts backend calls per op, committed or not.
	calls map[string]int
}

type scriptedFault struct {
	errno Errno
	post  bool
}

func newScripted(b Backend) *scripted {
	return &scripted{Backend: b, plan: map[string][]scriptedFault{}, calls: map[string]int{}}
}

func (s *scripted) fail(op string, errno Errno, post bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plan[op] = append(s.plan[op], scriptedFault{errno, post})
}

func (s *scripted) next(op string) scriptedFault {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls[op]++
	q := s.plan[op]
	if len(q) == 0 {
		return scriptedFault{}
	}
	f := q[0]
	s.plan[op] = q[1:]
	return f
}

func (s *scripted) count(op string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[op]
}

func (s *scripted) Stat(p string, cb func(Stats, error)) {
	f := s.next("stat")
	if f.errno != "" && !f.post {
		cb(Stats{}, Err(f.errno, "stat", p))
		return
	}
	s.Backend.Stat(p, func(st Stats, err error) {
		if f.errno != "" {
			cb(Stats{}, Err(f.errno, "stat", p))
			return
		}
		cb(st, err)
	})
}

func (s *scripted) Mkdir(p string, cb func(error)) {
	f := s.next("mkdir")
	if f.errno != "" && !f.post {
		cb(Err(f.errno, "mkdir", p))
		return
	}
	s.Backend.Mkdir(p, func(err error) {
		if f.errno != "" {
			cb(Err(f.errno, "mkdir", p))
			return
		}
		cb(err)
	})
}

func (s *scripted) Unlink(p string, cb func(error)) {
	f := s.next("unlink")
	if f.errno != "" && !f.post {
		cb(Err(f.errno, "unlink", p))
		return
	}
	s.Backend.Unlink(p, func(err error) {
		if f.errno != "" {
			cb(Err(f.errno, "unlink", p))
			return
		}
		cb(err)
	})
}

func (s *scripted) Rename(oldPath, newPath string, cb func(error)) {
	f := s.next("rename")
	if f.errno != "" && !f.post {
		cb(Err(f.errno, "rename", oldPath))
		return
	}
	s.Backend.Rename(oldPath, newPath, func(err error) {
		if f.errno != "" {
			cb(Err(f.errno, "rename", oldPath))
			return
		}
		cb(err)
	})
}

func (s *scripted) Sync(p string, data []byte, cb func(error)) {
	f := s.next("sync")
	if f.errno != "" && !f.post {
		cb(Err(f.errno, "sync", p))
		return
	}
	s.Backend.Sync(p, data, func(err error) {
		if f.errno != "" {
			cb(Err(f.errno, "sync", p))
			return
		}
		cb(err)
	})
}

// fastRetry is a retry policy with no waits, so the inline (nil-loop)
// scheduling path completes synchronously in tests.
func fastRetry(attempts int) retry.Policy {
	return retry.Policy{MaxAttempts: attempts}
}

func retryOver(s *scripted, pol retry.Policy) (Backend, RetryStatser) {
	b := NewRetry(s, RetryOptions{Policy: pol})
	rs, ok := Find[RetryStatser](b)
	if !ok {
		panic("NewRetry lost RetryStatser")
	}
	return b, rs
}

func TestRetryAbsorbsTransientErrors(t *testing.T) {
	s := newScripted(NewInMemory())
	s.Backend.Sync("/x", []byte("data"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	s.fail("stat", EIO, false)
	s.fail("stat", EIO, false)
	b, rs := retryOver(s, fastRetry(4))

	var got Stats
	var gotErr error
	b.Stat("/x", func(st Stats, err error) { got, gotErr = st, err })
	if gotErr != nil {
		t.Fatalf("stat after two transient failures: %v", gotErr)
	}
	if got.Size != 4 {
		t.Fatalf("stat size = %d, want 4", got.Size)
	}
	st := rs.RetryStats()
	if st.Ops != 1 || st.Attempts != 3 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want Ops 1 Attempts 3 Retries 2", st)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	s := newScripted(NewInMemory())
	for i := 0; i < 10; i++ {
		s.fail("stat", EIO, false)
	}
	b, rs := retryOver(s, fastRetry(3))

	var gotErr error
	b.Stat("/x", func(_ Stats, err error) { gotErr = err })
	if !IsErrno(gotErr, EIO) {
		t.Fatalf("err = %v, want EIO", gotErr)
	}
	if st := rs.RetryStats(); st.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", st.Attempts)
	}
}

func TestRetryPassesFinalErrnoThrough(t *testing.T) {
	s := newScripted(NewInMemory())
	b, rs := retryOver(s, fastRetry(5))

	var gotErr error
	b.Stat("/missing", func(_ Stats, err error) { gotErr = err })
	if !IsErrno(gotErr, ENOENT) {
		t.Fatalf("err = %v, want ENOENT", gotErr)
	}
	if st := rs.RetryStats(); st.Attempts != 1 || st.Retries != 0 {
		t.Fatalf("final errno must not be retried: %+v", st)
	}
}

// TestRetryLostAckMkdir is the lost-acknowledgement case: the mkdir
// commits, the reply is lost, and the decorator must prove the commit
// via a stat probe instead of re-issuing the mkdir (which would surface
// a spurious EEXIST).
func TestRetryLostAckMkdir(t *testing.T) {
	s := newScripted(NewInMemory())
	s.fail("mkdir", EIO, true) // post-commit
	b, rs := retryOver(s, fastRetry(4))

	var gotErr error
	b.Mkdir("/d", func(err error) { gotErr = err })
	if gotErr != nil {
		t.Fatalf("mkdir: %v", gotErr)
	}
	if n := s.count("mkdir"); n != 1 {
		t.Fatalf("backend saw %d mkdir calls, want exactly 1 (no duplicate)", n)
	}
	st := rs.RetryStats()
	if st.Recovered != 1 || st.VerifyProbes < 1 {
		t.Fatalf("stats = %+v, want Recovered 1 and a verify probe", st)
	}
}

// TestRetryLostAckPreCommitRetries is the complementary case: the
// request was lost *before* the commit, the probe finds nothing, and
// the mutation is legitimately re-issued.
func TestRetryLostAckPreCommitRetries(t *testing.T) {
	s := newScripted(NewInMemory())
	s.fail("mkdir", EIO, false) // pre-commit
	b, rs := retryOver(s, fastRetry(4))

	var gotErr error
	b.Mkdir("/d", func(err error) { gotErr = err })
	if gotErr != nil {
		t.Fatalf("mkdir: %v", gotErr)
	}
	if n := s.count("mkdir"); n != 2 {
		t.Fatalf("backend saw %d mkdir calls, want 2 (probe found nothing, retry)", n)
	}
	st := rs.RetryStats()
	if st.Recovered != 0 || st.Retries != 1 {
		t.Fatalf("stats = %+v, want Retries 1 and no recovery", st)
	}
}

func TestRetryLostAckUnlinkAndRename(t *testing.T) {
	s := newScripted(NewInMemory())
	s.Backend.Sync("/a", []byte("x"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	s.Backend.Sync("/b", []byte("y"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	s.fail("rename", ETIMEDOUT, true)
	s.fail("unlink", EIO, true)
	b, rs := retryOver(s, fastRetry(4))

	var gotErr error
	b.Rename("/a", "/a2", func(err error) { gotErr = err })
	if gotErr != nil {
		t.Fatalf("rename: %v", gotErr)
	}
	b.Unlink("/b", func(err error) { gotErr = err })
	if gotErr != nil {
		t.Fatalf("unlink: %v", gotErr)
	}
	if n := s.count("rename"); n != 1 {
		t.Fatalf("backend saw %d renames, want 1", n)
	}
	if n := s.count("unlink"); n != 1 {
		t.Fatalf("backend saw %d unlinks, want 1", n)
	}
	if st := rs.RetryStats(); st.Recovered != 2 {
		t.Fatalf("stats = %+v, want Recovered 2", st)
	}
}

// TestRetryVerifyProbeSurvivesTransientFailures: the probe itself can
// fail transiently; the decorator retries the probe before concluding.
func TestRetryVerifyProbeSurvivesTransientFailures(t *testing.T) {
	s := newScripted(NewInMemory())
	s.fail("mkdir", EIO, true) // committed, ack lost
	s.fail("stat", EIO, false) // first probe lost too
	b, rs := retryOver(s, fastRetry(4))

	var gotErr error
	b.Mkdir("/d", func(err error) { gotErr = err })
	if gotErr != nil {
		t.Fatalf("mkdir: %v", gotErr)
	}
	if n := s.count("mkdir"); n != 1 {
		t.Fatalf("backend saw %d mkdir calls, want 1", n)
	}
	if st := rs.RetryStats(); st.VerifyProbes < 2 || st.Recovered != 1 {
		t.Fatalf("stats = %+v, want ≥2 probes and Recovered 1", st)
	}
}

func TestRetryShortReadNeverLeaksPartialData(t *testing.T) {
	s := newScripted(NewInMemory())
	s.Backend.Sync("/f", []byte("full contents"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	// Exhaust all attempts so the final outcome is the transient error;
	// the partial data a faulty attempt delivered must not escape.
	s.fail("stat", EIO, false)
	s.fail("stat", EIO, false)
	b, _ := retryOver(s, fastRetry(2))

	var gotErr error
	var gotSt Stats
	b.Stat("/f", func(st Stats, err error) { gotSt, gotErr = st, err })
	if !IsErrno(gotErr, EIO) {
		t.Fatalf("err = %v, want EIO", gotErr)
	}
	if gotSt != (Stats{}) {
		t.Fatalf("failed stat leaked data: %+v", gotSt)
	}
}

// TestRetryPreservesCapabilities: wrapping a backend with the optional
// link capability must preserve it.
func TestRetryPreservesCapabilities(t *testing.T) {
	full := NewInMemory() // has Symlink/Readlink
	wrapped := NewRetry(full, RetryOptions{})
	if _, ok := wrapped.(LinkBackend); !ok {
		t.Error("retry wrapper dropped LinkBackend")
	}
	if _, ok := wrapped.(RetryStatser); !ok {
		t.Error("retry wrapper has no RetryStats")
	}
	if u, ok := wrapped.(Unwrapper); !ok || u.Unwrap() != Backend(full) {
		t.Error("retry wrapper does not unwrap to its base")
	}
}
