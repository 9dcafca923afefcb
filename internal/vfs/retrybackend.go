package vfs

import (
	"sync"
	"time"

	"doppio/internal/core"
	"doppio/internal/eventloop"
	"doppio/internal/telemetry"
	"doppio/internal/vfs/retry"
)

// RetryOptions configures NewRetry.
type RetryOptions struct {
	// Policy shapes the retry loop. A zero Policy gets retry.Defaults().
	Policy retry.Policy
	// Loop, when non-nil, schedules backoff waits as external events so
	// the event loop stays alive and retries are delivered on the loop
	// thread (required for backends that are not goroutine-safe). With
	// a nil Loop, retries happen immediately with no wait.
	Loop *eventloop.Loop
	// Hub, when non-nil, receives attempt/backoff counters under the
	// subsystem "vfsretry.<Name>".
	Hub *telemetry.Hub
}

// RetryStats is a point-in-time snapshot of a RetryBackend's counters.
type RetryStats struct {
	Ops          int64 // operations entering the decorator
	Attempts     int64 // backend calls issued (≥ Ops)
	Retries      int64 // re-issued calls after a transient failure
	Recovered    int64 // lost-ack mutations proven committed by a verify probe
	VerifyProbes int64 // verification reads issued for lost-ack candidates
	BackoffNanos int64 // total time spent waiting between attempts
}

// RetryStatser is implemented by every backend returned from NewRetry.
type RetryStatser interface {
	RetryStats() RetryStats
}

// NewRetry wraps a backend in the policy-driven retry decorator — the
// layer that lets the runtime degrade gracefully when the network
// under a remote backend flakes instead of killing the run:
//
//   - Transient failures (vfs.Classify → Errno.Transient: EIO, EAGAIN,
//     ETIMEDOUT) are retried with exponential backoff and jitter, up
//     to the policy's attempt bound; the last attempt's error is the
//     operation's.
//   - Non-idempotent mutations (mkdir, unlink, rmdir, rename, symlink)
//     are never blindly re-issued after a transient failure: the reply
//     may have been lost *after* the backend committed. Before the
//     first attempt the decorator takes a pre-flight existence probe —
//     the anchor that makes post-failure probes unambiguous ("the path
//     is gone" only proves our unlink committed if the path existed to
//     begin with; without the anchor, a request lost on the way out
//     would masquerade as a committed op and swallow the backend's
//     ENOENT). When a transient failure follows, a verify probe checks
//     whether the mutation took effect (e.g. the directory now exists)
//     and reports success without a duplicate attempt — the
//     lost-acknowledgement rule that keeps an op-for-op replay under
//     injected faults bit-identical to a fault-free run. When the
//     pre-state rules out a commit (unlinking a path that was already
//     absent, mkdir over an existing node), the mutation is retried
//     directly: the backend's final errno is the correct answer. Reads
//     and whole-file Sync are idempotent and always retried directly.
//
// The wrapper preserves the backend's optional link capability,
// exposes RetryStats, and reports into hub under "vfsretry.<Name>".
func NewRetry(b Backend, o RetryOptions) Backend {
	if b == nil {
		return nil
	}
	pol := o.Policy
	if pol == (retry.Policy{}) {
		pol = retry.Defaults()
	}
	r := &retrying{
		b:    b,
		pol:  pol,
		rnd:  pol.Rand(),
		loop: o.Loop,
	}
	if o.Hub != nil {
		sub := "vfsretry." + b.Name()
		reg := o.Hub.Registry
		r.ops = reg.Counter(sub, "ops")
		r.attempts = reg.Counter(sub, "attempts")
		r.retries = reg.Counter(sub, "retries")
		r.recovered = reg.Counter(sub, "recovered")
		r.verifies = reg.Counter(sub, "verify_probes")
		r.backoffNs = reg.Counter(sub, "backoff_ns")
		r.backoffHist = reg.Histogram(sub, "backoff")
	} else {
		r.ops = &telemetry.Counter{}
		r.attempts = &telemetry.Counter{}
		r.retries = &telemetry.Counter{}
		r.recovered = &telemetry.Counter{}
		r.verifies = &telemetry.Counter{}
		r.backoffNs = &telemetry.Counter{}
	}
	if lb, ok := b.(LinkBackend); ok {
		r.lb = lb
		return &retryingLink{r}
	}
	return r
}

// retrying decorates the mandatory Backend surface; the link variant
// embeds it.
type retrying struct {
	b  Backend
	lb LinkBackend

	pol  retry.Policy
	loop *eventloop.Loop

	mu  sync.Mutex // guards rnd
	rnd func() float64

	ops, attempts, retries, recovered, verifies, backoffNs *telemetry.Counter
	backoffHist                                            *telemetry.Histogram // nil-safe
}

func (r *retrying) Name() string   { return r.b.Name() }
func (r *retrying) ReadOnly() bool { return r.b.ReadOnly() }

// Unwrap exposes the wrapped backend for decorator-chain discovery.
func (r *retrying) Unwrap() Backend { return r.b }

// RetryStats snapshots the counters.
func (r *retrying) RetryStats() RetryStats {
	return RetryStats{
		Ops:          r.ops.Value(),
		Attempts:     r.attempts.Value(),
		Retries:      r.retries.Value(),
		Recovered:    r.recovered.Value(),
		VerifyProbes: r.verifies.Value(),
		BackoffNanos: r.backoffNs.Value(),
	}
}

// backoff computes the jittered wait before the given retry number.
func (r *retrying) backoff(retryNo int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pol.Backoff(retryNo, r.rnd)
}

// schedule delivers fn after the backoff wait. With a loop, the wait
// rides core.After — a goroutine timer whose completion holds a
// pending slot and delivers fn as an external event on the loop
// thread; without one, fn runs immediately — there is nothing to keep
// alive and nothing that guarantees another goroutine may touch the
// backend.
func (r *retrying) schedule(d time.Duration, fn func()) {
	if d > 0 {
		r.backoffNs.Add(int64(d))
		r.backoffHist.ObserveDuration(d)
	}
	if r.loop == nil || d <= 0 {
		fn()
		return
	}
	core.After(r.loop, "vfs-retry", d, fn)
}

// verifyFn probes whether a mutation already committed. It reports
// (committed, nil) on a determinate answer and a transient error when
// the probe itself failed indeterminately.
type verifyFn func(cb func(committed bool, err error))

// run is the shared retry loop for idempotent operations. attemptFn
// issues one backend call and reports its error; done receives the
// final outcome.
func (r *retrying) run(attemptFn func(done func(error)), done func(error)) {
	r.ops.Inc()
	r.attemptLoop(attemptFn, nil, done)
}

// runMutation is the retry loop for non-idempotent mutations: it takes
// the pre-flight probe first, then arms the lost-ack verify only when
// the pre-state says the mutation could commit (mkVerify may return nil
// to fall back to plain retries). An indeterminate pre-probe also falls
// back to plain retries — for the overwhelmingly common lost-request
// case that is correct, and the vanishing remainder surfaces as a final
// errno rather than silent data corruption.
func (r *retrying) runMutation(pre func(cb func(existed bool, err error)),
	mkVerify func(existed bool) verifyFn,
	attemptFn func(done func(error)), done func(error)) {
	r.ops.Inc()
	r.preState(pre, func(existed, ok bool) {
		var verify verifyFn
		if ok {
			verify = mkVerify(existed)
		}
		r.attemptLoop(attemptFn, verify, done)
	})
}

// preState resolves a mutation's pre-flight existence probe, retrying
// transient probe failures. ok=false means indeterminate.
func (r *retrying) preState(pre func(cb func(existed bool, err error)), done func(existed, ok bool)) {
	tries := 0
	var probe func()
	probe = func() {
		tries++
		r.verifies.Inc()
		pre(func(existed bool, err error) {
			switch {
			case err == nil:
				done(existed, true)
			case IsTransient(err) && tries < r.pol.Attempts():
				r.schedule(r.backoff(tries), probe)
			default:
				done(false, false)
			}
		})
	}
	probe()
}

// attemptLoop drives the attempts for one operation once its
// pre-state (if any) is resolved.
func (r *retrying) attemptLoop(attemptFn func(done func(error)), verify verifyFn, done func(error)) {
	attemptNo := 0
	var attempt func()
	maybeRetry := func(err error) {
		if attemptNo >= r.pol.Attempts() {
			done(err)
			return
		}
		r.retries.Inc()
		r.schedule(r.backoff(attemptNo), attempt)
	}
	attempt = func() {
		attemptNo++
		r.attempts.Inc()
		attemptFn(func(err error) {
			if err == nil || !IsTransient(err) {
				done(err)
				return
			}
			if verify == nil {
				maybeRetry(err)
				return
			}
			r.runVerify(verify, func(committed bool) {
				if committed {
					r.recovered.Inc()
					done(nil)
					return
				}
				maybeRetry(err)
			})
		})
	}
	attempt()
}

// runVerify drives a lost-ack probe, retrying the probe itself when it
// fails transiently. An indeterminate probe (errors exhausted) reports
// "not committed", which falls back to retrying the mutation — for
// pre-commit losses that is correct, and for the vanishing remainder
// the duplicate surfaces as a final errno rather than silent data loss.
func (r *retrying) runVerify(verify verifyFn, done func(bool)) {
	tries := 0
	var probe func()
	probe = func() {
		tries++
		r.verifies.Inc()
		verify(func(committed bool, err error) {
			if err == nil {
				done(committed)
				return
			}
			if !IsTransient(err) || tries >= r.pol.Attempts() {
				done(false)
				return
			}
			r.schedule(r.backoff(tries), probe)
		})
	}
	probe()
}

// ---- mandatory Backend surface ----

func (r *retrying) Stat(p string, cb func(Stats, error)) {
	var st Stats
	r.run(func(done func(error)) {
		r.b.Stat(p, func(s Stats, err error) { st = s; done(err) })
	}, func(err error) {
		if err != nil {
			st = Stats{}
		}
		cb(st, err)
	})
}

func (r *retrying) Open(p string, cb func([]byte, error)) {
	var data []byte
	r.run(func(done func(error)) {
		r.b.Open(p, func(d []byte, err error) { data = d; done(err) })
	}, func(err error) {
		if err != nil {
			// A failed attempt may have delivered partial data (short
			// read); never leak it past the retry boundary.
			data = nil
		}
		cb(data, err)
	})
}

// Sync re-uploads the same whole-file contents on retry, so it is
// idempotent by construction.
func (r *retrying) Sync(p string, data []byte, cb func(error)) {
	r.run(func(done func(error)) { r.b.Sync(p, data, done) }, cb)
}

// statPre is the standard pre-flight probe: does the path exist?
func (r *retrying) statPre(p string) func(cb func(bool, error)) {
	return func(cb func(bool, error)) {
		r.b.Stat(p, func(_ Stats, err error) {
			switch {
			case err == nil:
				cb(true, nil)
			case IsErrno(err, ENOENT):
				cb(false, nil)
			default:
				cb(false, err)
			}
		})
	}
}

// removalVerify is the post-failure probe for unlink/rmdir: the target
// existed before the attempt, so "gone now" proves our removal landed.
func (r *retrying) removalVerify(p string) verifyFn {
	return func(cb func(bool, error)) {
		r.b.Stat(p, func(_ Stats, err error) {
			switch {
			case err == nil:
				cb(false, nil)
			case IsErrno(err, ENOENT):
				cb(true, nil)
			default:
				cb(false, err)
			}
		})
	}
}

func (r *retrying) Unlink(p string, cb func(error)) {
	mkVerify := func(existed bool) verifyFn {
		if !existed {
			// Nothing to remove — the attempt cannot commit, so plain
			// retries preserve the backend's final ENOENT.
			return nil
		}
		return r.removalVerify(p)
	}
	r.runMutation(r.statPre(p), mkVerify,
		func(done func(error)) { r.b.Unlink(p, done) }, cb)
}

func (r *retrying) Rmdir(p string, cb func(error)) {
	mkVerify := func(existed bool) verifyFn {
		if !existed {
			return nil
		}
		return r.removalVerify(p)
	}
	r.runMutation(r.statPre(p), mkVerify,
		func(done func(error)) { r.b.Rmdir(p, done) }, cb)
}

func (r *retrying) Mkdir(p string, cb func(error)) {
	mkVerify := func(existed bool) verifyFn {
		if existed {
			// A node is already there — the attempt cannot commit, so
			// plain retries preserve the backend's final EEXIST.
			return nil
		}
		return func(cb func(bool, error)) {
			// Committed iff the directory now exists: the path was free
			// before our attempt, so only our create can have made it.
			r.b.Stat(p, func(st Stats, err error) {
				switch {
				case err == nil:
					cb(st.IsDirectory(), nil)
				case IsErrno(err, ENOENT):
					cb(false, nil)
				default:
					cb(false, err)
				}
			})
		}
	}
	r.runMutation(r.statPre(p), mkVerify,
		func(done func(error)) { r.b.Mkdir(p, done) }, cb)
}

func (r *retrying) Readdir(p string, cb func([]string, error)) {
	var names []string
	r.run(func(done func(error)) {
		r.b.Readdir(p, func(n []string, err error) { names = n; done(err) })
	}, func(err error) {
		if err != nil {
			names = nil
		}
		cb(names, err)
	})
}

func (r *retrying) Rename(oldPath, newPath string, cb func(error)) {
	mkVerify := func(existed bool) verifyFn {
		if !existed {
			// No source — the attempt cannot commit; plain retries
			// preserve the backend's final ENOENT.
			return nil
		}
		return func(cb func(bool, error)) {
			// The source existed before the attempt, so committed iff
			// it is gone and the destination exists.
			r.b.Stat(oldPath, func(_ Stats, oerr error) {
				switch {
				case oerr == nil:
					cb(false, nil)
				case IsErrno(oerr, ENOENT):
					r.b.Stat(newPath, func(_ Stats, nerr error) {
						switch {
						case nerr == nil:
							cb(true, nil)
						case IsErrno(nerr, ENOENT):
							cb(false, nil)
						default:
							cb(false, nerr)
						}
					})
				default:
					cb(false, oerr)
				}
			})
		}
	}
	r.runMutation(r.statPre(oldPath), mkVerify,
		func(done func(error)) { r.b.Rename(oldPath, newPath, done) }, cb)
}

// ---- optional link capability ----

// retryingLink adds the optional link capability.
type retryingLink struct{ *retrying }

func (r *retryingLink) Symlink(target, p string, cb func(error)) {
	// The pre-flight probe must not follow symlinks, so it uses
	// Readlink: EINVAL means a non-link node occupies the path.
	pre := func(cb func(bool, error)) {
		r.lb.Readlink(p, func(_ string, err error) {
			switch {
			case err == nil, IsErrno(err, EINVAL):
				cb(true, nil)
			case IsErrno(err, ENOENT):
				cb(false, nil)
			default:
				cb(false, err)
			}
		})
	}
	mkVerify := func(existed bool) verifyFn {
		if existed {
			// The path was occupied — the attempt cannot commit; plain
			// retries preserve the backend's final EEXIST.
			return nil
		}
		return func(cb func(bool, error)) {
			// Committed iff the link now resolves to our target.
			r.lb.Readlink(p, func(got string, err error) {
				switch {
				case err == nil:
					cb(got == target, nil)
				case IsErrno(err, ENOENT), IsErrno(err, EINVAL):
					cb(false, nil)
				default:
					cb(false, err)
				}
			})
		}
	}
	r.runMutation(pre, mkVerify,
		func(done func(error)) { r.lb.Symlink(target, p, done) }, cb)
}

func (r *retryingLink) Readlink(p string, cb func(string, error)) {
	var target string
	r.run(func(done func(error)) {
		r.lb.Readlink(p, func(t string, err error) { target = t; done(err) })
	}, func(err error) {
		if err != nil {
			target = ""
		}
		cb(target, err)
	})
}
