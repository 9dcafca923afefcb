package vfs

import (
	"fmt"
	"testing"

	"doppio/internal/telemetry"
	"doppio/internal/vfs/faultfs"
	"doppio/internal/vfs/retry"
)

// TestStackOrder: whatever order the options are given in, the layers
// come out backend → faults → retry → cache → instrument.
func TestStackOrder(t *testing.T) {
	base := NewInMemory()
	hub := telemetry.NewHub()
	// Deliberately scrambled option order.
	b := Stack(base,
		WithTelemetry(hub),
		WithCache(CacheOptions{}),
		WithFaults(faultfs.Plan{Seed: 1, ErrRate: 0.5}),
		WithRetry(RetryOptions{}),
	)
	var layers []Backend
	for cur := b; cur != nil; {
		layers = append(layers, cur)
		u, ok := cur.(Unwrapper)
		if !ok {
			break
		}
		cur = u.Unwrap()
	}
	if len(layers) != 5 {
		t.Fatalf("stack depth = %d, want 5 (instrument, cache, retry, faults, base)", len(layers))
	}
	if layers[4] != Backend(base) {
		t.Fatal("innermost layer is not the base backend")
	}
	if _, ok := layers[1].(CacheStatser); !ok {
		t.Errorf("layer 1 is %T, want the cache", layers[1])
	}
	if _, ok := layers[2].(RetryStatser); !ok {
		t.Errorf("layer 2 is %T, want the retry decorator", layers[2])
	}
	if _, ok := layers[3].(FaultStatser); !ok {
		t.Errorf("layer 3 is %T, want the fault injector", layers[3])
	}
	// The outermost instrument layer is none of the above.
	if _, ok := layers[0].(CacheStatser); ok {
		t.Errorf("layer 0 is %T; the instrument layer must be outermost", layers[0])
	}
	// Find recovers every layer from the outside.
	if _, ok := Find[CacheStatser](b); !ok {
		t.Error("Find[CacheStatser] failed")
	}
	if _, ok := Find[RetryStatser](b); !ok {
		t.Error("Find[RetryStatser] failed")
	}
	if _, ok := Find[FaultStatser](b); !ok {
		t.Error("Find[FaultStatser] failed")
	}
}

func TestStackEmptyAndDisabledLayers(t *testing.T) {
	base := NewInMemory()
	if got := Stack(base); got != Backend(base) {
		t.Error("Stack with no options must return the backend unchanged")
	}
	// A plan that cannot inject adds no fault layer.
	got := Stack(base, WithFaults(faultfs.Plan{Seed: 9}))
	if got != Backend(base) {
		t.Error("Stack with a disabled fault plan must add nothing")
	}
}

// TestStackCacheServesWhileBackendFails: with retry stacked under the
// cache, a warm stat is answered from the cache while every backend
// stat fails, and a cold one surfaces the backend's EIO once retry
// gives up — the reason the cache sits above retry.
func TestStackCacheServesWhileBackendFails(t *testing.T) {
	s := newScripted(NewInMemory())
	s.Backend.Sync("/warm", []byte("cached"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	b := Stack(s,
		WithRetry(RetryOptions{Policy: retry.Policy{MaxAttempts: 1}}),
		WithCache(CacheOptions{}),
	)

	// Warm the stat cache through a healthy backend.
	b.Stat("/warm", func(_ Stats, err error) {
		if err != nil {
			t.Fatalf("warm stat: %v", err)
		}
	})
	// From here on every backend stat fails.
	for i := 0; i < 3; i++ {
		s.fail("stat", EIO, false)
	}
	before := s.count("stat")
	b.Stat("/warm", func(st Stats, err error) {
		if err != nil || st.Size != 6 {
			t.Fatalf("cached stat: size %d err %v", st.Size, err)
		}
	})
	if n := s.count("stat"); n != before {
		t.Fatalf("cached stat reached the backend (%d stats, want %d)", n, before)
	}
	b.Stat("/cold", func(_ Stats, err error) {
		if !IsErrno(err, EIO) {
			t.Fatalf("cold stat err = %v, want EIO", err)
		}
	})
	if n := s.count("stat"); n != before+1 {
		t.Fatalf("cold stat made %d backend stats, want 1", n-before)
	}
}

// TestFaultyPreservesLinkCapability: like the other decorators, the
// fault injector implements LinkBackend exactly when the backend it
// wraps does, and the link calls draw from the injector.
func TestFaultyPreservesLinkCapability(t *testing.T) {
	inj := faultfs.New(faultfs.Plan{Seed: 1, ErrRate: 0.5})
	lb, ok := NewFaulty(NewInMemory(), inj).(LinkBackend)
	if !ok {
		t.Fatal("faulty InMemory lost LinkBackend")
	}
	if _, ok := NewFaulty(newFlatKVForTest(), inj).(LinkBackend); ok {
		t.Fatal("faulty FlatKV gained LinkBackend")
	}
	lb.Symlink("/target", "/link", func(error) {})
	lb.Readlink("/link", func(string, error) {})
	if st := inj.Stats(); st.Ops != 2 {
		t.Fatalf("injector saw %d ops, want 2 (symlink, readlink)", st.Ops)
	}
}

// dupDetect sits under the fault injector and records "duplicate
// symptoms": errors that can only arise when a committed non-idempotent
// mutation is re-issued. The workload above performs each mutation on a
// fresh path exactly once, so any EEXIST on mkdir — or ENOENT on
// unlink/rmdir/rename — reaching the real backend is a duplicate.
type dupDetect struct {
	Backend
	dups []string
}

func (d *dupDetect) Mkdir(p string, cb func(error)) {
	d.Backend.Mkdir(p, func(err error) {
		if IsErrno(err, EEXIST) {
			d.dups = append(d.dups, "mkdir "+p)
		}
		cb(err)
	})
}

func (d *dupDetect) Unlink(p string, cb func(error)) {
	d.Backend.Unlink(p, func(err error) {
		if IsErrno(err, ENOENT) {
			d.dups = append(d.dups, "unlink "+p)
		}
		cb(err)
	})
}

func (d *dupDetect) Rmdir(p string, cb func(error)) {
	d.Backend.Rmdir(p, func(err error) {
		if IsErrno(err, ENOENT) {
			d.dups = append(d.dups, "rmdir "+p)
		}
		cb(err)
	})
}

func (d *dupDetect) Rename(oldPath, newPath string, cb func(error)) {
	d.Backend.Rename(oldPath, newPath, func(err error) {
		if IsErrno(err, ENOENT) {
			d.dups = append(d.dups, "rename "+oldPath)
		}
		cb(err)
	})
}

// TestRetryNeverDuplicatesMutations is the lost-acknowledgement
// property test: under a heavy post-commit fault rate, the retry
// decorator must absorb every fault without ever re-issuing a committed
// mkdir/unlink/rmdir/rename. Seeds sweep several deterministic fault
// sequences.
func TestRetryNeverDuplicatesMutations(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dup := &dupDetect{Backend: NewInMemory()}
			b := Stack(dup,
				WithFaults(faultfs.Plan{
					Seed:      seed,
					ErrRate:   0.3,
					PostFrac:  0.5, // half lost-ack, half lost-request
					ShortRate: 0.1,
				}),
				WithRetry(RetryOptions{Policy: retry.Policy{MaxAttempts: 8}}),
			)
			rs, _ := Find[RetryStatser](b)
			fs, _ := Find[FaultStatser](b)

			must := func(op string, err error) {
				if err != nil {
					t.Fatalf("%s: %v", op, err)
				}
			}
			const rounds = 60
			for i := 0; i < rounds; i++ {
				d := fmt.Sprintf("/d%d", i)
				b.Mkdir(d, func(err error) { must("mkdir "+d, err) })
				b.Sync(d+"/f", []byte(fmt.Sprintf("payload-%d", i)), func(err error) { must("sync", err) })
				b.Rename(d+"/f", d+"/g", func(err error) { must("rename", err) })
				b.Unlink(d+"/g", func(err error) { must("unlink", err) })
				b.Rmdir(d, func(err error) { must("rmdir "+d, err) })
			}
			if len(dup.dups) != 0 {
				t.Fatalf("committed mutations were re-issued: %v", dup.dups)
			}
			// The run must actually have exercised the lost-ack path.
			st := rs.RetryStats()
			fst := fs.FaultStats()
			if fst.ErrsPost == 0 || st.Recovered == 0 {
				t.Fatalf("fault plan too weak: injector %+v, retry %+v", fst, st)
			}
			// Nothing left behind: every directory was removed.
			dup.Backend.Readdir("/", func(names []string, err error) {
				must("readdir /", err)
				if len(names) != 0 {
					t.Fatalf("leftover entries after the run: %v", names)
				}
			})
		})
	}
}
