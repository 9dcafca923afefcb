package fleet_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"doppio/internal/core"
	"doppio/internal/fleet"
	"doppio/internal/minic"
	"doppio/internal/telemetry"
)

// yieldTenant builds a friendly tenant: a scheduler thread that
// yields `slices` times and exits. It is the fleet's unit workload —
// cheap, loop-respectful, finishes on its own.
func yieldTenant(label string, slices int) fleet.Tenant {
	return fleet.Tenant{
		Label: label,
		Start: func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			rt := core.NewRuntime(env.Win.Loop, core.Config{Telemetry: env.Hub})
			n := 0
			rt.Spawn(label, core.RunnableFunc(func(t *core.Thread) core.RunResult {
				n++
				if n >= slices {
					return core.Done
				}
				return core.Yield
			}))
			rt.OnIdle(func() { done(nil) })
			rt.Start()
			return &fleet.Handle{Runtime: rt}, nil
		},
	}
}

// hogTenant builds a CPU hog: every slice burns real CPU for `burn`,
// for `slices` slices. It yields between slices like any guest
// thread, so it shares its shard one slice per round.
func hogTenant(label string, burn time.Duration, slices int) fleet.Tenant {
	return fleet.Tenant{
		Label: label,
		Start: func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			rt := core.NewRuntime(env.Win.Loop, core.Config{Telemetry: env.Hub})
			n := 0
			rt.Spawn(label, core.RunnableFunc(func(t *core.Thread) core.RunResult {
				deadline := time.Now().Add(burn)
				for time.Now().Before(deadline) {
				}
				if n++; n >= slices {
					return core.Done
				}
				return core.Yield
			}))
			rt.OnIdle(func() { done(nil) })
			rt.Start()
			return &fleet.Handle{Runtime: rt}, nil
		},
	}
}

func TestSupervisorRunsTenantsToCompletion(t *testing.T) {
	hub := telemetry.NewHub().EnableFlight(256)
	sup := fleet.NewSupervisor(fleet.Config{Shards: 2, Hub: hub})
	defer sup.Close()

	const n = 32
	refs := make([]*fleet.TenantRef, 0, n)
	for i := 0; i < n; i++ {
		ref, err := sup.Submit(yieldTenant(fmt.Sprintf("t%02d", i), 50))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		refs = append(refs, ref)
	}
	sup.Wait()

	shardsUsed := map[int]bool{}
	for _, ref := range refs {
		if st := ref.State(); st != fleet.StateDone {
			t.Errorf("%s: state %s, err %v", ref.Label(), st, ref.Err())
		}
		if ref.Latency() <= 0 {
			t.Errorf("%s: non-positive latency %v", ref.Label(), ref.Latency())
		}
		shardsUsed[ref.Shard()] = true
	}
	if len(shardsUsed) != 2 {
		t.Errorf("placement used %d shards, want 2", len(shardsUsed))
	}
	if got := hub.Registry.Counter("fleet", "completed").Value(); got != n {
		t.Errorf("fleet/completed = %d, want %d", got, n)
	}
	if got := hub.Registry.Gauge("fleet", "live").Value(); got != 0 {
		t.Errorf("fleet/live = %d after Wait, want 0", got)
	}
	snap := sup.Snapshot()
	if snap.Completed != n || snap.Live != 0 || snap.Admitted != n {
		t.Errorf("snapshot %+v", snap)
	}
}

// TestRoundRobinIsolation pins the isolation a shard gives its
// tenants, in counts rather than wall time: each runtime runs one
// slice per macrotask and the loop runs macrotasks in FIFO order, so
// while a friendly tenant lives, a CPU hog on its shard runs at most
// one slice per slice of the friendly's own (plus the round the
// friendly started in).
func TestRoundRobinIsolation(t *testing.T) {
	sup := fleet.NewSupervisor(fleet.Config{Shards: 1})
	defer sup.Close()

	// The hog's start holds the loop until every friendly is
	// submitted, so all the friendlies start before the hog's first
	// slice and their lives overlap its whole run. A test that fails
	// before releasing the loop still releases it for Close.
	submitted := make(chan struct{})
	defer func() {
		select {
		case <-submitted:
		default:
			close(submitted)
		}
	}()
	var hogRT *core.Runtime
	hog := hogTenant("hog", 2*time.Millisecond, 400)
	startHog := hog.Start
	hog.Start = func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
		<-submitted
		h, err := startHog(env, done)
		if h != nil {
			hogRT = h.Runtime
		}
		return h, err
	}
	hogRef, err := sup.Submit(hog)
	if err != nil {
		t.Fatal(err)
	}

	// Per friendly, read on the loop goroutine: the hog's slice count
	// at the friendly's start and at its finish, and the friendly's
	// own slices.
	type span struct{ start, end, own int }
	const friendlies = 8
	spans := make([]span, friendlies)
	refs := make([]*fleet.TenantRef, 0, friendlies)
	for i := 0; i < friendlies; i++ {
		spec := yieldTenant(fmt.Sprintf("friendly%d", i), 100)
		startFriendly := spec.Start
		spec.Start = func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			spans[i].start = hogRT.Stats().Slices
			var h *fleet.Handle
			var err error
			h, err = startFriendly(env, func(err error) {
				spans[i].end = hogRT.Stats().Slices
				spans[i].own = h.Runtime.Stats().Slices
				done(err)
			})
			return h, err
		}
		ref, err := sup.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	close(submitted)
	sup.Wait()

	if st := hogRef.State(); st != fleet.StateDone {
		t.Errorf("hog: state %s, err %v", st, hogRef.Err())
	}
	for i, ref := range refs {
		if st := ref.State(); st != fleet.StateDone {
			t.Errorf("%s: state %s, err %v", ref.Label(), st, ref.Err())
		}
		sp := spans[i]
		if hogSlices := sp.end - sp.start; hogSlices > sp.own+1 {
			t.Errorf("%s: the hog ran %d slices during its life of %d slices, want at most %d",
				ref.Label(), hogSlices, sp.own, sp.own+1)
		}
	}
}

func TestConcurrentSubmitRace(t *testing.T) {
	sup := fleet.NewSupervisor(fleet.Config{Shards: 4})
	defer sup.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				ref, err := sup.Submit(yieldTenant(fmt.Sprintf("g%d-t%d", g, i), 20))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				<-ref.Done()
			}
		}(g)
	}
	wg.Wait()
	sup.Wait()
	snap := sup.Snapshot()
	if snap.Completed != 64 {
		t.Errorf("completed %d, want 64", snap.Completed)
	}
}

// Regression: the shard observables (live, load) must settle to
// exactly zero after every tenant finishes. The old implementation
// mixed Add(-1) at release with the monitor tick's Store, so churn
// drove the counters negative — visibly in /debug/fleet and, worse,
// in the placement signal.
func TestShardCountersSettleToZero(t *testing.T) {
	sup := fleet.NewSupervisor(fleet.Config{Shards: 2})
	defer sup.Close()

	for round := 0; round < 4; round++ {
		for i := 0; i < 16; i++ {
			if _, err := sup.Submit(yieldTenant(fmt.Sprintf("r%d-t%02d", round, i), 10)); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
		sup.Wait()
	}

	// live is Store-only, refreshed by the next monitor tick; give the
	// ticks a moment to observe the drained shards.
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := sup.Snapshot()
		settled := true
		for _, sh := range snap.Shards {
			if sh.Live < 0 || sh.Load < 0 {
				t.Fatalf("shard %d counters negative: live %d load %d", sh.Index, sh.Live, sh.Load)
			}
			if sh.Live != 0 || sh.Load != 0 {
				settled = false
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard counters never settled to zero: %+v", snap.Shards)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSnapshotFormat(t *testing.T) {
	sup := fleet.NewSupervisor(fleet.Config{Shards: 2})
	defer sup.Close()
	if _, err := sup.Submit(yieldTenant("fmt-tenant", 10)); err != nil {
		t.Fatal(err)
	}
	sup.Wait()
	text := sup.Snapshot().Format()
	for _, want := range []string{"=== FLEET (2 shards", "fmt-tenant", "done", "shard  live"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format() missing %q:\n%s", want, text)
		}
	}
}

func TestDrive(t *testing.T) {
	env := fleet.NewEnv(fleet.DefaultProfile(), nil)
	ran := false
	err := fleet.Drive(env.Win.Loop, "drive-test", func(done func(error)) {
		env.Win.Loop.SetTimeout(func() {
			ran = true
			done(nil)
		}, time.Millisecond)
	})
	if err != nil || !ran {
		t.Fatalf("Drive: err %v, ran %v", err, ran)
	}

	env2 := fleet.NewEnv(fleet.DefaultProfile(), nil)
	err = fleet.Drive(env2.Win.Loop, "drive-wedge", func(done func(error)) {})
	if err == nil || !strings.Contains(err.Error(), "drained before the workload completed") {
		t.Fatalf("Drive on wedged workload: %v", err)
	}
}

// minicTenant runs a MiniC program as a tenant.
func minicTenant(t *testing.T, label, src string) fleet.Tenant {
	prog, err := minic.CompileC(src)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return fleet.Tenant{
		Label: label,
		Start: func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			vm, err := minic.NewVM(env.Win, prog, minic.VMOptions{FS: env.NewFS(env.Root), HeapSize: 64 << 10, StackSize: 8 << 10})
			if err != nil {
				return nil, err
			}
			vm.Start(func(_ int32, err error) { done(err) })
			return &fleet.Handle{Runtime: vm.Runtime(), Heap: vm.Heap()}, nil
		},
	}
}

// TestGuestFaultFailsOnlyItsTenant: a MiniC tenant's wild pointer ends
// that tenant with a segmentation fault; its neighbour on the same
// shard (the same event loop) runs to completion.
func TestGuestFaultFailsOnlyItsTenant(t *testing.T) {
	sup := fleet.NewSupervisor(fleet.Config{Shards: 1})
	defer sup.Close()
	bad, err := sup.Submit(minicTenant(t, "wild", `
int main() {
    int *p = 0;
    for (int i = 0; i < 1000; i++) { p = p + 1; }
    p[-2000] = 5;
    return 0;
}`))
	if err != nil {
		t.Fatal(err)
	}
	good, err := sup.Submit(minicTenant(t, "neighbour", `
int main() {
    int acc = 0;
    for (int i = 0; i < 50000; i++) { acc = acc + i % 7; }
    return 0;
}`))
	if err != nil {
		t.Fatal(err)
	}
	sup.Wait()
	if bad.Shard() != good.Shard() {
		t.Fatalf("tenants on shards %d and %d, want one shard", bad.Shard(), good.Shard())
	}
	if st := bad.State(); st != fleet.StateFailed || bad.Err() == nil || !strings.Contains(bad.Err().Error(), "segmentation fault") {
		t.Errorf("faulting tenant: state %s, err %v; want failed with a segmentation fault", st, bad.Err())
	}
	if st := good.State(); st != fleet.StateDone {
		t.Errorf("neighbour: state %s, err %v; want done", st, good.Err())
	}
}
