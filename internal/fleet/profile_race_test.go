package fleet_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"doppio/internal/fleet"
	"doppio/internal/jvm"
	"doppio/internal/jvm/rt"
	"doppio/internal/profile"
	"doppio/internal/telemetry"
)

// profChurnSource is the tenant workload for the profiling test: a
// bounded loop of calls to a named method with steady allocation, so
// the CPU and alloc profiles both have something to attribute. The
// calls are DoppioJVM's suspend checks, so the tenant yields between
// slices and finishes on its own.
const profChurnSource = `
class Work {
    int acc;
    int churn(int i) {
        int[] a = new int[8];
        for (int j = 0; j < a.length; j++) { a[j] = i ^ j; }
        for (int j = 0; j < a.length; j++) { acc = acc * 31 + a[j]; }
        return acc;
    }
}
public class Main {
    public static void main(String[] args) {
        Work w = new Work();
        for (int i = 0; i < 20000; i++) {
            w.churn(i);
        }
    }
}`

// jvmChurnTenant builds a tenant running profChurnSource on a Doppio
// JVM in its shard's window, which samples into the fleet hub's
// profiler.
func jvmChurnTenant(label string, classes map[string][]byte) fleet.Tenant {
	return fleet.Tenant{
		Label: label,
		Start: func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			vm := jvm.NewDoppioVM(env.Win, jvm.DoppioOptions{
				Provider:         jvm.MapProvider(classes),
				Timeslice:        2 * time.Millisecond,
				HeapSize:         512 << 10,
				DisableEngineTax: true,
			})
			vm.StartMain("Main", nil, done)
			return &fleet.Handle{Runtime: vm.Runtime(), Heap: vm.Heap()}, nil
		},
	}
}

// methodWeight sums the weight of kind whose leaf is one of methods
// (0 if none was sampled).
func methodWeight(p *profile.Profiler, kind profile.Kind, methods ...string) int64 {
	var sum int64
	for _, m := range p.TopMethods(kind, 0) {
		for _, want := range methods {
			if m.Method == want {
				sum += m.Value
			}
		}
	}
	return sum
}

// TestProfilingFleetChurn samples a profiling fleet, under -race in
// CI: a JVM tenant churns through calls while the test goroutine
// hammers the fleet's shared profiler and Snapshot/Format from other
// goroutines. Once the tenant is done its methods must stop growing in
// the profile — its VM was their only sample source — and the shards
// must keep running tenants to completion.
func TestProfilingFleetChurn(t *testing.T) {
	classes, err := rt.CompileWith(map[string]string{"Main.mj": profChurnSource})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	hub := telemetry.NewHub().EnableProfiling()
	sup := fleet.NewSupervisor(fleet.Config{Shards: 2, Hub: hub})
	defer sup.Close()

	churner, err := sup.Submit(jvmChurnTenant("churner", classes))
	if err != nil {
		t.Fatalf("submit churner: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := sup.Submit(yieldTenant(fmt.Sprintf("friendly%02d", i), 200)); err != nil {
			t.Fatalf("submit friendly %d: %v", i, err)
		}
	}

	// Concurrent readers: the race detector checks that reading the
	// profile while the churner's VM samples into it is clean.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = hub.Profiler.Snapshot(profile.CPU)
				_ = hub.Profiler.TopMethods(profile.Alloc, 5)
				_ = sup.Snapshot().Format()
			}
		}()
	}

	select {
	case <-churner.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("churner never finished")
	}
	if st := churner.State(); st != fleet.StateDone {
		t.Fatalf("churner state %s, want done (err %v)", st, churner.Err())
	}

	// The churner was sampled while it lived: CPU time at its guest
	// methods (a call boundary leaves either on top, and the friendly
	// tenants have no guest stack to sample) and Work.churn's
	// allocations, one int[8] per call...
	cpu := methodWeight(hub.Profiler, profile.CPU, "Main.main", "Work.churn")
	churn := methodWeight(hub.Profiler, profile.Alloc, "Work.churn")
	if cpu == 0 || churn == 0 {
		t.Errorf("tenant folded cpu %d ns at its methods, %d bytes at Work.churn while alive: cpu %+v alloc %+v",
			cpu, churn, hub.Profiler.TopMethods(profile.CPU, 5), hub.Profiler.TopMethods(profile.Alloc, 5))
	}

	// ...and stops growing once its VM is done: no samples are
	// attributed to a finished tenant.
	time.Sleep(50 * time.Millisecond)
	if again := methodWeight(hub.Profiler, profile.CPU, "Main.main", "Work.churn"); again != cpu {
		t.Errorf("finished tenant's cpu profile grew: %d -> %d", cpu, again)
	}
	if again := methodWeight(hub.Profiler, profile.Alloc, "Work.churn"); again != churn {
		t.Errorf("finished tenant's Work.churn allocations grew: %d -> %d", churn, again)
	}

	// The shards still run a fresh batch to completion.
	refs := make([]*fleet.TenantRef, 0, 4)
	for i := 0; i < 4; i++ {
		ref, err := sup.Submit(yieldTenant(fmt.Sprintf("late%02d", i), 50))
		if err != nil {
			t.Fatalf("submit late %d: %v", i, err)
		}
		refs = append(refs, ref)
	}
	sup.Wait()
	close(stop)
	readers.Wait()
	for _, ref := range refs {
		if st := ref.State(); st != fleet.StateDone {
			t.Errorf("%s: state %s, err %v", ref.Label(), st, ref.Err())
		}
	}
}
