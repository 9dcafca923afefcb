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

// profSpinSource is a tenant workload for the profiling tests: a hot
// loop through named methods with steady allocation, so the CPU and
// alloc profiles both have something to attribute — and it never
// exits, so only eviction stops it.
const profSpinSource = `
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
        int i = 0;
        while (true) {
            w.churn(i);
            i++;
        }
    }
}`

// jvmSpinTenant builds a tenant running profSpinSource on a Doppio
// JVM in its shard's window, which samples into the fleet hub's
// profiler.
func jvmSpinTenant(label string, classes map[string][]byte, budget time.Duration) fleet.Tenant {
	return fleet.Tenant{
		Label:  label,
		Budget: fleet.Budget{CPU: budget},
		Start: func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			vm := jvm.NewDoppioVM(env.Win, jvm.DoppioOptions{
				Provider:         jvm.MapProvider(classes),
				Timeslice:        2 * time.Millisecond,
				HeapSize:         512 << 10,
				DisableEngineTax: true,
			})
			vm.StartMain("Main", nil, done)
			return &fleet.Handle{Runtime: vm.Runtime(), Heap: vm.Heap(),
				Kill: func() { vm.Exit(137) }}, nil
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

// TestProfilingFleetEviction samples a profiling fleet mid-eviction,
// under -race in CI: a spinning JVM tenant is evicted on its CPU
// budget while the test goroutine hammers the fleet's shared profiler
// and Snapshot/Format from other goroutines. After the eviction the
// hog's methods must stop growing in the profile — eviction killed
// the VM, which was their only sample source — and the shard must
// keep running tenants to completion (not wedged).
func TestProfilingFleetEviction(t *testing.T) {
	classes, err := rt.CompileWith(map[string]string{"Main.mj": profSpinSource})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	hub := telemetry.NewHub().EnableProfiling()
	sup := fleet.NewSupervisor(fleet.Config{Shards: 2, Hub: hub})
	defer sup.Close()

	hog, err := sup.Submit(jvmSpinTenant("hog", classes, 15*time.Millisecond))
	if err != nil {
		t.Fatalf("submit hog: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := sup.Submit(yieldTenant(fmt.Sprintf("friendly%02d", i), 200)); err != nil {
			t.Fatalf("submit friendly %d: %v", i, err)
		}
	}

	// Concurrent readers: the race detector checks that reading the
	// profile while the hog's VM samples into it is clean.
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
	case <-hog.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("hog never evicted")
	}
	if st := hog.State(); st != fleet.StateEvicted {
		t.Fatalf("hog state %s, want evicted (err %v)", st, hog.Err())
	}

	// The hog was sampled while it lived: CPU time at its guest
	// methods (a call boundary leaves either on top, and the friendly
	// tenants have no guest stack to sample) and Work.churn's
	// allocations, one int[8] per call...
	cpu := methodWeight(hub.Profiler, profile.CPU, "Main.main", "Work.churn")
	churn := methodWeight(hub.Profiler, profile.Alloc, "Work.churn")
	if cpu == 0 || churn == 0 {
		t.Errorf("evicted tenant folded cpu %d ns at its methods, %d bytes at Work.churn while alive: cpu %+v alloc %+v",
			cpu, churn, hub.Profiler.TopMethods(profile.CPU, 5), hub.Profiler.TopMethods(profile.Alloc, 5))
	}

	// ...and stops growing once the VM is dead: no samples are
	// attributed to an evicted tenant.
	time.Sleep(50 * time.Millisecond)
	if again := methodWeight(hub.Profiler, profile.CPU, "Main.main", "Work.churn"); again != cpu {
		t.Errorf("dead tenant's cpu profile grew after eviction: %d -> %d", cpu, again)
	}
	if again := methodWeight(hub.Profiler, profile.Alloc, "Work.churn"); again != churn {
		t.Errorf("dead tenant's Work.churn allocations grew after eviction: %d -> %d", churn, again)
	}

	// The shard the hog occupied is not wedged: a fresh batch still
	// runs to completion.
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
