// Fleet hosting A/B (BENCH_fleet.json): N tenants on a single-shard
// supervisor versus the same N on a multi-shard pool, at equal work,
// per tenant count. The fleet layer's claim is that sharding event
// loops across cores turns guest multiprocessing into host
// parallelism: on a multi-core host the multi-shard arm wins wall
// clock, and even on one core tenants on a wide pool wait behind fewer
// queue neighbors, so median tenant latency improves.
package bench

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"doppio/internal/browser"
	"doppio/internal/core"
	"doppio/internal/fleet"
	"doppio/internal/jvm"
	"doppio/internal/minic"
	"doppio/internal/proc"
	"doppio/internal/sockets"
	"doppio/internal/telemetry"
)

// fleetMinicProgram is the MiniC tenant: a pure CPU burn that yields
// at every timeslice like any guest thread, so the scheduler sees a
// long-lived well-behaved tenant.
const fleetMinicProgram = `
int main() {
    int acc = 0;
    for (int r = 0; r < %d; r++) {
        for (int i = 0; i < 1000; i++) {
            acc = (acc * 31 + i) %% 1000003;
        }
    }
    putint(acc);
    putchar('\n');
    return 0;
}`

// fleetJVMProgram is the DoppioJVM tenant, the same burn in MiniJava.
const fleetJVMProgram = `
public class FleetBurn {
    public static void main(String[] args) {
        int n = %d;
        int acc = 0;
        for (int i = 0; i < n; i++) {
            acc = (acc * 31 + i) %% 1000003;
        }
        System.out.println("acc " + acc);
    }
}`

// fleetPipeProducer feeds the pipes tenant's MiniC half: writes lines
// into the pipe, exercising pipe backpressure inside one tenant.
const fleetPipeProducer = `
int main() {
    for (int i = 0; i < %d; i++) {
        puts("ping\n");
    }
    return 0;
}`

// fleetPipeConsumer is the JVM half: byte-wise stdin reader counting
// lines, the jgrep idiom from the dsh userland.
const fleetPipeConsumer = `
public class FleetCount {
    public static void main(String[] args) {
        int lines = 0;
        int c = System.in.read();
        while (c >= 0) {
            if (c == '\n') { lines = lines + 1; }
            c = System.in.read();
        }
        System.out.println(lines);
    }
}`

// fleetSockProgram is the gateway tenant: an unmodified Java echo
// client whose socket rides the tenant's own multiplexed Stack to a
// shared websockify gateway — guest socket I/O as fleet load.
const fleetSockProgram = `
import java.net.Socket;

public class FleetEcho {
    public static void main(String[] args) {
        int rounds = %d;
        Socket s = new Socket("gateway", 0);
        byte[] msg = new byte[64];
        for (int i = 0; i < 64; i++) {
            msg[i] = (byte) (i + 1);
        }
        int want = rounds * 64;
        int got = 0;
        for (int i = 0; i < rounds; i++) {
            s.write(msg);
            byte[] back = s.read(4096);
            if (back == null) { break; }
            got = got + back.length;
        }
        while (got < want) {
            byte[] back = s.read(4096);
            if (back == null) { break; }
            got = got + back.length;
        }
        s.close();
        if (got != want) {
            System.out.println("short echo " + got);
            System.exit(1);
        }
        System.out.println("echoed " + got);
    }
}`

// fleetSockShedDepth is the WithShed threshold for sock tenants: high
// enough that a healthy run never trips it (a tripped dial surfaces as
// an IOException in the guest), low enough to bound a runaway loop.
const fleetSockShedDepth = 256

// Fleet constants: the timeslice of every tenant VM (short slices keep
// tail latency honest when hundreds of tenants share a shard) and the
// A/B's pair count.
const (
	fleetTimeslice = 2 * time.Millisecond
	fleetPairs     = 3
)

// fleetTenants is the sweep of tenant counts: 16 and 64 at scale 1,
// adding 256 above it.
func fleetTenants(scale int) []int {
	if scale <= 1 {
		return []int{16, 64}
	}
	return []int{16, 64, 256}
}

// fleetAssets are the precompiled tenant programs, shared by every
// arm so both arms run byte-identical work.
type fleetAssets struct {
	// mix picks the tenant programs: "minic", "jvm", "mixed"
	// (alternating by index), "pipes" (a MiniC producer piped into a
	// JVM consumer under a per-tenant process kernel), or "sock" (a
	// JVM echo client whose socket rides a per-tenant mux Stack
	// through a shared websockify gateway).
	mix         string
	burn        *minic.Program
	burnClasses map[string][]byte
	producer    *minic.Program
	pipeClasses map[string][]byte

	// The sock workload's shared infrastructure, nil otherwise: a
	// native TCP echo server and the gateway every tenant's Stack
	// dials. Both arms go through the same pair, so the comparison
	// stays equal-work.
	sockClasses map[string][]byte
	sockEcho    net.Listener
	sockGW      *sockets.Websockify
	sockAddr    string
}

func compileFleetAssets(mix string) (*fleetAssets, error) {
	a := &fleetAssets{mix: mix}
	var err error
	if a.burn, err = minic.CompileC(fmt.Sprintf(fleetMinicProgram, 20)); err != nil {
		return nil, fmt.Errorf("fleet minic tenant: %w", err)
	}
	if a.burnClasses, err = workloadsCompile(map[string]string{
		"FleetBurn.mj": fmt.Sprintf(fleetJVMProgram, 20_000),
	}); err != nil {
		return nil, fmt.Errorf("fleet jvm tenant: %w", err)
	}
	if a.producer, err = minic.CompileC(fmt.Sprintf(fleetPipeProducer, 100)); err != nil {
		return nil, fmt.Errorf("fleet pipe producer: %w", err)
	}
	if a.pipeClasses, err = workloadsCompile(map[string]string{
		"FleetCount.mj": fleetPipeConsumer,
	}); err != nil {
		return nil, fmt.Errorf("fleet pipe consumer: %w", err)
	}
	if mix == "sock" {
		if a.sockClasses, err = workloadsCompile(map[string]string{
			"FleetEcho.mj": fmt.Sprintf(fleetSockProgram, 8),
		}); err != nil {
			return nil, fmt.Errorf("fleet sock tenant: %w", err)
		}
		if a.sockEcho, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("fleet sock echo: %w", err)
		}
		go sockEchoAccept(a.sockEcho)
		a.sockGW, err = sockets.NewGateway("127.0.0.1:0", a.sockEcho.Addr().String(),
			sockets.GatewayOptions{})
		if err != nil {
			a.sockEcho.Close()
			return nil, fmt.Errorf("fleet sock gateway: %w", err)
		}
		a.sockAddr = a.sockGW.Addr()
	}
	return a, nil
}

func (a *fleetAssets) close() {
	if a.sockGW != nil {
		a.sockGW.Close()
	}
	if a.sockEcho != nil {
		a.sockEcho.Close()
	}
}

// fleetTenant builds tenant i's spec for the assets' mix.
func fleetTenant(a *fleetAssets, i int) fleet.Tenant {
	kind := a.mix
	if kind == "mixed" {
		if i%2 == 0 {
			kind = "minic"
		} else {
			kind = "jvm"
		}
	}
	label := fmt.Sprintf("%s-%03d", kind, i)
	t := fleet.Tenant{Label: label}
	switch kind {
	case "minic":
		t.Start = func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			fs := env.NewFS(env.Root)
			vm, err := minic.NewVM(env.Win, a.burn, minic.VMOptions{
				FS:        fs,
				HeapSize:  256 << 10,
				StackSize: 32 << 10,
				Timeslice: fleetTimeslice,
			})
			if err != nil {
				return nil, err
			}
			vm.Start(func(exit int32, err error) {
				if err == nil && exit != 0 {
					err = fmt.Errorf("%s: exit %d", label, exit)
				}
				done(err)
			})
			return &fleet.Handle{Runtime: vm.Runtime(), Heap: vm.Heap(), FS: fs}, nil
		}
	case "jvm":
		t.Start = func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			vm := jvm.NewDoppioVM(env.Win, jvm.DoppioOptions{
				Provider:         jvm.MapProvider(a.burnClasses),
				Timeslice:        fleetTimeslice,
				HeapSize:         512 << 10,
				DisableEngineTax: true,
			})
			vm.StartMain("FleetBurn", nil, done)
			return &fleet.Handle{Runtime: vm.Runtime(), Heap: vm.Heap()}, nil
		}
	case "sock":
		t.Start = func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			// Each tenant gets its own multiplexed Stack to the shared
			// gateway; the shed option refuses new dials when this
			// tenant's loop falls behind (EAGAIN, transient).
			var rt *core.Runtime
			conn := sockets.Stack(env.Win, a.sockAddr,
				sockets.WithMux(4),
				sockets.WithShed(func() int {
					if rt == nil {
						return 0
					}
					return rt.QueueDepth()
				}, fleetSockShedDepth),
			)
			vm := jvm.NewDoppioVM(env.Win, jvm.DoppioOptions{
				Provider:         jvm.MapProvider(a.sockClasses),
				Timeslice:        fleetTimeslice,
				HeapSize:         512 << 10,
				DisableEngineTax: true,
				SocketDialer: func(_ *browser.Window, _ string, cb func(*sockets.Socket, error)) {
					conn.Dial(cb)
				},
			})
			rt = vm.Runtime()
			vm.StartMain("FleetEcho", nil, func(err error) {
				conn.Close()
				done(err)
			})
			return &fleet.Handle{Runtime: vm.Runtime(), Heap: vm.Heap()}, nil
		}
	case "pipes":
		t.Start = func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			k := proc.NewKernel(env.Win, env.Root)
			pipe := k.NewPipe(512)
			prod, err := k.SpawnMinic(a.producer, proc.SpawnSpec{
				Name:   label + "/producer",
				Stdout: &proc.PipeWriter{P: pipe},
			})
			if err != nil {
				return nil, err
			}
			cons, err := k.SpawnJVM("FleetCount", a.pipeClasses, proc.SpawnSpec{
				Name:  label + "/consumer",
				Stdin: &proc.PipeReader{P: pipe},
			})
			if err != nil {
				k.Kill(prod.PID, proc.SIGKILL)
				return nil, err
			}
			// The tenant is done when both halves have exited; the
			// first nonzero exit or wait error wins.
			remaining := 2
			var firstErr error
			reap := func(name string, pid int32) {
				k.Waitpid(nil, pid).Then(func(v interface{}, err error) {
					if firstErr == nil {
						if err != nil {
							firstErr = err
						} else if code, ok := v.(int32); ok && code != 0 {
							firstErr = fmt.Errorf("%s: exit %d", name, code)
						}
					}
					if remaining--; remaining == 0 {
						done(firstErr)
					}
				})
			}
			reap(label+"/producer", prod.PID)
			reap(label+"/consumer", cons.PID)
			// The observables follow the consumer (the JVM does the
			// lion's share of the work).
			return &fleet.Handle{Runtime: cons.Runtime(), FS: cons.FS}, nil
		}
	}
	return t
}

// runFleet sweeps the tenant counts with the given mix, one
// comparison per count: a fresh supervisor and telemetry hub per run,
// and the same precompiled programs on both arms.
func runFleet(cfg Config, mix string, tenants []int) (*Report, error) {
	cfg = cfg.withDefaults()
	assets, err := compileFleetAssets(mix)
	if err != nil {
		return nil, err
	}
	defer assets.close()
	// A 1-wide "multi" arm would compare a shard with itself.
	shards := max(runtime.NumCPU(), 2)
	rep := newReport("fleet", cfg, map[string]any{
		"mix":       mix,
		"shards":    shards,
		"timeslice": fleetTimeslice.String(),
	})
	for _, n := range tenants {
		arm := func(name string, width int) Arm {
			return Arm{name, func() (Sample, error) { return runFleetArm(cfg, assets, n, width) }}
		}
		c, err := rep.compare(AB{Name: fmt.Sprintf("tenants=%d", n), Pairs: fleetPairs,
			A: arm("single-shard", 1), B: arm("multi-shard", shards)})
		if err != nil {
			return nil, err
		}
		failed := maxMetric(c, "failed")
		rep.check(c.Name+": zero failures", failed == 0, "%.0f failed in the worst run", failed)
		slices := minMetric(c, "min_tenant_slices")
		rep.check(c.Name+": every tenant's slice counter > 0", slices > 0, "fewest slices of any tenant: %.0f", slices)
	}
	return rep, nil
}

// runFleetArm hosts n tenants on a shards-wide supervisor and waits
// them all out; the sample's latencies are per-tenant submit-to-done
// times, and its wall runs from the first submit to the last done.
func runFleetArm(cfg Config, assets *fleetAssets, n, shards int) (Sample, error) {
	hub := telemetry.NewHub()
	sup := fleet.NewSupervisor(fleet.Config{Shards: shards, Hub: hub})
	defer sup.Close()
	if cfg.Ops != nil {
		cfg.Ops.RegisterFleet(fmt.Sprintf("%s n=%d shards=%d", assets.mix, n, shards), sup)
	}

	start := time.Now()
	refs := make([]*fleet.TenantRef, 0, n)
	for i := 0; i < n; i++ {
		ref, err := sup.Submit(fleetTenant(assets, i))
		if err != nil {
			return Sample{}, err
		}
		refs = append(refs, ref)
	}
	s := Sample{Latencies: make([]time.Duration, 0, n)}
	for _, ref := range refs {
		<-ref.Done()
		if err := ref.Err(); err != nil {
			return Sample{}, fmt.Errorf("tenant %s: %w", ref.Label(), err)
		}
		s.Latencies = append(s.Latencies, ref.Latency())
	}
	wall := time.Since(start)
	snap := sup.Snapshot()
	s.Metrics = map[string]float64{
		"wall_ns":           float64(wall),
		"tenants_per_sec":   float64(n) / wall.Seconds(),
		"failed":            float64(snap.Failed),
		"min_tenant_slices": float64(minTenantSlices(hub, n)),
	}
	return s, nil
}

// minTenantSlices scans the hub for the per-tenant slice counters the
// shards publish and returns the smallest value — zero if any tenant
// is missing its series (which the CI smoke treats as a failure).
func minTenantSlices(hub *telemetry.Hub, n int) int64 {
	var min int64
	seen := 0
	for _, c := range hub.Registry.Snapshot().Counters {
		if c.Subsystem != "fleet" || c.Name != "tenant_slices" || c.Label == "" {
			continue
		}
		if seen == 0 || c.Value < min {
			min = c.Value
		}
		seen++
	}
	if seen < n {
		return 0
	}
	return min
}
