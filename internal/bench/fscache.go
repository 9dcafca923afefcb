// VFS A/Bs: the cache A/B here (BENCH_fscache.json) and the fault
// A/B in fsfaults.go share one harness, vfsRig: an instrumented
// decorator stack in a fresh window, an fstrace replay through it, and
// the §6.4 class-load path through it.
package bench

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"doppio/internal/bench/workloads"
	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/fleet"
	"doppio/internal/fstrace"
	"doppio/internal/jvm"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

// VFS A/B constants: the simulated cloud round trip and the pair
// count (the gates read deterministic op counts; only walls vary).
const (
	fsLatency = 200 * time.Microsecond
	fsPairs   = 2
)

// fsTrace shapes the generated replay workload.
func fsTrace(scale int) fstrace.GenerateParams {
	return fstrace.GenerateParams{
		Ops: 400 * scale, UniqueFiles: 120 * scale,
		BytesRead: 600_000 * scale, BytesWritten: 8_000 * scale,
	}
}

// vfsRig is a CloudFS at fsLatency in a fresh window, with Instrument
// innermost, so its ops counter keeps meaning "backend round trips"
// (retries included) whatever decorators sit above: a cache hit is
// exactly an operation that never reached it.
type vfsRig struct {
	cfg   Config
	win   *browser.Window
	bufs  *buffer.Factory
	hub   *telemetry.Hub
	ops   *telemetry.Counter
	base  vfs.Backend
	seed  *vfs.FS // the bare instrumented backend: seeding bypasses every decorator
	stack vfs.Backend
	fs    *vfs.FS // the stack under test
}

// newVFSRig builds a rig with no decorators yet (see use).
func newVFSRig(cfg Config) *vfsRig {
	env := fleet.NewEnv(cfg.Browsers[0], nil)
	r := &vfsRig{cfg: cfg, win: env.Win, bufs: env.Bufs, hub: cfg.Telemetry}
	if cfg.Telemetry != nil {
		// A -trace run of the A/B gets dispatch spans too.
		r.win.EnableTelemetry(cfg.Telemetry)
	} else {
		r.hub = telemetry.NewHub()
	}
	inner := vfs.NewCloudFS(r.win.Loop, vfs.NewCloudStore(fsLatency))
	r.ops = r.hub.Registry.Counter("vfs."+inner.Name(), "ops")
	r.base = vfs.Instrument(inner, r.hub)
	r.seed = vfs.New(r.win.Loop, r.bufs, r.base)
	r.use()
	return r
}

// use puts the given decorators over the instrumented backend.
func (r *vfsRig) use(opts ...vfs.StackOption) {
	r.stack = vfs.Stack(r.base, opts...)
	r.fs = vfs.New(r.win.Loop, r.bufs, r.stack)
}

// replayPass is one measured trace replay.
type replayPass struct {
	ops  int64 // backend round trips
	ok   int   // trace operations that succeeded
	wall time.Duration
	log  string // one line per operation: kind, path, errno, data hash
}

// replay seeds the trace through the bare backend and replays it
// passes times through the stack.
func (r *vfsRig) replay(trace *fstrace.Trace, passes int) ([]replayPass, error) {
	var out []replayPass
	err := fleet.Drive(r.win.Loop, "replay", func(done func(error)) {
		var step func()
		step = func() {
			if len(out) == passes {
				done(nil)
				return
			}
			before, start := r.ops.Value(), time.Now()
			fstrace.ReplayVFSRecord(r.win.Loop, r.fs, trace, r.cfg.Telemetry, func(ok int, log []fstrace.OpResult, err error) {
				if err != nil {
					done(err)
					return
				}
				var lines strings.Builder
				for _, res := range log {
					fmt.Fprintln(&lines, res)
				}
				out = append(out, replayPass{r.ops.Value() - before, ok, time.Since(start), lines.String()})
				step()
			})
		}
		fstrace.SeedVFS(r.seed, trace, func(err error) {
			if err != nil {
				done(err)
				return
			}
			step()
		})
	})
	return out, err
}

// loadRound is one pass of loading every workload class.
type loadRound struct {
	ops     int64 // backend round trips
	classes int
	failed  int // classes that failed to load or came back different
}

// classload seeds every workload class under /cp2 through the bare
// backend, behind an empty /cp1 (so each load first probes and misses
// /cp1: the layout that makes negative stat caching matter), then
// loads them all rounds times through a VFSClassProvider over the
// stack.
func (r *vfsRig) classload(rounds int) ([]loadRound, error) {
	classes, err := workloads.Classes()
	if err != nil {
		return nil, err
	}
	names := sortedKeys(classes)
	provider := &jvm.VFSClassProvider{FS: r.fs, Dirs: []string{"/cp1", "/cp2"}}
	var out []loadRound
	err = fleet.Drive(r.win.Loop, "classload", func(done func(error)) {
		var cur loadRound
		var before int64
		var seed, load func(i int)
		seed = func(i int) {
			if i == len(names) {
				load(0)
				return
			}
			p := "/cp2/" + names[i] + ".class"
			r.seed.MkdirAll(p[:strings.LastIndexByte(p, '/')], func(err error) {
				if err != nil {
					done(err)
					return
				}
				r.seed.WriteFile(p, classes[names[i]], func(err error) {
					if err != nil {
						done(err)
						return
					}
					seed(i + 1)
				})
			})
		}
		load = func(i int) {
			if i == 0 {
				cur, before = loadRound{classes: len(names)}, r.ops.Value()
			}
			if i == len(names) {
				cur.ops = r.ops.Value() - before
				if out = append(out, cur); len(out) == rounds {
					done(nil)
				} else {
					load(0)
				}
				return
			}
			provider.BytesAsync(names[i], func(data []byte, err error) {
				if err != nil || !bytes.Equal(data, classes[names[i]]) {
					cur.failed++
				}
				load(i + 1)
			})
		}
		r.seed.MkdirAll("/cp1", func(err error) {
			if err != nil {
				done(err)
				return
			}
			seed(0)
		})
	})
	return out, err
}

// cacheStats reads the stack's cache counters (zero without a cache).
func (r *vfsRig) cacheStats() vfs.CacheStats {
	if cs, ok := vfs.Find[vfs.CacheStatser](r.stack); ok {
		return cs.CacheStats()
	}
	return vfs.CacheStats{}
}

// runFSCache compares the cloud backend bare (A) and under the cache
// decorator (B). Each run makes two passes, replaying the trace or
// loading every class; backend_ops is the second pass, so on the
// cached arm it is the warm pass, and cold_backend_ops the first.
func runFSCache(cfg Config, tp fstrace.GenerateParams) (*Report, error) {
	cfg = cfg.withDefaults()
	trace := fstrace.Generate(tp)
	rep := newReport("fscache", cfg, map[string]any{
		"backend":   "cloud",
		"trace_ops": len(trace.Ops),
		"latency":   fsLatency.String(),
	})
	rig := func(cached bool) *vfsRig {
		r := newVFSRig(cfg)
		if cached {
			r.use(vfs.WithCache(vfs.CacheOptions{Hub: r.hub}))
		}
		return r
	}
	var cache vfs.CacheStats
	replayArm := func(name string, cached bool) Arm {
		return Arm{name, func() (Sample, error) {
			r := rig(cached)
			p, err := r.replay(trace, 2)
			if err != nil {
				return Sample{}, err
			}
			if cached {
				cache = r.cacheStats()
			}
			return Sample{Metrics: map[string]float64{
				"cold_backend_ops": float64(p[0].ops),
				"backend_ops":      float64(p[1].ops),
				"cold_ok_ops":      float64(p[0].ok),
				"ok_ops":           float64(p[1].ok),
				"wall_ns":          float64(p[1].wall),
			}, Output: p[0].log + p[1].log}, nil
		}}
	}
	c, err := rep.compare(AB{Name: "replay", Pairs: fsPairs, SameOutput: true,
		A: replayArm("uncached", false), B: replayArm("cached", true)})
	if err != nil {
		return nil, err
	}
	rep.checkHalved(c)
	rep.Detail["replay_cache"] = cache

	loadArm := func(name string, cached bool) Arm {
		return Arm{name, func() (Sample, error) {
			r := rig(cached)
			rounds, err := r.classload(2)
			if err != nil {
				return Sample{}, err
			}
			if cached {
				cache = r.cacheStats()
			}
			return Sample{Metrics: map[string]float64{
				"cold_backend_ops": float64(rounds[0].ops),
				"backend_ops":      float64(rounds[1].ops),
				"classes":          float64(rounds[0].classes),
				"failed":           float64(rounds[0].failed + rounds[1].failed),
			}}, nil
		}}
	}
	if c, err = rep.compare(AB{Name: "classload", Pairs: fsPairs,
		A: loadArm("uncached", false), B: loadArm("cached", true)}); err != nil {
		return nil, err
	}
	rep.checkHalved(c)
	rep.checkLoaded(c)
	rep.Detail["classload_cache"] = cache
	return rep, nil
}

// checkHalved gates the cache: the warm pass must need at most half
// the backend round trips of the uncached one.
func (r *Report) checkHalved(c Comparison) {
	warm, okB := c.B.Metrics["backend_ops"]
	bare, okA := c.A.Metrics["backend_ops"]
	r.check(c.Name+": warm pass <= half the uncached backend ops", okA && okB && 2*warm.Max <= bare.Min,
		"%.0f vs %.0f uncached", warm.Max, bare.Min)
}

// checkLoaded requires every class load on both arms to be byte-exact.
func (r *Report) checkLoaded(c Comparison) {
	failed := maxMetric(c, "failed")
	r.check(c.Name+": every class loaded byte-exact", failed == 0, "%.0f failed in the worst run", failed)
}
