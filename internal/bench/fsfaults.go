// Fault-injection A/B (BENCH_fsfaults.json): the same fstrace replay
// and class loads through the full decorator stack (backend → faults
// → retry → cache), once clean and once with deterministic faults
// injected under the retry layer. The claim is behavioural, not
// statistical: the faulty arm must produce a bit-identical op log and
// load every class byte-exact, proving the retry layer absorbed every
// injected fault, and it must have injected errno faults and short
// transfers and retried them, or the first two checks prove nothing.
package bench

import (
	"time"

	"doppio/internal/fstrace"
	"doppio/internal/vfs"
	"doppio/internal/vfs/faultfs"
	"doppio/internal/vfs/retry"
)

// fsFaultRate is the per-operation fault probability of the faulty
// arm, on the simulated cloud backend whose network the fault model
// stands in for.
const fsFaultRate = 0.1

// fsFaultPlan is the faulty arm's mix: errno faults at fsFaultRate (a
// quarter of them post-commit, the lost-ack case), short transfers at
// half of it.
func fsFaultPlan(seed int64) faultfs.Plan {
	return faultfs.Plan{Seed: seed, ErrRate: fsFaultRate, PostFrac: 0.25, ShortRate: fsFaultRate / 2}
}

// faultRetryPolicy is the harness's retry policy: generous attempts so
// absorption is all but certain at fsFaultRate, short waits so the
// bench stays fast, jitter seeded for repeatability.
func faultRetryPolicy(seed int64) retry.Policy {
	return retry.Policy{
		MaxAttempts: 8,
		BaseDelay:   200 * time.Microsecond,
		MaxDelay:    4 * time.Millisecond,
		Jitter:      0.2,
		Seed:        seed,
	}
}

// runFSFaultsAB compares the clean stack (A) with the faulty one (B);
// cfg.Seed fixes the fault sequence and the retry jitter.
func runFSFaultsAB(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	trace := fstrace.Generate(fsTrace(cfg.Scale))
	rep := newReport("fsfaults", cfg, map[string]any{
		"backend":    "cloud",
		"fault_rate": fsFaultRate,
		"trace_ops":  len(trace.Ops),
		"latency":    fsLatency.String(),
	})
	var faults faultfs.Stats
	var retries vfs.RetryStats
	var cache vfs.CacheStats
	rig := func(faulty bool) *vfsRig {
		r := newVFSRig(cfg)
		opts := []vfs.StackOption{
			vfs.WithRetry(vfs.RetryOptions{Policy: faultRetryPolicy(cfg.Seed), Loop: r.win.Loop, Hub: r.hub}),
			vfs.WithCache(vfs.CacheOptions{Hub: r.hub}),
		}
		if faulty {
			opts = append(opts, vfs.WithFaults(fsFaultPlan(cfg.Seed)))
		}
		r.use(opts...)
		return r
	}
	// stats keeps the faulty arm's decorator counters from its last run.
	stats := func(r *vfsRig, faulty bool) {
		if !faulty {
			return
		}
		faults, retries = faultfs.Stats{}, vfs.RetryStats{}
		if fs, ok := vfs.Find[vfs.FaultStatser](r.stack); ok {
			faults = fs.FaultStats()
		}
		if rs, ok := vfs.Find[vfs.RetryStatser](r.stack); ok {
			retries = rs.RetryStats()
		}
		cache = r.cacheStats()
	}
	replayArm := func(name string, faulty bool) Arm {
		return Arm{name, func() (Sample, error) {
			r := rig(faulty)
			p, err := r.replay(trace, 1)
			if err != nil {
				return Sample{}, err
			}
			stats(r, faulty)
			return Sample{Metrics: map[string]float64{
				"backend_ops": float64(p[0].ops),
				"ok_ops":      float64(p[0].ok),
				"wall_ns":     float64(p[0].wall),
			}, Output: p[0].log}, nil
		}}
	}
	if _, err := rep.compare(AB{Name: "replay", Pairs: fsPairs, SameOutput: true,
		A: replayArm("clean", false), B: replayArm("faulty", true)}); err != nil {
		return nil, err
	}
	rep.checkInjected("replay", faults, retries)
	rep.Detail["replay_faults"], rep.Detail["replay_retry"], rep.Detail["replay_cache"] = faults, retries, cache

	loadArm := func(name string, faulty bool) Arm {
		return Arm{name, func() (Sample, error) {
			r := rig(faulty)
			rounds, err := r.classload(1)
			if err != nil {
				return Sample{}, err
			}
			stats(r, faulty)
			return Sample{Metrics: map[string]float64{
				"backend_ops": float64(rounds[0].ops),
				"classes":     float64(rounds[0].classes),
				"failed":      float64(rounds[0].failed),
			}}, nil
		}}
	}
	c, err := rep.compare(AB{Name: "classload", Pairs: fsPairs,
		A: loadArm("clean", false), B: loadArm("faulty", true)})
	if err != nil {
		return nil, err
	}
	rep.checkLoaded(c)
	rep.checkInjected(c.Name, faults, retries)
	rep.Detail["classload_faults"], rep.Detail["classload_retry"] = faults, retries
	return rep, nil
}

// checkInjected requires the faulty arm's last run to have met faults
// of both kinds and retried: an arm that injected nothing matches the
// clean one trivially.
func (r *Report) checkInjected(name string, f faultfs.Stats, rt vfs.RetryStats) {
	r.check(name+": faulty arm injected and retried",
		f.ErrsPre+f.ErrsPost > 0 && f.Shorts > 0 && rt.Retries > 0,
		"%d errno faults (%d post-commit), %d short transfers, %d retries",
		f.ErrsPre+f.ErrsPost, f.ErrsPost, f.Shorts, rt.Retries)
}
