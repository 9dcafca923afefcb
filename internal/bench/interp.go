// Interpreter speed-tier A/B (BENCH_interp.json): the same workload on
// the Doppio engine with the warm-up rewriter (quickened bytecodes,
// inline caches, superinstructions) off and on, at equal timeslice,
// with the engine-tax model disabled so the A/B isolates real dispatch
// work. Besides the timed pairs, the report carries the quickening
// counters and a "Not So Fast"-style per-opcode attribution table from
// a separate instrumented pass per arm (telemetry itself costs a
// branch per bytecode, so the timed runs go without it).
package bench

import (
	"sort"
	"strings"
	"time"

	"doppio/internal/bench/workloads"
	"doppio/internal/fleet"
	"doppio/internal/jvm"
	"doppio/internal/telemetry"
)

// interpPairs is the interpreter A/B's pair count.
const interpPairs = 5

// OpCount is one row of the per-opcode attribution table.
type OpCount struct {
	Op    string  `json:"op"`
	Count int64   `json:"count"`
	Share float64 `json:"share"`
}

// runInterpAB runs DeltaBlue (field- and virtual-call-heavy) generic
// vs quickened and gates the quickened p50 at 2x.
func runInterpAB(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Timeslice == 0 {
		cfg.Timeslice = 2 * time.Millisecond
	}
	classes, err := workloads.Classes()
	if err != nil {
		return nil, err
	}
	spec, prof := MicroWorkloads[0], cfg.Browsers[0]
	rep := newReport("interp", cfg, map[string]any{
		"workload":   spec.ID,
		"browser":    prof.Name,
		"timeslice":  cfg.Timeslice.String(),
		"engine_tax": false,
	})
	run := func(quicken bool, hub *telemetry.Hub) (Sample, *jvm.DoppioVM, error) {
		s, vm, err := runJVM(fleet.NewEnv(prof, hub).Win, jvm.DoppioOptions{
			Provider:         jvm.MapProvider(classes),
			Timeslice:        cfg.Timeslice,
			DisableEngineTax: true,
			Quicken:          quicken,
		}, spec.Main, spec.Args(cfg.Scale))
		if err == nil {
			// Identical across runs of an arm: the workload is
			// deterministic, and a fused pair dispatches once.
			s.Metrics["instructions"] = float64(vm.Instructions)
		}
		return s, vm, err
	}
	var quick jvm.QuickStats
	arm := func(quicken bool) func() (Sample, error) {
		return func() (Sample, error) {
			s, vm, err := run(quicken, nil)
			if err == nil && quicken {
				quick = vm.QuickStats()
			}
			return s, err
		}
	}
	c, err := rep.compare(AB{Name: "quicken", Pairs: interpPairs, SameOutput: true,
		A: Arm{"generic", arm(false)}, B: Arm{"quickened", arm(true)}})
	if err != nil {
		return nil, err
	}
	speedup := c.A.Metrics["wall_ns"].P50 / c.B.Metrics["wall_ns"].P50
	rep.check("quickened p50 >= 2x generic", speedup >= 2, "%.2fx", speedup)
	rep.Detail["quick_stats"] = quick
	// Attribution: which opcodes dominate dynamic dispatch. On the
	// quickened arm the counts are raw opcodes at dispatched pcs (a
	// fused pair counts once, at its first opcode).
	for _, a := range []struct {
		name    string
		quicken bool
	}{{"top_ops_generic", false}, {"top_ops_quickened", true}} {
		hub := telemetry.NewHub()
		if _, _, err := run(a.quicken, hub); err != nil {
			return nil, err
		}
		rep.Detail[a.name] = topOps(hub, 12)
	}
	return rep, nil
}

// topOps extracts the k most executed opcodes from the per-opcode
// counters a VM flushed into hub.
func topOps(hub *telemetry.Hub, k int) []OpCount {
	var rows []OpCount
	var total int64
	for _, c := range hub.Registry.Snapshot().Counters {
		if c.Subsystem != "jvm" || !strings.HasPrefix(c.Name, "op.") {
			continue
		}
		rows = append(rows, OpCount{Op: strings.TrimPrefix(c.Name, "op."), Count: c.Value})
		total += c.Value
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Count > rows[j].Count })
	if len(rows) > k {
		rows = rows[:k]
	}
	for i := range rows {
		if total > 0 {
			rows[i].Share = float64(rows[i].Count) / float64(total)
		}
	}
	return rows
}
