package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"doppio/internal/bench/workloads"
	"doppio/internal/browser"
	"doppio/internal/eventloop"
	"doppio/internal/jvm"
)

// interpWorkload runs four programs from internal/bench/workloads on
// the quickened Doppio engine, engine tax off, one fresh window and VM
// per run, while one goroutine posts seeded Poisson "user input"
// events to the loop. Interpretation is nearly all the work, so
// dispatch, quickening, jlong and allocation changes show here; the
// input stream turns §4.1 responsiveness into a number (latency_us_*
// is input lag: due time to handler start). VFS, mux and gateway
// changes should leave it flat; suspend/resume changes should move only
// its latency.
type interpWorkload struct {
	classes map[string][]byte
}

// interpProgram is one interp program with its fixed argument and its
// expected output. The outputs were produced by the native engine
// (TestInterpReferences re-derives them there), never by the engine
// under test.
type interpProgram struct {
	id, main            string
	arg, want           string
	smallArg, smallWant string
}

// The four programs stress the interpreter differently: virtual calls
// and fields, 64-bit arithmetic, a guest interpreter, and recursion
// with allocation. Arguments size each run to roughly 100 ms.
var interpRuns = []interpProgram{
	{id: "deltablue", main: "DeltaBlue", arg: "3", want: "deltablue check=163710\n",
		smallArg: "1", smallWant: "deltablue check=163710\n"},
	{id: "pidigits", main: "PiDigits", arg: "120",
		want:     "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803482534211706798214808651328230664\n",
		smallArg: "30", smallWant: "3.14159265358979323846264338327\n"},
	{id: "miniscript", main: "MiniScript", arg: "2", want: "recursive=0\nbinary-trees=-16\n",
		smallArg: "1", smallWant: "recursive=0\nbinary-trees=-16\n"},
	{id: "scheme", main: "SchemeMain", arg: "5", want: "nqueens(5)=10\n",
		smallArg: "4", smallWant: "nqueens(4)=2\n"},
}

// inputMeanGap is the mean gap between input events (an open loop:
// events are due on schedule whatever the page is doing).
const inputMeanGap = 4 * time.Millisecond

func (w *interpWorkload) setup(b *bench) error {
	classes, err := workloads.CompileWith(workloads.Sources())
	if err != nil {
		return fmt.Errorf("compiling workloads: %w", err)
	}
	w.classes = classes
	return nil
}

func (w *interpWorkload) close() {}

func (w *interpWorkload) iterate(b *bench, k int) {
	n := len(interpRuns)
	for i := 0; i < n; i++ {
		w.run(b, k, (k+i)%n)
	}
}

func (w *interpWorkload) run(b *bench, k, idx int) {
	prog := interpRuns[idx]
	arg, want := prog.arg, prog.want
	if b.p.small {
		arg, want = prog.smallArg, prog.smallWant
	}
	c := b.check(prog.id)
	defer c.done()
	span := b.tr.begin(layerProgram, prog.id, b.iterSpan)
	defer b.tr.end(span)

	win := browser.NewWindow(browser.Chrome28)
	var out strings.Builder
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &out,
		Provider:         jvm.MapProvider(w.classes),
		DisableEngineTax: true,
		Quicken:          true,
	})
	b.keepAlive(vm)
	var mem0 runtime.MemStats
	if b.tr != nil {
		runtime.ReadMemStats(&mem0)
	}
	rng := rand.New(rand.NewSource(b.p.seed*7919 + int64(k)*31 + int64(idx)))
	start := time.Now()
	in := startInput(win.Loop, rng, start, b.tr, span)
	var runErr error
	var runTime time.Duration
	finished := false
	vm.StartMain(prog.main, []string{arg}, func(err error) {
		runTime = time.Since(start)
		runErr, finished = err, true
		in.stop()
	})
	loopErr := win.Loop.Run()
	in.wait()

	c.expect(loopErr == nil, "event loop: %v", loopErr)
	c.expect(finished && runErr == nil, "run: finished=%v err=%v", finished, runErr)
	c.expect(out.String() == want, "stdout %q, want %q", out.String(), want)
	c.expect(in.handled == in.posted, "%d input events posted, %d handled", in.posted, in.handled)
	b.latencyUs = append(b.latencyUs, in.lagUs...)

	st := vm.Runtime().Stats()
	ls := win.Loop.Stats()
	b.layer.add("run_ms."+prog.id, ms(runTime))
	b.layer.add("jvm.instructions."+prog.id, float64(vm.Instructions))
	b.layer.add("jvm.ns_per_instruction."+prog.id, ratio(float64(runTime), float64(vm.Instructions)))
	b.layer.add("core.slice_ms_mean."+prog.id, ratio(ms(st.CPUTime), float64(st.Slices)))
	b.layer.add("eventloop.longest_task_ms."+prog.id, ms(ls.LongestTask))
	b.layer.add("input.gen_late_ms_p90", quantile(in.lateMs, 0.9))
	if b.tr != nil {
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		b.layer.add("go.alloc_mib."+prog.id, float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20))
		b.layer.add("go.gc_cycles."+prog.id, float64(mem1.NumGC-mem0.NumGC))
	}
}

// inputGen is the one generator goroutine: it posts input events to
// the loop through InvokeExternal at seeded Poisson arrival times until
// stopped, and holds the loop open meanwhile.
type inputGen struct {
	quit    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	posted  int       // generator goroutine; read after wait
	lateMs  []float64 // generator goroutine; read after wait
	handled int       // loop goroutine
	lagUs   []float64 // loop goroutine
}

func startInput(loop *eventloop.Loop, rng *rand.Rand, start time.Time, tr *recorder, parent int) *inputGen {
	g := &inputGen{quit: make(chan struct{})}
	gaps := func() time.Duration { return time.Duration(rng.ExpFloat64() * float64(inputMeanGap)) }
	loop.AddPending()
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer loop.DonePending()
		due := start.Add(gaps())
		timer := time.NewTimer(time.Until(due))
		defer timer.Stop()
		for {
			select {
			case <-g.quit:
				return
			case <-timer.C:
			}
			g.lateMs = append(g.lateMs, ms(time.Since(due)))
			at := due
			loop.InvokeExternal("input", func() {
				now := time.Now()
				id := tr.beginAt(layerInput, "", parent, now)
				g.handled++
				g.lagUs = append(g.lagUs, us(now.Sub(at)))
				tr.end(id)
			})
			g.posted++
			due = due.Add(gaps())
			timer.Reset(time.Until(due))
		}
	}()
	return g
}

// stop ends the generator; events already posted still run.
func (g *inputGen) stop() { g.once.Do(func() { close(g.quit) }) }

// wait returns once the generator goroutine has exited.
func (g *inputGen) wait() {
	g.stop()
	g.wg.Wait()
}
