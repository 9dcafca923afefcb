package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"doppio/internal/eventloop"
)

// Event-loop option sets mirroring the browser profiles the runtime
// cares about (§4.4). The core package cannot import the browser
// package (browser sits above core), so tests drive the loop directly.
func ie10Opts() eventloop.Options {
	return eventloop.Options{HasSetImmediate: true, MinTimeoutDelay: 4 * time.Millisecond}
}

func chromeOpts() eventloop.Options {
	return eventloop.Options{MinTimeoutDelay: 4 * time.Millisecond}
}

func ie8Opts() eventloop.Options {
	return eventloop.Options{SyncPostMessage: true, MinTimeoutDelay: 16 * time.Millisecond}
}

// spinner is a CPU-bound resumable computation: it burns CPU in small
// steps, checking for suspension after each, exactly as a language
// implementation checks at call boundaries.
type spinner struct {
	steps, done int
	stepCost    time.Duration
}

func (s *spinner) Run(t *Thread) RunResult {
	for s.done < s.steps {
		spin(s.stepCost)
		s.done++
		if t.CheckSuspend() {
			return Yield
		}
	}
	return Done
}

func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

func newTestRuntime(opts eventloop.Options, cfg Config) (*eventloop.Loop, *Runtime) {
	loop := eventloop.New(opts)
	return loop, NewRuntime(loop, cfg)
}

func TestMechanismSelection(t *testing.T) {
	cases := []struct {
		name string
		opts eventloop.Options
		want string
	}{
		{"ie10", ie10Opts(), "setImmediate"},
		{"chrome", chromeOpts(), "postMessage"},
		{"ie8", ie8Opts(), "setTimeout"}, // sync postMessage forces fallback (§4.4)
	}
	for _, c := range cases {
		_, rt := newTestRuntime(c.opts, Config{})
		if rt.Mechanism() != c.want {
			t.Errorf("%s: mechanism = %q, want %q", c.name, rt.Mechanism(), c.want)
		}
	}
}

func TestForceMechanism(t *testing.T) {
	_, rt := newTestRuntime(chromeOpts(), Config{ForceMechanism: "setTimeout"})
	if rt.Mechanism() != "setTimeout" {
		t.Errorf("mechanism = %q", rt.Mechanism())
	}
}

func TestSegmentationSurvivesWatchdog(t *testing.T) {
	// 300 ms of total CPU work under a 50 ms watchdog: only possible
	// if Doppio slices it into short events.
	opts := chromeOpts()
	opts.WatchdogLimit = 50 * time.Millisecond
	loop, rt := newTestRuntime(opts, Config{Timeslice: 5 * time.Millisecond})
	s := &spinner{steps: 3000, stepCost: 100 * time.Microsecond}
	rt.Spawn("main", s)
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatalf("watchdog killed a segmented program: %v", err)
	}
	if s.done != s.steps {
		t.Errorf("done = %d, want %d", s.done, s.steps)
	}
	if rt.Stats().Suspensions == 0 {
		t.Error("program never suspended")
	}
}

func TestMonolithicEventIsKilled(t *testing.T) {
	// The same total work in one event must be killed — this is why
	// automatic event segmentation is required (§3.1).
	opts := chromeOpts()
	opts.WatchdogLimit = 50 * time.Millisecond
	loop := eventloop.New(opts)
	loop.Post("monolith", func() { spin(300 * time.Millisecond) })
	if _, ok := loop.Run().(*eventloop.WatchdogError); !ok {
		t.Fatal("monolithic long event survived the watchdog")
	}
}

func TestSuspensionTimeAccounted(t *testing.T) {
	loop, rt := newTestRuntime(chromeOpts(), Config{Timeslice: 2 * time.Millisecond})
	rt.Spawn("main", &spinner{steps: 400, stepCost: 50 * time.Microsecond})
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Suspensions < 2 {
		t.Errorf("Suspensions = %d, want several", st.Suspensions)
	}
	if st.SuspendedTime <= 0 {
		t.Error("SuspendedTime not accounted")
	}
	if st.CPUTime <= 0 {
		t.Error("CPUTime not accounted")
	}
}

func TestMultithreadingInterleaves(t *testing.T) {
	loop, rt := newTestRuntime(chromeOpts(), Config{Timeslice: time.Millisecond})
	var trace []string
	a := &spinner{steps: 400, stepCost: 30 * time.Microsecond}
	b := &spinner{steps: 400, stepCost: 30 * time.Microsecond}
	ta := rt.Spawn("a", a)
	tb := rt.Spawn("b", b)
	ta.Join(func() { trace = append(trace, "a-done") })
	tb.Join(func() { trace = append(trace, "b-done") })
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if a.done != 400 || b.done != 400 {
		t.Errorf("threads incomplete: a=%d b=%d", a.done, b.done)
	}
	if rt.Stats().ContextSwitches == 0 {
		t.Error("threads never interleaved")
	}
	if len(trace) != 2 {
		t.Errorf("join callbacks = %v", trace)
	}
}

// yielder runs for `rounds` slices, recording its tag into *order on
// each slice, then finishes. It yields cooperatively (never burns a
// full timeslice), which is how scheduling order becomes deterministic.
type yielder struct {
	tag    string
	rounds int
	order  *[]string
}

func (y *yielder) Run(t *Thread) RunResult {
	*y.order = append(*y.order, y.tag)
	y.rounds--
	if y.rounds > 0 {
		return Yield
	}
	return Done
}

func TestDeterministicRoundRobin(t *testing.T) {
	// Same-priority threads must rotate in strict spawn order: the run
	// queue is FIFO within a level.
	loop, rt := newTestRuntime(chromeOpts(), Config{})
	rt.runq.agingThreshold = 0
	var order []string
	for _, tag := range []string{"a", "b", "c"} {
		rt.Spawn(tag, &yielder{tag: tag, rounds: 3, order: &order})
	}
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a b c a b c a b c"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("schedule = %q, want %q", got, want)
	}
}

func TestPriorityOrdering(t *testing.T) {
	// With aging disabled, a higher-priority thread runs to completion
	// before a lower-priority one gets a single slice.
	loop, rt := newTestRuntime(chromeOpts(), Config{})
	rt.runq.agingThreshold = 0
	var order []string
	lo := rt.Spawn("lo", &yielder{tag: "lo", rounds: 3, order: &order})
	hi := rt.Spawn("hi", &yielder{tag: "hi", rounds: 3, order: &order})
	lo.SetPriority(MinPriority)
	hi.SetPriority(MaxPriority)
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	want := "hi hi hi lo lo lo"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("schedule = %q, want %q", got, want)
	}
	if lo.Priority() != MinPriority || hi.Priority() != MaxPriority {
		t.Errorf("priorities = %d, %d", lo.Priority(), hi.Priority())
	}
}

func TestSetPriorityClamps(t *testing.T) {
	_, rt := newTestRuntime(chromeOpts(), Config{})
	th := rt.Spawn("t", RunnableFunc(func(*Thread) RunResult { return Done }))
	th.SetPriority(99)
	if th.Priority() != MaxPriority {
		t.Errorf("priority = %d, want %d", th.Priority(), MaxPriority)
	}
	th.SetPriority(-5)
	if th.Priority() != MinPriority {
		t.Errorf("priority = %d, want %d", th.Priority(), MinPriority)
	}
}

func TestStarvationAging(t *testing.T) {
	// A low-priority thread waiting at its level's head must preempt
	// the high-priority level after agingThreshold scheduling decisions,
	// instead of starving until the high-priority thread exits.
	loop, rt := newTestRuntime(chromeOpts(), Config{})
	rt.runq.agingThreshold = 4
	var order []string
	lo := rt.Spawn("lo", &yielder{tag: "lo", rounds: 2, order: &order})
	rt.Spawn("hi", &yielder{tag: "hi", rounds: 40, order: &order}).SetPriority(MaxPriority)
	lo.SetPriority(MinPriority)
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	first := -1
	for i, tag := range order {
		if tag == "lo" {
			first = i
			break
		}
	}
	if first == -1 {
		t.Fatal("low-priority thread starved: never ran")
	}
	if first > 10 {
		t.Errorf("low-priority thread first ran at slice %d, want aging to kick in by ~5", first)
	}
}

func TestKillMidBatch(t *testing.T) {
	// A thread killed by another thread while it sits in the run queue
	// must never run again.
	loop, rt := newTestRuntime(chromeOpts(), Config{})
	var victim *Thread
	victimRan := false
	rt.Spawn("killer", RunnableFunc(func(*Thread) RunResult {
		victim.Kill()
		return Done
	}))
	victim = rt.Spawn("victim", RunnableFunc(func(*Thread) RunResult {
		victimRan = true
		return Done
	}))
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if victimRan {
		t.Error("killed thread ran")
	}
	if victim.State() != TerminatedState {
		t.Errorf("victim state = %v", victim.State())
	}
}

func TestBatchRespectsBudget(t *testing.T) {
	// Regression: a macrotask must never grow with the amount of
	// pending work. The watchdog is the arbiter: 300 ms of CPU across
	// four threads under a 50 ms limit with a 2 ms timeslice must
	// survive.
	opts := chromeOpts()
	opts.WatchdogLimit = 50 * time.Millisecond
	loop, rt := newTestRuntime(opts, Config{Timeslice: 2 * time.Millisecond})
	for i := 0; i < 4; i++ {
		rt.Spawn("w", &spinner{steps: 750, stepCost: 100 * time.Microsecond})
	}
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatalf("a macrotask overran the watchdog: %v", err)
	}
	if lt := loop.Stats().LongestTask; lt > 40*time.Millisecond {
		t.Errorf("LongestTask = %v, want well under the watchdog limit", lt)
	}
}

func TestOneSlicePerMacrotask(t *testing.T) {
	// The §4.1/§4.4 policy: every macrotask runs exactly one timeslice
	// and pays one resumption round trip before the next, however
	// short the slice and however many threads are ready. Only the
	// first slice, posted by Start, skips the mechanism.
	loop, rt := newTestRuntime(chromeOpts(), Config{Timeslice: time.Millisecond})
	var order []string
	for _, tag := range []string{"a", "b", "c"} {
		rt.Spawn(tag, &yielder{tag: tag, rounds: 4, order: &order})
	}
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Slices != 12 {
		t.Fatalf("Slices = %d, want 12", st.Slices)
	}
	if st.Suspensions != st.Slices-1 {
		t.Errorf("Suspensions = %d over %d slices, want one round trip per slice after the first",
			st.Suspensions, st.Slices)
	}
}

// blocker exercises the §4.2 sync-over-async bridge: it "calls" an
// asynchronous API and continues with the result as if the call had
// been synchronous.
type blocker struct {
	loop   *eventloop.Loop
	phase  int
	result []byte
}

func (b *blocker) Run(t *Thread) RunResult {
	switch b.phase {
	case 0:
		b.phase = 1
		if t.AsyncCall("idb-get", func(done func()) {
			b.loop.SetTimeout(func() {
				b.result = []byte("hello")
				done()
			}, time.Millisecond)
		}) {
			return Block
		}
		return Done
	default:
		return Done
	}
}

func TestBlockingOnAsyncAPI(t *testing.T) {
	loop, rt := newTestRuntime(chromeOpts(), Config{})
	bl := &blocker{loop: loop}
	rt.Spawn("main", bl)
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if string(bl.result) != "hello" {
		t.Errorf("result = %q", bl.result)
	}
}

// sleeper sleeps once and finishes.
type sleeper struct {
	d     time.Duration
	slept bool
	woke  time.Time
}

func (s *sleeper) Run(t *Thread) RunResult {
	if !s.slept {
		s.slept = true
		t.Sleep(s.d)
		return Block
	}
	s.woke = time.Now()
	return Done
}

func TestSleep(t *testing.T) {
	loop, rt := newTestRuntime(chromeOpts(), Config{})
	s := &sleeper{d: 20 * time.Millisecond}
	start := time.Now()
	rt.Spawn("sleeper", s)
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.woke.Sub(start); got < 20*time.Millisecond {
		t.Errorf("woke after %v, want >= 20ms", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	loop, rt := newTestRuntime(chromeOpts(), Config{})
	rt.Spawn("stuck", RunnableFunc(func(t *Thread) RunResult {
		t.Block("never-resumed")
		return Block
	}))
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	dead := rt.DeadlockedThreads()
	if len(dead) != 1 || dead[0].Name != "stuck" {
		t.Errorf("DeadlockedThreads = %v", dead)
	}
}

func TestDeadlockReportCarriesLabels(t *testing.T) {
	// Deadlock reports must name the completion each thread is stuck
	// on, so "worker#2 on monitorenter:Queue"-style diagnostics work.
	loop, rt := newTestRuntime(chromeOpts(), Config{})
	rt.Spawn("stuck", RunnableFunc(func(th *Thread) RunResult {
		c := NewCompletion(loop, "monitorenter:Queue")
		c.Await(th)
		return Block
	}))
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	report := rt.DeadlockReport()
	if !strings.Contains(report, "stuck#1 on monitorenter:Queue") {
		t.Errorf("DeadlockReport() = %q, want thread and completion label", report)
	}
	if got := rt.DeadlockedThreads()[0].BlockedOn(); got != "monitorenter:Queue" {
		t.Errorf("BlockedOn() = %q", got)
	}
}

func TestOnIdle(t *testing.T) {
	loop, rt := newTestRuntime(chromeOpts(), Config{})
	idle := false
	rt.OnIdle(func() { idle = true })
	rt.Spawn("main", &spinner{steps: 10, stepCost: time.Microsecond})
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if !idle {
		t.Error("OnIdle never fired")
	}
}

func TestDoubleResumePanics(t *testing.T) {
	loop, rt := newTestRuntime(chromeOpts(), Config{})
	var resume func()
	rt.Spawn("main", RunnableFunc(func(th *Thread) RunResult {
		if resume == nil {
			resume = th.Block("test")
			loop.Post("kick", resume)
			return Block
		}
		return Done
	}))
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("second resume did not panic")
		}
	}()
	resume()
}

func TestKill(t *testing.T) {
	loop, rt := newTestRuntime(chromeOpts(), Config{Timeslice: time.Millisecond})
	s := &spinner{steps: 1_000_000, stepCost: 10 * time.Microsecond}
	th := rt.Spawn("victim", s)
	// Kill it after a few slices.
	loop.SetTimeout(func() { th.Kill() }, 10*time.Millisecond)
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if th.State() != TerminatedState {
		t.Errorf("state = %v", th.State())
	}
	if s.done == s.steps {
		t.Error("victim ran to completion despite Kill")
	}
}

func TestIE8SetTimeoutSuspendIsSlow(t *testing.T) {
	// On IE8 every suspension pays the 16 ms setTimeout clamp; the same
	// workload on Chrome (postMessage) suspends nearly for free. This
	// is the §4.4 motivation.
	work := func(opts eventloop.Options) (time.Duration, Stats) {
		loop, rt := newTestRuntime(opts, Config{Timeslice: 2 * time.Millisecond})
		rt.Spawn("main", &spinner{steps: 600, stepCost: 25 * time.Microsecond})
		start := time.Now()
		rt.Start()
		if err := loop.Run(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start), rt.Stats()
	}
	chromeWall, chromeStats := work(chromeOpts())
	ie8Wall, ie8Stats := work(ie8Opts())
	if ie8Stats.Suspensions == 0 || chromeStats.Suspensions == 0 {
		t.Skip("workload too fast to suspend on this machine")
	}
	chromePerSuspend := chromeWall / time.Duration(chromeStats.Suspensions)
	ie8PerSuspend := ie8Wall / time.Duration(ie8Stats.Suspensions)
	if ie8PerSuspend <= chromePerSuspend {
		t.Errorf("IE8 per-suspend %v <= Chrome per-suspend %v; setTimeout clamp not modelled",
			ie8PerSuspend, chromePerSuspend)
	}
}

func TestThreadStateString(t *testing.T) {
	states := map[ThreadState]string{
		ReadyState: "ready", RunningState: "running",
		BlockedState: "blocked", TerminatedState: "terminated",
		ThreadState(99): "unknown",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestAdaptiveClockConvergesToTimeslice(t *testing.T) {
	// Run a long CPU-bound workload and verify each event-loop task
	// stays in the neighbourhood of the timeslice (no watchdog kills,
	// longest task well under 10x the slice).
	opts := chromeOpts()
	opts.WatchdogLimit = time.Second
	loop, rt := newTestRuntime(opts, Config{Timeslice: 5 * time.Millisecond})
	rt.Spawn("main", &spinner{steps: 20000, stepCost: 10 * time.Microsecond})
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if longest := loop.Stats().LongestTask; longest > 100*time.Millisecond {
		t.Errorf("LongestTask = %v; adaptive quantum failed to bound events", longest)
	}
}

// TestStarvationAgingAtFleetDepth is the aging property at hosting
// scale: 64 minimum-priority tenants behind 4 max-priority hogs. With
// aging armed, the low-priority queue's head must keep preempting, so
// every tenant gets its first slice while the hogs are still running
// — none may be pushed to the end of the schedule.
func TestStarvationAgingAtFleetDepth(t *testing.T) {
	const (
		hogs      = 4
		hogRounds = 200
		tenants   = 64
	)
	loop, rt := newTestRuntime(chromeOpts(), Config{})
	rt.runq.agingThreshold = 8
	var order []string
	for i := 0; i < hogs; i++ {
		rt.Spawn(fmt.Sprintf("hog-%d", i),
			&yielder{tag: "hog", rounds: hogRounds, order: &order}).SetPriority(MaxPriority)
	}
	for i := 0; i < tenants; i++ {
		rt.Spawn(fmt.Sprintf("tenant-%d", i),
			&yielder{tag: fmt.Sprintf("t%02d", i), rounds: 1, order: &order}).SetPriority(MinPriority)
	}
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}

	first := make(map[string]int, tenants)
	for i, tag := range order {
		if tag != "hog" {
			if _, ok := first[tag]; !ok {
				first[tag] = i
			}
		}
	}
	if len(first) != tenants {
		t.Fatalf("only %d of %d tenants ever ran", len(first), tenants)
	}
	hogTotal := hogs * hogRounds
	maxFirst := 0
	for _, i := range first {
		if i > maxFirst {
			maxFirst = i
		}
	}
	// Without aging every tenant's first slice would land after all
	// hogTotal hog slices. With threshold 8, one tenant is promoted
	// roughly every 8 picks, so even the last tenant must first-run
	// well inside the hogs' span.
	if maxFirst >= hogTotal {
		t.Errorf("slowest tenant first ran at slice %d, after the hogs' %d slices — starved",
			maxFirst, hogTotal)
	}
	if want := tenants * 16; maxFirst > want {
		t.Errorf("slowest tenant first ran at slice %d, want aging to fit all within ~%d",
			maxFirst, want)
	}
}
