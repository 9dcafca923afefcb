package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"doppio/internal/eventloop"
)

func TestCompletionSingleFire(t *testing.T) {
	loop := eventloop.New(chromeOpts())
	c := NewCompletion(loop, "op")
	if c.Settled() {
		t.Fatal("fresh completion settled")
	}
	calls := 0
	c.Then(func(v interface{}, err error) { calls++ })
	if !c.Resolve("first", nil) {
		t.Fatal("first Resolve reported false")
	}
	if c.Resolve("second", errors.New("late")) {
		t.Fatal("second Resolve reported true")
	}
	if calls != 1 {
		t.Errorf("callback ran %d times", calls)
	}
	if c.Value() != "first" || c.Err() != nil {
		t.Errorf("Value/Err = %v, %v; later resolution leaked in", c.Value(), c.Err())
	}
	if c.Label() != "op" {
		t.Errorf("Label = %q", c.Label())
	}
}

func TestCompletionThenAfterSettleRunsImmediately(t *testing.T) {
	loop := eventloop.New(chromeOpts())
	c := NewCompletion(loop, "op")
	c.Resolve(42, nil)
	got := 0
	c.Then(func(v interface{}, err error) { got = v.(int) })
	if got != 42 {
		t.Errorf("late Then saw %d", got)
	}
}

func TestCompletionCallbacksBeforeResume(t *testing.T) {
	// Then callbacks deposit results; the awaiting thread must observe
	// them when it resumes.
	loop, rt := newTestRuntime(chromeOpts(), Config{})
	var order []string
	phase := 0
	rt.Spawn("main", RunnableFunc(func(th *Thread) RunResult {
		if phase == 0 {
			phase = 1
			c := NewCompletion(loop, "op")
			c.Then(func(interface{}, error) { order = append(order, "callback") })
			loop.SetTimeout(func() { c.Resolve(nil, nil) }, time.Millisecond)
			c.Await(th)
			return Block
		}
		order = append(order, "resumed")
		return Done
	}))
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "callback" || order[1] != "resumed" {
		t.Errorf("order = %v, want [callback resumed]", order)
	}
}

func TestCompletionAwaitSynchronousPath(t *testing.T) {
	// A completion that settles before Await means the thread never
	// blocks — the §4.2 fast path.
	loop, rt := newTestRuntime(chromeOpts(), Config{})
	blocked := true
	rt.Spawn("main", RunnableFunc(func(th *Thread) RunResult {
		c := NewCompletion(loop, "op")
		c.Resolve("sync", nil)
		blocked = c.Await(th)
		return Done
	}))
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if blocked {
		t.Error("Await blocked on a settled completion")
	}
}

func TestCompletionResolverFromGoroutines(t *testing.T) {
	// Resolver must (a) hold the loop's pending slot so Run waits for
	// the result, and (b) collapse racing settlements to one delivery.
	loop, rt := newTestRuntime(chromeOpts(), Config{})
	resolutions := 0
	phase := 0
	rt.Spawn("main", RunnableFunc(func(th *Thread) RunResult {
		if phase == 0 {
			phase = 1
			c := NewCompletion(loop, "op")
			c.Then(func(interface{}, error) { resolutions++ })
			resolve := c.Resolver()
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					resolve(n, nil)
				}(i)
			}
			wg.Wait()
			c.Await(th)
			return Block
		}
		return Done
	}))
	rt.Start()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if resolutions != 1 {
		t.Errorf("resolved %d times, want 1", resolutions)
	}
}

func TestAfterRunsOnLoop(t *testing.T) {
	loop := eventloop.New(chromeOpts())
	start := time.Now()
	var elapsed time.Duration
	After(loop, "backoff", 10*time.Millisecond, func() { elapsed = time.Since(start) })
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed == 0 {
		t.Fatal("After callback never ran")
	}
	if elapsed < 10*time.Millisecond {
		t.Errorf("After fired at %v, want >= 10ms", elapsed)
	}
}

func TestAfterZeroDelay(t *testing.T) {
	loop := eventloop.New(chromeOpts())
	ran := false
	After(loop, "immediate", 0, func() { ran = true })
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("zero-delay After never ran")
	}
}
