package main

import (
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// probeRef is the nominal probe time: end-to-end times are reported as
// wall time scaled by probeRef over the measured probe time, i.e. in
// time on a host where the probe takes exactly probeRef.
const probeRef = 10 * time.Millisecond

// The compute probe's working set, allocated once.
var (
	probeTable = make([]uint32, 1<<18) // 1 MiB
	probeMap   = make(map[uint32]uint32, 4096)
	probeSink  uint32
)

type probeNode struct {
	next *probeNode
	v    uint32
}

// probe times fixed pure-Go work that shares no code with the program
// under test: integer arithmetic, branches and random accesses over a
// 1 MiB table and a map, small allocations, and a token passed between
// two goroutines — the interpreter's mix plus the cross-thread wake-ups
// the event loop, the gateway and the socket pumps pay per message. On a
// shared host its time tracks the speed the process gets at the moment,
// and the benchmark divides its timings by it, so a slow phase of the
// host does not read as a slower program.
//
// The allocations run with the collector off, and the caller has just
// collected, so the probe's time does not depend on the program's heap;
// its garbage is collected before probe returns.
func probe() time.Duration {
	compute := medianRun(probeCompute)
	gc := debug.SetGCPercent(-1)
	alloc := medianRun(probeAlloc)
	debug.SetGCPercent(gc)
	runtime.GC()

	ping, pong, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for range ping {
			pong <- struct{}{}
		}
	}()
	handoff := medianRun(func() {
		for i := 0; i < 150; i++ {
			ping <- struct{}{}
			<-pong
		}
	})
	close(ping)
	<-done
	return compute + alloc + handoff
}

// medianRun runs f three times and returns its median time, so a burst
// on the host during one run is ignored.
func medianRun(f func()) time.Duration {
	var runs [3]time.Duration
	for i := range runs {
		start := time.Now()
		f()
		runs[i] = time.Since(start)
	}
	sort.Slice(runs[:], func(i, j int) bool { return runs[i] < runs[j] })
	return runs[len(runs)/2]
}

func probeCompute() {
	x, acc := uint32(1), uint32(0)
	for i := 0; i < 200_000; i++ {
		x = x*1664525 + 1013904223
		j := x >> 14
		v := probeTable[j]
		switch x & 3 {
		case 0:
			probeMap[x&4095] += v
		case 1:
			probeTable[(j+v)&(1<<18-1)] = v + x
		case 2:
			acc += v ^ x
		default:
			acc = acc*31 + probeTable[acc&(1<<18-1)]
		}
	}
	probeSink += x + acc
}

func probeAlloc() {
	var head *probeNode
	x := uint32(1)
	for i := 0; i < 50_000; i++ {
		x = x*1664525 + 1013904223
		head = &probeNode{next: head, v: x}
		if i%256 == 0 {
			head = nil
		}
	}
	probeSink += x
}

// refFactor converts a wall time measured between probes p0 and p1
// into reference time.
func refFactor(p0, p1 time.Duration) float64 {
	return float64(2*probeRef) / float64(p0+p1)
}
