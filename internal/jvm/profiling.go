// profiling.go wires the guest profiler (internal/profile) into both
// JVM engines. The profiler needs three things from an engine: a
// root-first stack walk over its explicit frames, CPU sample points,
// and allocation-site hooks. The Doppio engine takes the profiler from
// its window's telemetry hub, the native engine from
// NativeOptions.Telemetry.
//
// Frame strings are "Class.method" for caller frames and
// "Class.method:pc" at the leaf — the pc is the *original* bytecode
// pc in every tier: the quickening side tables are indexed by
// original pc and the bytecode is never rewritten, so the quickened,
// pre-decoded, and generic interpreters attribute samples to the same
// source positions (the property the fidelity tests pin down).
//
// Sample points per engine:
//
//   - DoppioVM is sampled by its core.Runtime, which walks each
//     DThread through core.StackWalker: at the suspend clock's
//     counter-expiry probe (§4.1 — a timestamp is already being read
//     there), at the end of every timeslice, and when a labelled
//     Completion wait ends (the contention profile).
//   - NativeVM has no core.Runtime; its scheduler samples inside the
//     execute() quantum loop on an instruction countdown, and at
//     quantum boundaries. Its monitors block threads without
//     Completions, so native-engine contention is out of scope for
//     the block profile (DESIGN.md §17).
package jvm

import (
	"strconv"
	"strings"
	"time"

	"doppio/internal/profile"
)

// profFrame renders one frame string; leaf frames carry the pc.
func profFrame(m *Method, pc int, leaf bool) string {
	name := strings.ReplaceAll(m.Class.Name, "/", ".") + "." + m.Name
	if leaf {
		name += ":" + strconv.Itoa(pc)
	}
	return name
}

// profObjBytes estimates the heap footprint of one instance: a header
// plus one word per field slot (the flat slot layout's own measure).
func profObjBytes(c *Class) int64 {
	return 16 + 8*int64(c.Layout().Slots)
}

// profArrayBytes estimates an array's footprint from its element
// descriptor.
func profArrayBytes(elemDesc string, n int32) int64 {
	if n < 0 {
		n = 0
	}
	size := int64(8)
	switch elemDesc {
	case "B", "Z":
		size = 1
	case "C", "S":
		size = 2
	case "I", "F":
		size = 4
	}
	return 16 + size*int64(n)
}

// GuestStack walks a Doppio thread's frames root-first; the runtime's
// sampler reaches it through core.StackWalker.
func (d *DThread) GuestStack() []string {
	n := len(d.frames)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i, f := range d.frames {
		out[i] = profFrame(f.m, f.pc, i == n-1)
	}
	return out
}

// profAlloc samples one allocation event of the given estimated size
// at the current Doppio stack, subject to the profiler's 1-in-N gate.
func (d *DThread) profAlloc(bytes int64) {
	p := d.vm.prof
	if !p.AllocReady() {
		return
	}
	p.SampleAlloc(d.GuestStack(), bytes)
}

// profHeapAlloc is the unmanaged heap's allocation observer while
// profiling: it samples at the running thread's stack, or under
// "(host)" for allocations made outside guest code.
func (vm *DoppioVM) profHeapAlloc(n int) {
	if !vm.prof.AllocReady() {
		return
	}
	if d := vm.cur; d != nil {
		vm.prof.SampleAlloc(append(d.GuestStack(), "(umheap)"), int64(n))
		return
	}
	vm.prof.SampleAlloc([]string{"(host)", "(umheap)"}, int64(n))
}

// --- native engine ---

// profCheckEvery is the native engine's instruction countdown between
// clock reads — the analog of the Doppio suspend counter's expiry.
const profCheckEvery = 8192

// profStackN walks a native thread's frames root-first.
func profStackN(t *NThread) []string {
	n := len(t.frames)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i, f := range t.frames {
		out[i] = profFrame(f.m, f.pc, i == n-1)
	}
	return out
}

// profHeapAlloc is the native engine's unmanaged-heap allocation
// observer while profiling.
func (vm *NativeVM) profHeapAlloc(n int) {
	if !vm.prof.AllocReady() {
		return
	}
	if t := vm.cur; t != nil {
		vm.prof.SampleAlloc(append(profStackN(t), "(umheap)"), int64(n))
		return
	}
	vm.prof.SampleAlloc([]string{"(host)", "(umheap)"}, int64(n))
}

// profAllocN samples one native-engine allocation event.
func (vm *NativeVM) profAllocN(t *NThread, bytes int64) {
	if !vm.prof.AllocReady() {
		return
	}
	vm.prof.SampleAlloc(profStackN(t), bytes)
}

// profQuantumStart resets the on-CPU cursor at the top of a scheduler
// quantum, so time the thread spent off the CPU is never attributed.
func (vm *NativeVM) profQuantumStart() {
	vm.profLast = time.Now()
	vm.profCheck = profCheckEvery
}

// profTick is the in-quantum sample point: every profCheckEvery
// instructions the execute loop lands here; once the profiler's
// sampling interval has elapsed the window is attributed to the
// current stack.
func (vm *NativeVM) profTick(t *NThread) {
	vm.profCheck = profCheckEvery
	now := time.Now()
	dt := now.Sub(vm.profLast)
	if dt < profile.CPUInterval {
		return
	}
	vm.profLast = now
	if st := profStackN(t); st != nil {
		vm.prof.SampleCPU(st, dt)
	}
}

// profQuantumEnd closes out a quantum, attributing the tail window
// (below the interval gate) so sampled time tracks real CPU time.
func (vm *NativeVM) profQuantumEnd(t *NThread) {
	dt := time.Since(vm.profLast)
	if dt <= 0 {
		return
	}
	if st := profStackN(t); st != nil {
		vm.prof.SampleCPU(st, dt)
	}
}
