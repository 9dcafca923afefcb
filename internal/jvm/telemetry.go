package jvm

import (
	"fmt"

	"doppio/internal/classfile"
	"doppio/internal/telemetry"
)

// vmTelemetry holds the DoppioVM's pre-resolved telemetry handles.
// The interpreter runs on the single event-loop goroutine, so the
// per-opcode counts are plain int64s incremented without atomics and
// published to the registry in bulk when the VM finishes (and on
// demand via FlushTelemetry).
type vmTelemetry struct {
	reg         *telemetry.Registry
	tracer      *telemetry.Tracer
	methodSpans bool

	opCounts    [256]int64
	invocations int64

	nativeCalls  *telemetry.Counter
	nativeLat    *telemetry.Histogram
	classLoadLat *telemetry.Histogram
	classLoads   *telemetry.Counter
}

// FlushTelemetry publishes the interpreter's accumulated per-opcode
// execution counts (as jvm/op.<mnemonic> counters) and invocation
// count to the registry, then zeroes the accumulators. The VM flushes
// automatically when main finishes.
func (vm *DoppioVM) FlushTelemetry() {
	tel := vm.tel
	if tel == nil {
		return
	}
	for op, n := range tel.opCounts {
		if n == 0 {
			continue
		}
		tel.reg.Counter("jvm", "op."+opMnemonic(byte(op))).Add(n)
		tel.opCounts[op] = 0
	}
	if tel.invocations != 0 {
		tel.reg.Counter("jvm", "invocations").Add(tel.invocations)
		tel.invocations = 0
	}
}

func opMnemonic(op byte) string {
	if name := classfile.OpNames[op]; name != "" {
		return name
	}
	return fmt.Sprintf("0x%02x", op)
}

// methodSpanBegin opens a per-invocation trace span on the thread's
// track (opt-in via Hub.MethodSpans: a busy run has millions of
// invocations).
func (d *DThread) methodSpanBegin(m *Method) telemetry.Span {
	tel := d.vm.tel
	if tel == nil || !tel.methodSpans || tel.tracer == nil {
		return telemetry.Span{}
	}
	return tel.tracer.Begin(telemetry.TIDCoreThread(d.coreT.ID), "jvm", m.Class.Name+"."+m.Name)
}
