package jvm

import (
	"strconv"
	"strings"
)

// stackTrace is a throwable's captured stack, innermost frame first,
// kept in Object.Extra. Capture copies each frame's method and pc by
// value — popped frames are recycled, so a frame pointer would later
// describe some other call — and nothing is formatted until something
// prints the trace: an uncaught-exception banner or
// Throwable.stackTraceString. Exceptions used for control flow (a
// guest interpreter's return signal, say) never pay for formatting.
type stackTrace []traceFrame

// traceFrame is one captured frame.
type traceFrame struct {
	m  *Method
	pc int
}

// String renders the trace the way both engines print it: one
// "\tat pkg.Class.method(pc=N)" line per frame.
func (st stackTrace) String() string {
	var b strings.Builder
	for _, f := range st {
		b.WriteString("\tat ")
		b.WriteString(strings.ReplaceAll(f.m.Class.Name, "/", "."))
		b.WriteByte('.')
		b.WriteString(f.m.Name)
		b.WriteString("(pc=")
		b.WriteString(strconv.Itoa(f.pc))
		b.WriteString(")\n")
	}
	return b.String()
}

// traceOf returns the trace captured for ex (empty if none was).
func traceOf(ex *Object) stackTrace {
	st, _ := ex.Extra.(stackTrace)
	return st
}
