package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// DefaultFlightCapacity is the ring size used when EnableFlight is
// given a non-positive capacity. At ~100 bytes per event the default
// window costs well under a megabyte.
const DefaultFlightCapacity = 4096

// FlightEvent is one entry of the flight recorder: a structured,
// fixed-shape record of something the runtime just did. Events carry
// no maps or nested structures so recording never allocates beyond
// the ring itself.
type FlightEvent struct {
	// Seq is the global record sequence number (monotonic, never
	// reset); gaps never occur, so Seq - oldest retained Seq tells a
	// reader how far back the window reaches.
	Seq uint64 `json:"seq"`
	// TS is the wall-clock capture time.
	TS time.Time `json:"ts"`
	// Cat is the emitting subsystem: "sched", "comp", "loop", "vfs",
	// "fault", "sock".
	Cat string `json:"cat"`
	// Event names what happened within the category ("slice", "block",
	// "settle", "open", "inject", ...).
	Event string `json:"event"`
	// Label carries the operation's identity: a completion label, a
	// path, a peer address.
	Label string `json:"label,omitempty"`
	// Note carries a short outcome qualifier, typically an errno
	// string or fault kind; empty means success / not applicable.
	Note string `json:"note,omitempty"`
	// Arg is the event's numeric payload (slice count, byte count,
	// thread ID, ...); meaning depends on (Cat, Event).
	Arg int64 `json:"arg,omitempty"`
}

// FlightRecorder is a fixed-capacity ring buffer of recent runtime
// events — the black box every post-mortem report ends with. Recording
// is cheap (one short critical section, no allocation) and the ring
// overwrites the oldest entry when full, so an always-on recorder has
// bounded memory forever.
//
// Following the package's nil-hook convention, a nil *FlightRecorder
// is a valid no-op receiver: instrumented packages hold the (possibly
// nil) pointer from Hub.Flight and call Record unconditionally, so a
// build without flight recording pays only a nil check.
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []FlightEvent
	next uint64 // total events ever recorded; buf[(next-1)%cap] is newest
	now  func() time.Time
}

// NewFlightRecorder creates a recorder retaining the last capacity
// events (DefaultFlightCapacity when non-positive).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{buf: make([]FlightEvent, capacity), now: time.Now}
}

// setClock replaces the time source (tests only, before recording).
func (f *FlightRecorder) setClock(now func() time.Time) { f.now = now }

// Record appends an event to the ring, overwriting the oldest entry
// when the ring is full. Safe for concurrent use; a no-op on a nil
// recorder.
func (f *FlightRecorder) Record(cat, event, label string, arg int64) {
	f.RecordNote(cat, event, label, "", arg)
}

// RecordNote is Record with an outcome note (typically an errno string
// or fault kind).
func (f *FlightRecorder) RecordNote(cat, event, label, note string, arg int64) {
	if f == nil {
		return
	}
	at := f.now()
	f.mu.Lock()
	f.buf[f.next%uint64(len(f.buf))] = FlightEvent{
		Seq: f.next, TS: at,
		Cat: cat, Event: event, Label: label, Note: note, Arg: arg,
	}
	f.next++
	f.mu.Unlock()
}

// Cap returns the ring capacity (0 on a nil recorder).
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.buf)
}

// Total returns the number of events ever recorded.
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Dropped returns how many events the ring has overwritten.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next <= uint64(len(f.buf)) {
		return 0
	}
	return f.next - uint64(len(f.buf))
}

// Tail returns a copy of the newest n retained events, oldest first.
// n <= 0 (or n larger than the retained window) returns everything
// retained. Returns nil on a nil recorder.
func (f *FlightRecorder) Tail(n int) []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	retained := f.next
	if retained > uint64(len(f.buf)) {
		retained = uint64(len(f.buf))
	}
	if n <= 0 || uint64(n) > retained {
		n = int(retained)
	}
	out := make([]FlightEvent, 0, n)
	for i := f.next - uint64(n); i < f.next; i++ {
		out = append(out, f.buf[i%uint64(len(f.buf))])
	}
	return out
}

// Events returns the full retained window, oldest first.
func (f *FlightRecorder) Events() []FlightEvent { return f.Tail(0) }

// FormatFlight renders events as a human-readable table, one line per
// event, oldest first — the form post-mortem reports and the ops
// server's /debug/flight endpoint print.
func FormatFlight(events []FlightEvent) string {
	var b strings.Builder
	b.WriteString("== flight recorder ==\n")
	if len(events) == 0 {
		b.WriteString("(no events recorded)\n")
		return b.String()
	}
	start := events[0].TS
	for _, ev := range events {
		fmt.Fprintf(&b, "%8d %+10.3fms %-8s %-12s", ev.Seq,
			float64(ev.TS.Sub(start).Microseconds())/1000, ev.Cat, ev.Event)
		if ev.Label != "" {
			fmt.Fprintf(&b, " %s", ev.Label)
		}
		if ev.Note != "" {
			fmt.Fprintf(&b, " [%s]", ev.Note)
		}
		if ev.Arg != 0 {
			fmt.Fprintf(&b, " (%d)", ev.Arg)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteFlightJSON serializes events as a JSON array.
func WriteFlightJSON(w io.Writer, events []FlightEvent) error {
	if events == nil {
		events = []FlightEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(events)
}
