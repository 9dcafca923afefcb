package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderBasics(t *testing.T) {
	f := NewFlightRecorder(8)
	base := time.Unix(0, 0)
	f.setClock(func() time.Time { return base })

	f.Record("sched", "slice", "main", 3)
	f.RecordNote("vfs", "open", "/tmp/x", "ENOENT", 0)

	if got := f.Total(); got != 2 {
		t.Fatalf("Total = %d, want 2", got)
	}
	if got := f.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	evs := f.Events()
	if len(evs) != 2 {
		t.Fatalf("Events len = %d, want 2", len(evs))
	}
	if evs[0].Cat != "sched" || evs[0].Event != "slice" || evs[0].Arg != 3 {
		t.Fatalf("first event mismatch: %+v", evs[0])
	}
	if evs[1].Label != "/tmp/x" || evs[1].Note != "ENOENT" {
		t.Fatalf("second event mismatch: %+v", evs[1])
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("seq mismatch: %d, %d", evs[0].Seq, evs[1].Seq)
	}
}

func TestFlightRecorderRingWrap(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Record("sched", "slice", "main", int64(i))
	}
	if got := f.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := f.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4 (capacity)", len(evs))
	}
	for i, ev := range evs {
		want := int64(6 + i)
		if ev.Arg != want || ev.Seq != uint64(want) {
			t.Fatalf("event %d = %+v, want arg/seq %d", i, ev, want)
		}
	}
}

func TestFlightRecorderTail(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 5; i++ {
		f.Record("c", "e", "", int64(i))
	}
	tail := f.Tail(2)
	if len(tail) != 2 || tail[0].Arg != 3 || tail[1].Arg != 4 {
		t.Fatalf("Tail(2) = %+v, want args 3,4", tail)
	}
	// Asking for more than retained returns everything retained.
	if got := f.Tail(100); len(got) != 5 {
		t.Fatalf("Tail(100) len = %d, want 5", len(got))
	}
	if got := f.Tail(0); len(got) != 5 {
		t.Fatalf("Tail(0) len = %d, want 5", len(got))
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record("c", "e", "l", 1) // must not panic
	f.RecordNote("c", "e", "l", "n", 1)
	if f.Tail(5) != nil || f.Events() != nil {
		t.Fatal("nil recorder should return nil slices")
	}
	if f.Total() != 0 || f.Dropped() != 0 || f.Cap() != 0 {
		t.Fatal("nil recorder counters should be zero")
	}
}

func TestFlightRecorderDefaultCapacity(t *testing.T) {
	if got := NewFlightRecorder(0).Cap(); got != DefaultFlightCapacity {
		t.Fatalf("Cap = %d, want %d", got, DefaultFlightCapacity)
	}
	if got := NewFlightRecorder(-3).Cap(); got != DefaultFlightCapacity {
		t.Fatalf("Cap = %d, want %d", got, DefaultFlightCapacity)
	}
}

// TestFlightRecorderConcurrent exercises concurrent Record/Tail under
// the race detector.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Record("c", "e", "worker", int64(g))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			f.Tail(16)
			f.Dropped()
		}
	}()
	wg.Wait()
	if got := f.Total(); got != 2000 {
		t.Fatalf("Total = %d, want 2000", got)
	}
	evs := f.Events()
	if len(evs) != 64 {
		t.Fatalf("retained = %d, want 64", len(evs))
	}
	// Seqs must be contiguous after concurrent writes.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seq at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestFormatFlight(t *testing.T) {
	f := NewFlightRecorder(8)
	base := time.Unix(1000, 0)
	n := 0
	f.setClock(func() time.Time { n++; return base.Add(time.Duration(n) * time.Millisecond) })
	f.RecordNote("vfs", "read", "/a/b", "EIO", 42)
	f.Record("comp", "block", "monitorenter:Queue", 2)

	text := FormatFlight(f.Events())
	for _, want := range []string{"vfs", "read", "/a/b", "[EIO]", "(42)", "comp", "block", "monitorenter:Queue"} {
		if !strings.Contains(text, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, text)
		}
	}
	if got := FormatFlight(nil); !strings.Contains(got, "no events") {
		t.Fatalf("empty format = %q", got)
	}
}

func TestWriteFlightJSON(t *testing.T) {
	f := NewFlightRecorder(4)
	f.Record("sock", "frame", "client->target", 128)
	var buf bytes.Buffer
	if err := WriteFlightJSON(&buf, f.Events()); err != nil {
		t.Fatal(err)
	}
	var out []FlightEvent
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(out) != 1 || out[0].Cat != "sock" || out[0].Arg != 128 {
		t.Fatalf("round-trip mismatch: %+v", out)
	}
	// nil events still produce a valid (empty) array.
	buf.Reset()
	if err := WriteFlightJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil events = %q, want []", buf.String())
	}
}

func TestHubEnableFlight(t *testing.T) {
	h := NewHub().EnableFlight(16)
	if h.Flight == nil || h.Flight.Cap() != 16 {
		t.Fatalf("EnableFlight did not attach a 16-slot recorder: %+v", h.Flight)
	}
	// A plain hub leaves Flight nil so hot paths pay only a nil check.
	if NewHub().Flight != nil {
		t.Fatal("NewHub should not attach a flight recorder")
	}
}
