package ops_test

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"doppio/internal/ops"
	"doppio/internal/telemetry"
)

// profServer builds a server over hub, whose guest profiler is
// pre-folded (no live VM needed — the handlers only read snapshots),
// with one registered source per name.
func profServer(t *testing.T, hub *telemetry.Hub, sources ...string) *httptest.Server {
	t.Helper()
	s := ops.NewServer(hub)
	for _, name := range sources {
		s.Register(ops.Source{Name: name})
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestProfileEndpoints(t *testing.T) {
	hub := telemetry.NewHub().EnableProfiling()
	prof := hub.Profiler
	prof.SampleCPU([]string{"Main.main", "Work.churn:12"}, 3*time.Millisecond)
	prof.SampleCPU([]string{"Main.main", "Work.churn:12"}, 2*time.Millisecond)
	prof.SampleCPU([]string{"Main.main:40"}, time.Millisecond)
	prof.SampleAlloc([]string{"Main.main", "Work.churn:5"}, 128)
	prof.SampleBlock([]string{"Main.main", "monitor(Work)"}, 4*time.Millisecond)
	ts := profServer(t, hub, "guest")

	// Collapsed stacks, cumulative window (sec=0 skips the sleep).
	code, body := get(t, ts.URL+"/debug/profile?sec=0")
	if code != http.StatusOK {
		t.Fatalf("/debug/profile status = %d: %s", code, body)
	}
	if !strings.Contains(body, "Main.main;Work.churn:12 5000000") {
		t.Errorf("collapsed output missing folded stack:\n%s", body)
	}

	// JSON form round-trips and carries the kind.
	code, body = get(t, ts.URL+"/debug/profile?sec=0&format=json")
	if code != http.StatusOK {
		t.Fatalf("json status = %d", code)
	}
	var snap struct {
		Kind    string `json:"kind"`
		Entries []struct {
			Stack []string `json:"stack"`
			Value int64    `json:"value"`
		} `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("json decode: %v\n%s", err, body)
	}
	if snap.Kind != "cpu" || len(snap.Entries) != 2 {
		t.Errorf("json snapshot kind=%q entries=%d, want cpu/2", snap.Kind, len(snap.Entries))
	}

	// The other two profile kinds are reachable by name.
	if _, body = get(t, ts.URL+"/debug/profile?sec=0&kind=alloc"); !strings.Contains(body, "Work.churn:5") {
		t.Errorf("alloc profile missing site:\n%s", body)
	}
	if _, body = get(t, ts.URL+"/debug/profile?sec=0&kind=block"); !strings.Contains(body, "monitor(Work)") {
		t.Errorf("block profile missing wait label:\n%s", body)
	}
	if code, _ = get(t, ts.URL+"/debug/profile?sec=0&kind=nope"); code != http.StatusBadRequest {
		t.Errorf("unknown kind status = %d, want 400", code)
	}

	// The pprof endpoint serves a gzipped protobuf whose string table
	// carries the guest method names.
	resp, err := http.Get(ts.URL + "/debug/guest-pprof?sec=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/guest-pprof status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content-type %q", ct)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	for _, want := range []string{"Main.main", "Work.churn", "nanoseconds", "(guest)"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("pprof payload missing %q", want)
		}
	}
}

// TestProfileServedOncePerProfiler pins that the endpoints serve the
// hub profiler's own totals however many sources are registered: a
// harness that registers every run of a sweep (doppio-bench -prof
// -ops) must not multiply the profile by the number of runs.
func TestProfileServedOncePerProfiler(t *testing.T) {
	hub := telemetry.NewHub().EnableProfiling()
	hub.Profiler.SampleCPU([]string{"Main.main", "Work.churn:12"}, 5*time.Millisecond)
	ts := profServer(t, hub, "deltablue @ Chrome 28", "deltablue @ IE 10", "richards @ Chrome 28")

	if _, body := get(t, ts.URL+"/debug/profile?sec=0"); body != "Main.main;Work.churn:12 5000000\n" {
		t.Errorf("/debug/profile = %q, want the profiler's one 5 ms sample", body)
	}

	resp, err := http.Get(ts.URL + "/debug/guest-pprof?sec=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	// Profile.sample (field 2) holds Sample.value (field 2) as packed
	// varints: one cpu sample of 5 ms.
	var values [][]uint64
	for _, f := range protoFields(t, raw) {
		if f.num != 2 {
			continue
		}
		for _, sf := range protoFields(t, f.payload) {
			if sf.num != 2 {
				continue
			}
			var vals []uint64
			for data := sf.payload; len(data) > 0; {
				v, n := protoVarint(t, data)
				vals = append(vals, v)
				data = data[n:]
			}
			values = append(values, vals)
		}
	}
	if len(values) != 1 || len(values[0]) != 2 || values[0][0] != 1 || values[0][1] != 5000000 {
		t.Errorf("/debug/guest-pprof sample values = %v, want [[1 5000000]]", values)
	}
}

// TestPostMortemHotStacks pins the post-mortem's third profile
// surface: Collect reads the head of the hub profiler's CPU profile.
func TestPostMortemHotStacks(t *testing.T) {
	hub := telemetry.NewHub().EnableProfiling()
	hub.Profiler.SampleCPU([]string{"Main.main", "Work.churn:12"}, 5*time.Millisecond)
	rep := ops.Collect(hub, ops.Source{Name: "guest"}, "deadlock", "")
	if len(rep.HotStacks) != 1 || rep.HotStacks[0].Value != int64(5*time.Millisecond) {
		t.Fatalf("hot stacks = %+v, want the one 5 ms sample", rep.HotStacks)
	}
	if text := rep.Text(); !strings.Contains(text, "== guest hot stacks (cpu) ==") ||
		!strings.Contains(text, "Main.main;Work.churn:12") {
		t.Errorf("post-mortem text lacks the hot-stack section:\n%s", text)
	}
	if rep := ops.Collect(telemetry.NewHub(), ops.Source{Name: "guest"}, "deadlock", ""); rep.HotStacks != nil {
		t.Errorf("unprofiled hub reported hot stacks %+v", rep.HotStacks)
	}
}

type protoField struct {
	num     int
	payload []byte
}

// protoFields splits a protobuf message into its top-level fields,
// keeping the payloads of length-delimited ones.
func protoFields(t *testing.T, data []byte) []protoField {
	t.Helper()
	var out []protoField
	for len(data) > 0 {
		key, n := protoVarint(t, data)
		data = data[n:]
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			_, n = protoVarint(t, data)
			data = data[n:]
		case 2:
			ln, n := protoVarint(t, data)
			data = data[n:]
			f.payload = data[:ln]
			data = data[ln:]
		default:
			t.Fatalf("unexpected wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out
}

func protoVarint(t *testing.T, data []byte) (uint64, int) {
	t.Helper()
	var v uint64
	for i := 0; i < len(data); i++ {
		v |= uint64(data[i]&0x7f) << (7 * i)
		if data[i] < 0x80 {
			return v, i + 1
		}
	}
	t.Fatal("truncated varint")
	return 0, 0
}

// TestProfileEndpointDisabled pins the no-profiler path, for a server
// without a hub and for a hub without a profiler: 404 with a hint, not
// an empty 200 an operator would misread as "idle guest".
func TestProfileEndpointDisabled(t *testing.T) {
	for _, hub := range []*telemetry.Hub{nil, telemetry.NewHub()} {
		ts := profServer(t, hub, "guest")
		for _, path := range []string{"/debug/profile", "/debug/guest-pprof"} {
			code, body := get(t, ts.URL+path)
			if code != http.StatusNotFound || !strings.Contains(body, "-prof") {
				t.Errorf("%s: status %d body %q, want 404 with -prof hint", path, code, body)
			}
		}
	}
}

// TestMetricsFlightGauges pins the flight-recorder health gauges on
// /metrics: totals, drops, and capacity are exported whenever the
// ring exists.
func TestMetricsFlightGauges(t *testing.T) {
	hub := telemetry.NewHub().EnableFlight(128)
	for i := 0; i < 3; i++ {
		hub.Flight.Record("test", "event", "x", int64(i))
	}
	s := ops.NewServer(hub)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"doppio_telemetry_flight_events_total 3",
		"doppio_telemetry_flight_dropped_total 0",
		"doppio_telemetry_flight_capacity 128",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}
