package profile

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFoldAndSnapshot(t *testing.T) {
	p := New()
	stack := []string{"Main.main", "Main.work:12"}
	p.SampleCPU(stack, 3*time.Millisecond)
	p.SampleCPU(stack, 2*time.Millisecond)
	p.SampleCPU([]string{"Main.main", "Main.idle:4"}, time.Millisecond)

	s := p.Snapshot(CPU)
	if len(s.Entries) != 2 {
		t.Fatalf("want 2 folded stacks, got %d: %+v", len(s.Entries), s.Entries)
	}
	top := s.Entries[0]
	if got := strings.Join(top.Stack, ";"); got != "Main.main;Main.work:12" {
		t.Fatalf("top stack = %q", got)
	}
	if top.Count != 2 || top.Value != int64(5*time.Millisecond) {
		t.Fatalf("top entry = %+v", top)
	}
	if p.Samples() != 3 {
		t.Fatalf("Samples() = %d", p.Samples())
	}
}

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	p.SampleCPU([]string{"a"}, time.Second)
	p.SampleAlloc([]string{"a"}, 100)
	p.SampleBlock([]string{"a"}, time.Second)
	if p.AllocReady() {
		t.Fatal("nil profiler must never ask for alloc samples")
	}
	if n := len(p.Snapshot(CPU).Entries); n != 0 {
		t.Fatalf("nil snapshot has %d entries", n)
	}
	if p.TopMethods(CPU, 5) != nil {
		t.Fatal("nil TopMethods should be empty")
	}
}

func TestAllocGateAndScaling(t *testing.T) {
	p := New()
	sampled := 0
	for i := 0; i < 10*AllocRate; i++ {
		if p.AllocReady() {
			sampled++
			p.SampleAlloc([]string{"Main.alloc:7"}, 16)
		}
	}
	if sampled != 10 {
		t.Fatalf("1-in-%d gate sampled %d of %d", AllocRate, sampled, 10*AllocRate)
	}
	s := p.Snapshot(Alloc)
	if len(s.Entries) != 1 {
		t.Fatalf("entries: %+v", s.Entries)
	}
	// Each sampled event scales by the rate: 10 samples stand for
	// 10*AllocRate objects of 16 bytes.
	if s.Entries[0].Count != 10*AllocRate || s.Entries[0].Value != 10*16*AllocRate {
		t.Fatalf("scaled alloc entry = %+v", s.Entries[0])
	}
}

func TestDeltaWindow(t *testing.T) {
	p := New()
	p.SampleCPU([]string{"a", "b:1"}, 10*time.Millisecond)
	before := p.Snapshot(CPU)
	p.SampleCPU([]string{"a", "b:1"}, 5*time.Millisecond)
	p.SampleCPU([]string{"a", "c:2"}, time.Millisecond)
	d := Delta(before, p.Snapshot(CPU))
	if len(d.Entries) != 2 {
		t.Fatalf("delta entries: %+v", d.Entries)
	}
	if d.Entries[0].Value != int64(5*time.Millisecond) || d.Entries[0].Count != 1 {
		t.Fatalf("delta top = %+v", d.Entries[0])
	}
}

func TestTopMethodsStripsPC(t *testing.T) {
	p := New()
	p.SampleCPU([]string{"Main.main", "Main.work:12"}, 2*time.Millisecond)
	p.SampleCPU([]string{"Main.main", "Main.work:44"}, 3*time.Millisecond)
	p.SampleCPU([]string{"Main.main", "Main.other:1"}, time.Millisecond)
	top := p.TopMethods(CPU, 1)
	if len(top) != 1 || top[0].Method != "Main.work" {
		t.Fatalf("top methods = %+v", top)
	}
	if top[0].Value != int64(5*time.Millisecond) || top[0].Count != 2 {
		t.Fatalf("merged pc weights = %+v", top[0])
	}
}

// TestReportAtExit pins the drivers' -prof/-prof-out exit path: the
// hot-method table with the sample count, or the snapshot written to
// a file and named on w.
func TestReportAtExit(t *testing.T) {
	p := New()
	p.SampleCPU([]string{"Main.main", "Main.work:12"}, 2*time.Millisecond)
	var buf bytes.Buffer
	p.ReportAtExit(&buf, "tool", "", time.Second)
	if got := buf.String(); !strings.HasPrefix(got, "tool: guest hot methods (1 cpu samples):\n") ||
		!strings.Contains(got, "2.0ms") || !strings.Contains(got, "Main.work\n") {
		t.Fatalf("hot-method report = %q", got)
	}

	path := filepath.Join(t.TempDir(), "cpu.txt")
	buf.Reset()
	p.ReportAtExit(&buf, "tool", path, time.Second)
	if got, want := buf.String(), "tool: guest profile written to "+path+"\n"; got != want {
		t.Fatalf("file report = %q, want %q", got, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(data); got != "Main.main;Main.work:12 2000000\n" {
		t.Fatalf("collapsed file = %q", got)
	}

	buf.Reset()
	(*Profiler)(nil).ReportAtExit(&buf, "tool", path, time.Second)
	if buf.Len() != 0 {
		t.Fatalf("nil profiler reported %q", buf.String())
	}
}

func TestCollapsedOutput(t *testing.T) {
	p := New()
	p.SampleCPU([]string{"a", "b", "c:3"}, 7*time.Nanosecond)
	var buf bytes.Buffer
	if err := p.Snapshot(CPU).WriteCollapsed(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a;b;c:3 7\n" {
		t.Fatalf("collapsed = %q", got)
	}
}

func TestConcurrentSampling(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stack := []string{"root", fmt.Sprintf("leaf%d:1", g%2)}
			for i := 0; i < 500; i++ {
				p.SampleCPU(stack, time.Microsecond)
				if p.AllocReady() {
					p.SampleAlloc(stack, 8)
				}
				p.SampleBlock(stack, time.Microsecond)
				if i%100 == 0 {
					_ = p.Snapshot(CPU)
					_ = p.TopMethods(Alloc, 3)
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, e := range p.Snapshot(CPU).Entries {
		total += e.Count
	}
	if total != 8*500 {
		t.Fatalf("lost samples: %d of %d", total, 8*500)
	}
}

// pprofScan is a minimal protobuf walker: it returns the top-level
// (field, wire-type-2 payload | varint) pairs of a message.
type pprofField struct {
	num     int
	varint  uint64
	payload []byte
}

func pprofScan(t *testing.T, data []byte) []pprofField {
	t.Helper()
	var out []pprofField
	for len(data) > 0 {
		key, n := pprofVarint(t, data)
		data = data[n:]
		f := pprofField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			f.varint, n = pprofVarint(t, data)
			data = data[n:]
		case 2:
			ln, n2 := pprofVarint(t, data)
			data = data[n2:]
			f.payload = data[:ln]
			data = data[ln:]
		default:
			t.Fatalf("unexpected wire type %d for field %d", key&7, f.num)
		}
		out = append(out, f)
	}
	return out
}

func pprofVarint(t *testing.T, data []byte) (uint64, int) {
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

func TestPprofEncoding(t *testing.T) {
	p := New()
	p.SampleCPU([]string{"Main.main", "Main.work:12"}, 5*time.Millisecond)
	p.SampleCPU([]string{"Main.main"}, time.Millisecond)
	var buf bytes.Buffer
	if err := p.Snapshot(CPU).WritePprof(&buf, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("output is not gzip: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}

	var sampleTypes, samples, locations, functions int
	var strs []string
	for _, f := range pprofScan(t, raw) {
		switch f.num {
		case profSampleType:
			sampleTypes++
		case profSample:
			samples++
			// Each sample carries exactly two packed values.
			var vals []uint64
			for _, sf := range pprofScan(t, f.payload) {
				if sf.num == sampleValue {
					for data := sf.payload; len(data) > 0; {
						v, n := pprofVarint(t, data)
						vals = append(vals, v)
						data = data[n:]
					}
				}
			}
			if len(vals) != 2 {
				t.Fatalf("sample has %d values", len(vals))
			}
		case profLocation:
			locations++
		case profFunction:
			functions++
		case profStringTable:
			strs = append(strs, string(f.payload))
		}
	}
	if sampleTypes != 2 || samples != 2 {
		t.Fatalf("sample_types=%d samples=%d", sampleTypes, samples)
	}
	// Frames: Main.main, Main.work:12 → 2 locations, 2 functions
	// (Main.main, Main.work).
	if locations != 2 || functions != 2 {
		t.Fatalf("locations=%d functions=%d", locations, functions)
	}
	if len(strs) == 0 || strs[0] != "" {
		t.Fatalf("string_table[0] must be empty, got %q", strs)
	}
	want := map[string]bool{"Main.main": false, "Main.work": false, "cpu": false, "nanoseconds": false}
	for _, s := range strs {
		if _, ok := want[s]; ok {
			want[s] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("string table missing %q: %q", k, strs)
		}
	}
}

// TestPprofSchemaFields pins every emitted top-level field to the
// profile.proto schema — number AND wire type. Encoding period_type
// under comment's field number (13 instead of 11) produced bytes that
// still scanned as protobuf but made `go tool pprof` reject the file;
// only a schema-exact check catches that class of bug.
func TestPprofSchemaFields(t *testing.T) {
	p := New()
	p.SampleCPU([]string{"Main.main", "Main.work:12"}, time.Millisecond)
	var buf bytes.Buffer
	if err := p.Snapshot(CPU).WritePprof(&buf, time.Second); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	// Profile message: field → wants length-delimited payload.
	delimited := map[int]bool{
		1: true, 2: true, 3: true, 4: true, 5: true, 6: true, // sample_type..string_table
		9: false, 10: false, // time_nanos, duration_nanos
		11: true, 12: false, // period_type, period
	}
	seen := map[int]bool{}
	for _, f := range pprofScan(t, raw) {
		wantPayload, ok := delimited[f.num]
		if !ok {
			t.Errorf("field %d is not part of the emitted pprof schema", f.num)
			continue
		}
		if gotPayload := f.payload != nil; gotPayload != wantPayload {
			t.Errorf("field %d: delimited=%v, want %v", f.num, gotPayload, wantPayload)
		}
		seen[f.num] = true
	}
	for _, num := range []int{1, 2, 4, 5, 6, 11, 12} {
		if !seen[num] {
			t.Errorf("required field %d missing from encoding", num)
		}
	}
}
