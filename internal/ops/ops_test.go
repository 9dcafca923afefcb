package ops_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/core"
	"doppio/internal/eventloop"
	"doppio/internal/fleet"
	"doppio/internal/jvm"
	"doppio/internal/jvm/rt"
	"doppio/internal/ops"
	"doppio/internal/sockets"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

// deadlockProgram parks a worker in Object.wait with nobody to notify
// it, then joins it from main: both threads block forever and the
// runtime's deadlock detector fires after the event loop drains.
const deadlockProgram = `
class Waiter extends Thread {
    static Object lock = new Object();
    public void run() {
        synchronized (lock) {
            lock.wait();
        }
    }
}

public class Main {
    public static void main(String[] args) {
        Waiter w = new Waiter();
        w.start();
        w.join();
    }
}`

// TestDeadlockPostMortem is the acceptance test for the post-mortem
// path: a deliberately deadlocked JVM program must yield a report that
// names every blocked thread with its Completion label and carries the
// flight-recorder tail, in both the text and JSON renderings.
func TestDeadlockPostMortem(t *testing.T) {
	hub := telemetry.NewHub().EnableFlight(4096)
	classes, cerr := rt.CompileWith(map[string]string{"Main.mj": deadlockProgram})
	if cerr != nil {
		t.Fatalf("compile: %v", cerr)
	}
	win := browser.NewWindow(browser.Chrome28)
	win.EnableTelemetry(hub)
	var stdout bytes.Buffer
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &stdout,
		Provider:         jvm.MapProvider(classes),
		DisableEngineTax: true,
		Timeslice:        2 * time.Millisecond,
	})
	err := vm.RunMain("Main", nil)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("RunMain = %v, want deadlock error", err)
	}

	rep := ops.Collect(hub, ops.Source{
		Name:    "jvm",
		Runtime: vm.Runtime(),
		Heap:    vm.Heap(),
	}, "deadlock", err.Error())

	if rep.Scheduler == nil {
		t.Fatal("report has no scheduler dump")
	}
	blocked := rep.Scheduler.Blocked()
	if len(blocked) < 2 {
		t.Fatalf("blocked threads = %d, want >= 2 (waiter + joiner):\n%s",
			len(blocked), rep.Scheduler.Format())
	}
	labels := map[string]bool{}
	for _, b := range blocked {
		if b.BlockedOn == "" {
			t.Errorf("blocked thread %q#%d has no Completion label", b.Name, b.ID)
		}
		labels[b.BlockedOn] = true
	}
	for _, want := range []string{"jvm.native(java/lang/Object.wait(J)V)", "jvm.native(java/lang/Thread.join()V)"} {
		if !labels[want] {
			t.Errorf("no blocked thread labelled %q; labels: %v", want, labels)
		}
	}

	text := rep.Text()
	if !strings.Contains(text, "doppio post-mortem: deadlock") {
		t.Errorf("text missing post-mortem header:\n%s", text)
	}
	// Every blocked thread must appear by name, id, and label.
	for _, b := range blocked {
		line := fmt.Sprintf("%s#%d on %s", b.Name, b.ID, b.BlockedOn)
		if !strings.Contains(text, line) {
			t.Errorf("text missing blocked thread line %q:\n%s", line, text)
		}
	}
	if !strings.Contains(text, "== flight recorder ==") {
		t.Errorf("text missing flight tail:\n%s", text)
	}
	if !strings.Contains(text, "== unmanaged heap ==") {
		t.Errorf("text missing heap section:\n%s", text)
	}

	// The flight tail must include the block events for the deadlocked
	// completions — that is the black box that explains the hang.
	if len(rep.Flight) == 0 {
		t.Fatal("report flight tail is empty")
	}
	flightBlocks := map[string]bool{}
	for _, ev := range rep.Flight {
		if ev.Cat == "comp" && ev.Event == "block" {
			flightBlocks[ev.Label] = true
		}
	}
	if !flightBlocks["jvm.native(java/lang/Object.wait(J)V)"] {
		t.Errorf("flight tail has no comp/block for Object.wait; blocks: %v", flightBlocks)
	}

	// JSON rendering round-trips with the same content.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded struct {
		Reason    string `json:"reason"`
		Scheduler *struct {
			Threads []struct {
				Name      string `json:"name"`
				State     string `json:"state"`
				BlockedOn string `json:"blocked_on"`
			} `json:"threads"`
		} `json:"scheduler"`
		Flight []telemetry.FlightEvent `json:"flight"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report JSON invalid: %v", err)
	}
	if decoded.Reason != "deadlock" || decoded.Scheduler == nil || len(decoded.Flight) == 0 {
		t.Fatalf("JSON report incomplete: reason=%q scheduler=%v flight=%d",
			decoded.Reason, decoded.Scheduler, len(decoded.Flight))
	}
	jsonBlocked := 0
	for _, th := range decoded.Scheduler.Threads {
		if th.State == "blocked" && th.BlockedOn != "" {
			jsonBlocked++
		}
	}
	if jsonBlocked != len(blocked) {
		t.Errorf("JSON blocked threads = %d, want %d", jsonBlocked, len(blocked))
	}
}

func TestCollectVFSSection(t *testing.T) {
	hub := telemetry.NewHub()
	b := vfs.Stack(vfs.NewInMemory(),
		vfs.WithCache(vfs.CacheOptions{}),
		vfs.WithRetry(vfs.RetryOptions{}),
		vfs.WithTelemetry(hub))
	// Touch the stack so the stats are non-trivial.
	b.Stat("/", func(vfs.Stats, error) {})
	b.Stat("/", func(vfs.Stats, error) {})

	rep := ops.Collect(hub, ops.Source{Name: "fs", Backend: b}, "vfs", "")
	if rep.VFS == nil {
		t.Fatal("report has no VFS section")
	}
	if rep.VFS.Cache == nil || rep.VFS.Retry == nil {
		t.Fatalf("VFS section missing layers: cache=%v retry=%v", rep.VFS.Cache, rep.VFS.Retry)
	}
	if rep.VFS.Retry.Ops == 0 {
		t.Errorf("retry layer saw no ops")
	}
	text := rep.Text()
	if !strings.Contains(text, "== vfs (") || !strings.Contains(text, "retry: ops=") {
		t.Errorf("text missing vfs section:\n%s", text)
	}
}

// TestCollectJVMSection pins the report's jvm section: one
// QuickStats for the source's DoppioJVM, an object under "jvm" in the
// JSON form, and text lines without an engine prefix.
func TestCollectJVMSection(t *testing.T) {
	classes, err := rt.CompileWith(map[string]string{"Main.mj": `
public class Main {
    static int get(int[] xs, int i) { return xs[i]; }
    public static void main(String[] args) {
        int[] xs = new int[4];
        int s = 0;
        for (int i = 0; i < 100; i++) { s = s + get(xs, i % 4); }
        System.out.println(s);
    }
}`})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, quicken := range []bool{false, true} {
		vm := jvm.NewDoppioVM(browser.NewWindow(browser.Chrome28), jvm.DoppioOptions{
			Provider:         jvm.MapProvider(classes),
			DisableEngineTax: true,
			Quicken:          quicken,
		})
		if err := vm.RunMain("Main", nil); err != nil {
			t.Fatal(err)
		}
		rep := ops.Collect(nil, ops.Source{Name: "jvm", JVM: vm}, "jvm", "")
		if rep.JVM == nil || rep.JVM.Enabled != quicken || (quicken && rep.JVM.Sites == 0) {
			t.Fatalf("quicken=%v: jvm section = %+v", quicken, rep.JVM)
		}
		want := "== jvm quickening ==\nquickening off\n"
		if quicken {
			want = fmt.Sprintf("== jvm quickening ==\nsites=%d ic-hits=%d ", rep.JVM.Sites, rep.JVM.ICHits)
		}
		if text := rep.Text(); !strings.Contains(text, want) {
			t.Errorf("quicken=%v: text missing %q:\n%s", quicken, want, text)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var decoded struct {
			JVM *jvm.QuickStats `json:"jvm"`
		}
		if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
			t.Fatalf("report JSON invalid: %v", err)
		}
		if decoded.JVM == nil || *decoded.JVM != *rep.JVM {
			t.Errorf("quicken=%v: JSON jvm = %+v, want %+v", quicken, decoded.JVM, rep.JVM)
		}
	}
	if rep := ops.Collect(nil, ops.Source{Name: "none"}, "jvm", ""); rep.JVM != nil ||
		strings.Contains(rep.Text(), "quickening") {
		t.Errorf("a source without a JVM reports one: %+v", rep.JVM)
	}
}

// liveServer builds an ops server over a running event loop and
// returns the test HTTP server plus a shutdown func.
func liveServer(t *testing.T, hub *telemetry.Hub) (*httptest.Server, *eventloop.Loop, func()) {
	t.Helper()
	loop := eventloop.New(eventloop.Options{})
	rtc := core.NewRuntime(loop, core.Config{Telemetry: hub})

	s := ops.NewServer(hub)
	s.Register(ops.Source{Name: "browser-0", Loop: loop, Runtime: rtc})

	loop.AddPending() // keep the loop alive while handlers collect
	done := make(chan error, 1)
	go func() { done <- loop.Run() }()

	ts := httptest.NewServer(s.Handler())
	stop := func() {
		ts.Close()
		loop.DonePending()
		if err := <-done; err != nil {
			t.Errorf("loop.Run: %v", err)
		}
	}
	return ts, loop, stop
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestServerLiveEndpoints drives the HTTP endpoints against a running
// event loop: thread dumps are collected on the loop goroutine while
// it runs.
func TestServerLiveEndpoints(t *testing.T) {
	hub := telemetry.NewHub().EnableFlight(128)
	hub.Registry.Counter("core", "slices").Add(7)
	hub.Flight.Record("sched", "spawn", "worker", 1)

	ts, _, stop := liveServer(t, hub)
	defer stop()

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.Contains(body, "doppio_core_slices_total 7") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	code, body = get(t, ts.URL+"/debug/threads")
	if code != http.StatusOK {
		t.Fatalf("/debug/threads status = %d", code)
	}
	for _, want := range []string{"browser-0", "thread dump", "mechanism="} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/threads missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, ts.URL+"/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("/debug/flight status = %d", code)
	}
	if !strings.Contains(body, "spawn") || !strings.Contains(body, "worker") {
		t.Errorf("/debug/flight missing recorded event:\n%s", body)
	}

	_, body = get(t, ts.URL+"/debug/flight?format=json")
	var events []telemetry.FlightEvent
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/debug/flight?format=json invalid: %v\n%s", err, body)
	}
	if len(events) != 1 || events[0].Event != "spawn" {
		t.Errorf("flight JSON = %+v", events)
	}

	_, body = get(t, ts.URL+"/debug/threads?format=json")
	var reports []json.RawMessage
	if err := json.Unmarshal([]byte(body), &reports); err != nil {
		t.Fatalf("/debug/threads?format=json invalid: %v\n%s", err, body)
	}
	if len(reports) != 1 {
		t.Errorf("threads JSON reports = %d, want 1", len(reports))
	}

	code, body = get(t, ts.URL+"/")
	if code != http.StatusOK || !strings.Contains(body, "browser-0") {
		t.Errorf("index status=%d body:\n%s", code, body)
	}

	// Source has no heap or VFS backend; endpoints degrade per-source
	// instead of failing.
	code, body = get(t, ts.URL+"/debug/heap")
	if code != http.StatusOK || !strings.Contains(body, "no unmanaged heap") {
		t.Errorf("/debug/heap status=%d body:\n%s", code, body)
	}
	code, body = get(t, ts.URL+"/debug/vfs")
	if code != http.StatusOK || !strings.Contains(body, "no vfs backend") {
		t.Errorf("/debug/vfs status=%d body:\n%s", code, body)
	}
}

func TestServerDisabledFacilities(t *testing.T) {
	s := ops.NewServer(telemetry.NewHub()) // no flight, no tracer
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := get(t, ts.URL+"/debug/flight"); code != http.StatusNotFound {
		t.Errorf("/debug/flight without recorder: status = %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/debug/trace"); code != http.StatusNotFound {
		t.Errorf("/debug/trace without tracer: status = %d, want 404", code)
	}
	if code, body := get(t, ts.URL+"/debug/threads"); code != http.StatusOK ||
		!strings.Contains(body, "no sources registered") {
		t.Errorf("/debug/threads with no sources: status=%d body=%q", code, body)
	}
	// Prometheus endpoint serves an empty document, not an error.
	if code, _ := get(t, ts.URL+"/metrics"); code != http.StatusOK {
		t.Errorf("/metrics status = %d", code)
	}
}

// TestCollectOnLoopTimeout covers the wedged-loop path: the loop never
// runs the posted collection, so the caller gets an error plus a
// degraded report that still carries the flight tail.
func TestCollectOnLoopTimeout(t *testing.T) {
	hub := telemetry.NewHub().EnableFlight(16)
	hub.Flight.Record("loop", "watchdog", "stuck-task", 0)
	loop := eventloop.New(eventloop.Options{}) // never started: posts sit in the queue

	rep, err := ops.CollectOnLoop(hub, ops.Source{Name: "wedged", Loop: loop},
		"stall", "", 30*time.Millisecond)
	if err == nil {
		t.Fatal("CollectOnLoop on a dead loop returned no error")
	}
	if rep == nil || rep.Reason != "stall" {
		t.Fatalf("degraded report = %+v", rep)
	}
	if rep.Scheduler != nil {
		t.Error("degraded report has a scheduler dump despite the timeout")
	}
	if len(rep.Flight) == 0 || rep.Flight[0].Label != "stuck-task" {
		t.Errorf("degraded report lost the flight tail: %+v", rep.Flight)
	}
}

// TestTraceWindow exercises /debug/trace's windowed capture against a
// live tracer.
func TestTraceWindow(t *testing.T) {
	hub := telemetry.NewHub().EnableTracing()
	hub.Tracer.Instant(0, "test", "before-window")
	s := ops.NewServer(hub)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Record an event while the window is open.
	go func() {
		time.Sleep(200 * time.Millisecond)
		hub.Tracer.Instant(0, "test", "in-window")
	}()
	code, body := get(t, ts.URL+"/debug/trace?sec=1")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status = %d", code)
	}
	if err := telemetry.ValidateChromeTrace([]byte(body)); err != nil {
		t.Fatalf("trace window invalid: %v", err)
	}
	if !strings.Contains(body, "in-window") {
		t.Errorf("trace window missing event recorded during capture:\n%s", body)
	}
	if strings.Contains(body, "before-window") {
		t.Errorf("trace window leaked event recorded before capture:\n%s", body)
	}
}

// TestDebugFleetEndpoint registers a fleet supervisor and reads it
// back through /debug/fleet in both text and JSON form. Snapshots are
// lock-free with respect to shard loops, so the endpoint answers even
// while tenants run.
func TestDebugFleetEndpoint(t *testing.T) {
	sup := fleet.NewSupervisor(fleet.Config{Shards: 2})
	defer sup.Close()
	ref, err := sup.Submit(fleet.Tenant{
		Label: "probe",
		Start: func(env *fleet.Env, done func(error)) (*fleet.Handle, error) {
			rt := core.NewRuntime(env.Win.Loop, core.Config{})
			rt.Spawn("probe", core.RunnableFunc(func(th *core.Thread) core.RunResult {
				return core.Done
			}))
			rt.OnIdle(func() { done(nil) })
			rt.Start()
			return &fleet.Handle{Runtime: rt}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ref.Done()

	s := ops.NewServer(nil)
	s.RegisterFleet("test-fleet", sup)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/debug/fleet")
	if code != http.StatusOK {
		t.Fatalf("/debug/fleet status = %d", code)
	}
	for _, want := range []string{"test-fleet", "FLEET", "probe", "done"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/fleet missing %q:\n%s", want, body)
		}
	}

	_, body = get(t, ts.URL+"/debug/fleet?format=json")
	var reports []struct {
		Name string              `json:"name"`
		Snap fleet.FleetSnapshot `json:"fleet"`
	}
	if err := json.Unmarshal([]byte(body), &reports); err != nil {
		t.Fatalf("/debug/fleet?format=json invalid: %v\n%s", err, body)
	}
	if len(reports) != 1 || reports[0].Name != "test-fleet" {
		t.Fatalf("fleet JSON = %+v", reports)
	}
	if reports[0].Snap.Completed != 1 || len(reports[0].Snap.Tenants) != 1 {
		t.Errorf("fleet snapshot = %+v", reports[0].Snap)
	}

	// Index advertises the endpoint.
	_, body = get(t, ts.URL+"/")
	if !strings.Contains(body, "/debug/fleet") {
		t.Errorf("index missing /debug/fleet:\n%s", body)
	}
}

// TestDebugSockEndpoint registers a live gateway, runs one multiplexed
// echo stream through it, and reads the result back via /debug/sock in
// both text and JSON form. Gateway snapshots are goroutine-safe, so
// the endpoint answers while the session is still open.
func TestDebugSockEndpoint(t *testing.T) {
	echoLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer echoLn.Close()
	go func() {
		c, err := echoLn.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 1024)
		for {
			n, err := c.Read(buf)
			if n > 0 {
				c.Write(buf[:n])
			}
			if err != nil {
				return
			}
		}
	}()
	gw, err := sockets.NewGateway("127.0.0.1:0", echoLn.Addr().String(), sockets.GatewayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// One raw mux session with one echoed stream, kept open while the
	// endpoint is queried.
	conn, err := net.Dial("tcp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br, err := sockets.ClientHandshake(conn, "ops-test", sockets.MuxPath)
	if err != nil {
		t.Fatal(err)
	}
	m := sockets.NewMux(sockets.MuxConfig{
		Send: func(hdr, payload []byte) error {
			return sockets.WriteBinaryFrame(conn, hdr, payload)
		},
	})
	defer m.CloseSession()
	go func() {
		for {
			f, err := sockets.ReadFrame(br)
			if err != nil {
				m.CloseSession()
				return
			}
			if f.Op == sockets.OpBinary {
				m.HandleFrame(f.Payload)
			}
		}
	}()
	st, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitOpen(); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteBlocking([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	for off := 0; off < len(got); {
		n, err := st.ReadBlocking(got[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if string(got) != "ping" {
		t.Fatalf("echo = %q", got)
	}

	s := ops.NewServer(nil)
	s.RegisterGateway(gw)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/debug/sock")
	if code != http.StatusOK {
		t.Fatalf("/debug/sock status = %d", code)
	}
	for _, want := range []string{"gateway ->", "conns: plain=0 mux=1", "stream 1:", "open"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/sock missing %q:\n%s", want, body)
		}
	}

	_, body = get(t, ts.URL+"/debug/sock?format=json")
	var snaps []sockets.GatewaySnapshot
	if err := json.Unmarshal([]byte(body), &snaps); err != nil {
		t.Fatalf("/debug/sock?format=json invalid: %v\n%s", err, body)
	}
	if len(snaps) != 1 || snaps[0].MuxConns != 1 {
		t.Fatalf("sock JSON = %+v", snaps)
	}
	if snaps[0].Stats.DataIn == 0 || snaps[0].Stats.DataOut == 0 {
		t.Errorf("gateway data counters flat: %+v", snaps[0].Stats)
	}
	if len(snaps[0].Sessions) != 1 || len(snaps[0].Sessions[0].Streams) != 1 {
		t.Errorf("session snapshot = %+v", snaps[0].Sessions)
	}

	// Index advertises the endpoint.
	_, body = get(t, ts.URL+"/")
	if !strings.Contains(body, "/debug/sock") {
		t.Errorf("index missing /debug/sock:\n%s", body)
	}
}
