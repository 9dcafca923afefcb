package ops

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"doppio/internal/sockets"
	"doppio/internal/telemetry"
)

// collectTimeout bounds how long a live handler waits for the event
// loop to run its collection task. A busy-but-healthy loop answers
// within a timeslice (~10 ms); a loop that cannot answer in this
// long is wedged, and the handler reports that instead of blocking.
const collectTimeout = 500 * time.Millisecond

// Server is the live ops endpoint: it serves the hub's metrics in
// Prometheus text exposition, thread dumps, the flight recorder,
// windowed Chrome-trace captures, VFS and heap state, and net/http/
// pprof — everything needed to inspect a running workload with curl.
// Register sources as they are created; all handlers tolerate having
// zero sources (the process-level endpoints still work).
type Server struct {
	hub *telemetry.Hub

	mu       sync.Mutex
	sources  []Source
	fleets   []fleetSource
	gateways []*sockets.Websockify
}

// NewServer creates a server over the hub (which may be nil; metric
// endpoints then serve empty documents).
func NewServer(hub *telemetry.Hub) *Server {
	return &Server{hub: hub}
}

// Hub returns the server's telemetry hub.
func (s *Server) Hub() *telemetry.Hub { return s.hub }

// Register adds (or, matching by name, replaces) an inspectable
// source. Safe to call while the server runs — doppio-bench registers
// each browser's runtime as the workload builds it.
func (s *Server) Register(src Source) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.sources {
		if s.sources[i].Name == src.Name {
			s.sources[i] = src
			return
		}
	}
	s.sources = append(s.sources, src)
}

func (s *Server) snapshotSources() []Source {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Source(nil), s.sources...)
}

// Handler returns the ops mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/threads", s.handleThreads)
	mux.HandleFunc("/debug/flight", s.handleFlight)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/debug/vfs", s.handleVFS)
	mux.HandleFunc("/debug/heap", s.handleHeap)
	mux.HandleFunc("/debug/proc", s.handleProc)
	mux.HandleFunc("/debug/jvm", s.handleJVM)
	mux.HandleFunc("/debug/fleet", s.handleFleet)
	mux.HandleFunc("/debug/sock", s.handleSock)
	mux.HandleFunc("/debug/profile", s.handleProfile)
	mux.HandleFunc("/debug/guest-pprof", s.handleGuestPprof)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the HTTP listener on addr (e.g. ":6060"; use
// "127.0.0.1:0" for an ephemeral port in tests) and serves in a
// background goroutine. It returns the bound address.
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "doppio ops server")
	fmt.Fprintln(w, "  /metrics            Prometheus text exposition of the registry")
	fmt.Fprintln(w, "  /debug/threads      jstack-style thread dump (?format=json)")
	fmt.Fprintln(w, "  /debug/flight       flight-recorder tail (?n=100&format=json)")
	fmt.Fprintln(w, "  /debug/trace?sec=N  windowed Chrome-trace capture")
	fmt.Fprintln(w, "  /debug/vfs          cache / retry / fault state")
	fmt.Fprintln(w, "  /debug/heap         unmanaged-heap free-list map")
	fmt.Fprintln(w, "  /debug/proc         ps-style process table (pid, state, blocked-on)")
	fmt.Fprintln(w, "  /debug/jvm          DoppioJVM quickening counters: sites, IC hits/misses, fusions, deopts (?format=json)")
	fmt.Fprintln(w, "  /debug/fleet        fleet supervisor: shards and tenants (?format=json)")
	fmt.Fprintln(w, "  /debug/sock         websockify gateway: stream windows, shed/reset counters (?format=json)")
	fmt.Fprintln(w, "  /debug/profile      guest profile, collapsed stacks (?sec=N&kind=cpu|alloc|block&format=json)")
	fmt.Fprintln(w, "  /debug/guest-pprof  guest profile as pprof protobuf, for `go tool pprof` (?kind=&sec=)")
	fmt.Fprintln(w, "  /debug/pprof/       Go runtime profiles")
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(w, "sources (%d):\n", len(s.sources))
	for _, src := range s.sources {
		fmt.Fprintf(w, "  %s\n", src.Name)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.hub == nil {
		return
	}
	s.hub.Registry.Snapshot().WritePrometheus(w)
	// The flight recorder lives outside the registry (it is a ring,
	// not a metric), but its health — events seen, events already
	// overwritten, capacity — is exactly what an operator alerts on,
	// so it is exported alongside the registry series.
	if f := s.hub.Flight; f != nil {
		fmt.Fprintf(w, "# TYPE doppio_telemetry_flight_events_total counter\n")
		fmt.Fprintf(w, "doppio_telemetry_flight_events_total %d\n", f.Total())
		fmt.Fprintf(w, "# TYPE doppio_telemetry_flight_dropped_total counter\n")
		fmt.Fprintf(w, "doppio_telemetry_flight_dropped_total %d\n", f.Dropped())
		fmt.Fprintf(w, "# TYPE doppio_telemetry_flight_capacity gauge\n")
		fmt.Fprintf(w, "doppio_telemetry_flight_capacity %d\n", f.Cap())
	}
}

// Reports captures one report per registered source — what the debug
// endpoints serve, available programmatically for signal-dump paths.
func (s *Server) Reports(reason string) []*Report {
	return s.collectAll(reason)
}

// collectAll captures a report per source, each on its own loop.
// Collection errors become degraded reports, not handler failures —
// a wedged loop is exactly when the endpoints matter most.
func (s *Server) collectAll(reason string) []*Report {
	srcs := s.snapshotSources()
	out := make([]*Report, 0, len(srcs))
	for _, src := range srcs {
		r, err := CollectOnLoop(s.hub, src, reason, "", collectTimeout)
		if err != nil {
			r.Detail = err.Error()
		}
		out = append(out, r)
	}
	return out
}

func writeReports(w http.ResponseWriter, r *http.Request, reports []*Report, text func(*Report) string) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, "[")
		for i, rep := range reports {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			rep.WriteJSON(w)
		}
		fmt.Fprint(w, "]")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(reports) == 0 {
		fmt.Fprintln(w, "(no sources registered)")
		return
	}
	for _, rep := range reports {
		fmt.Fprint(w, text(rep))
	}
}

func (s *Server) handleThreads(w http.ResponseWriter, r *http.Request) {
	writeReports(w, r, s.collectAll("threads"), func(rep *Report) string {
		if rep.Scheduler == nil {
			return fmt.Sprintf("== %s ==\n(no runtime: %s)\n", rep.Source, rep.Detail)
		}
		head := ""
		if rep.Source != "" {
			head = "== " + rep.Source + " ==\n"
		}
		return head + rep.Scheduler.Format()
	})
}

func (s *Server) handleVFS(w http.ResponseWriter, r *http.Request) {
	writeReports(w, r, s.collectAll("vfs"), func(rep *Report) string {
		stub := &Report{Source: rep.Source, VFS: rep.VFS}
		if rep.VFS == nil {
			return fmt.Sprintf("== %s ==\n(no vfs backend: %s)\n", rep.Source, rep.Detail)
		}
		return stub.Text()
	})
}

func (s *Server) handleHeap(w http.ResponseWriter, r *http.Request) {
	writeReports(w, r, s.collectAll("heap"), func(rep *Report) string {
		stub := &Report{Source: rep.Source, Heap: rep.Heap}
		if rep.Heap == nil {
			return fmt.Sprintf("== %s ==\n(no unmanaged heap: %s)\n", rep.Source, rep.Detail)
		}
		return stub.Text()
	})
}

func (s *Server) handleJVM(w http.ResponseWriter, r *http.Request) {
	writeReports(w, r, s.collectAll("jvm"), func(rep *Report) string {
		if rep.JVM == nil {
			return fmt.Sprintf("== %s ==\n(no jvm registered: %s)\n", rep.Source, rep.Detail)
		}
		stub := &Report{Source: rep.Source, JVM: rep.JVM}
		return stub.Text()
	})
}

func (s *Server) handleProc(w http.ResponseWriter, r *http.Request) {
	writeReports(w, r, s.collectAll("proc"), func(rep *Report) string {
		if rep.Procs == nil {
			return fmt.Sprintf("== %s ==\n(no process kernel: %s)\n", rep.Source, rep.Detail)
		}
		head := ""
		if rep.Source != "" {
			head = "== " + rep.Source + " ==\n"
		}
		return head + FormatProcs(rep.Procs)
	})
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.hub == nil || s.hub.Flight == nil {
		http.Error(w, "flight recorder not enabled (run with -flight)", http.StatusNotFound)
		return
	}
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		n, _ = strconv.Atoi(q)
	}
	events := s.hub.Flight.Tail(n)
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		telemetry.WriteFlightJSON(w, events)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "total=%d dropped=%d cap=%d\n",
		s.hub.Flight.Total(), s.hub.Flight.Dropped(), s.hub.Flight.Cap())
	fmt.Fprint(w, telemetry.FormatFlight(events))
}

// handleTrace captures a trace window: it notes the tracer's current
// sequence number, waits ?sec=N seconds (default 1, capped at 60),
// and returns every event recorded since — still inside the ring's
// retention — as a standalone Chrome-trace document.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.hub == nil || s.hub.Tracer == nil {
		http.Error(w, "tracing not enabled (run with -trace)", http.StatusNotFound)
		return
	}
	sec := 1
	if q := r.URL.Query().Get("sec"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			sec = v
		}
	}
	if sec > 60 {
		sec = 60
	}
	start := s.hub.Tracer.Total()
	select {
	case <-time.After(time.Duration(sec) * time.Second):
	case <-r.Context().Done():
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=doppio-trace-%ds.json", sec))
	telemetry.WriteTraceJSON(w, s.hub.Tracer.EventsSince(start))
}
