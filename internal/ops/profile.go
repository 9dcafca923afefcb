// Guest-profile endpoints: /debug/profile serves the folded stacks of
// the server hub's sampling profiler (collapsed-stack text by default —
// the flamegraph.pl / speedscope interchange format — or JSON), and
// /debug/guest-pprof serves the same data as a gzipped pprof protobuf
// so `go tool pprof` inspects guest code unmodified.
//
// Both endpoints window with ?sec=N by snapshot-delta: snapshot the
// profiler, sleep the window, snapshot again, and serve the
// difference. ?sec=0 skips the wait and serves the cumulative profile
// since the profiler was created. Every source attached to the hub
// folds into its one profiler, so the profile is served once however
// many sources are registered.
package ops

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"doppio/internal/profile"
)

// maxProfileWindow caps ?sec= so a handler cannot be parked for
// minutes holding a connection open.
const maxProfileWindow = 60

// parseProfileKind maps the ?kind= query value onto a profile kind.
func parseProfileKind(q string) (profile.Kind, bool) {
	switch q {
	case "", "cpu":
		return profile.CPU, true
	case "alloc":
		return profile.Alloc, true
	case "block":
		return profile.Block, true
	}
	return "", false
}

// profWindow captures the hub profiler's profile: the delta over a
// sec-second window, or the cumulative profile when sec is 0. The bool
// reports whether the hub carries a profiler at all. The wait aborts
// early if the client goes away.
func (s *Server) profWindow(r *http.Request, kind profile.Kind, sec int) (profile.Snapshot, bool) {
	if s.hub == nil || s.hub.Profiler == nil {
		return profile.Snapshot{Kind: kind}, false
	}
	p := s.hub.Profiler
	if sec <= 0 {
		return p.Snapshot(kind), true
	}
	prev := p.Snapshot(kind)
	select {
	case <-time.After(time.Duration(sec) * time.Second):
	case <-r.Context().Done():
	}
	return profile.Delta(prev, p.Snapshot(kind)), true
}

// profileWindowSeconds parses ?sec= with a default and the shared cap.
func profileWindowSeconds(r *http.Request, def int) int {
	sec := def
	if q := r.URL.Query().Get("sec"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v >= 0 {
			sec = v
		}
	}
	if sec > maxProfileWindow {
		sec = maxProfileWindow
	}
	return sec
}

// handleProfile serves the folded guest profile:
// /debug/profile?sec=N&kind=cpu|alloc|block[&format=json].
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	kind, ok := parseProfileKind(r.URL.Query().Get("kind"))
	if !ok {
		http.Error(w, "unknown kind (want cpu, alloc, or block)", http.StatusBadRequest)
		return
	}
	sec := profileWindowSeconds(r, 1)
	snap, found := s.profWindow(r, kind, sec)
	if !found {
		http.Error(w, "guest profiling not enabled (run with -prof)", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		snap.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	snap.WriteCollapsed(w)
}

// handleGuestPprof serves the guest profile as a gzipped pprof
// protobuf: /debug/guest-pprof?kind=cpu|alloc|block&sec=N. The
// default is the cumulative profile (sec=0), matching how pprof
// fetches heap-style endpoints; pass sec to capture a window.
func (s *Server) handleGuestPprof(w http.ResponseWriter, r *http.Request) {
	kind, ok := parseProfileKind(r.URL.Query().Get("kind"))
	if !ok {
		http.Error(w, "unknown kind (want cpu, alloc, or block)", http.StatusBadRequest)
		return
	}
	sec := profileWindowSeconds(r, 0)
	snap, found := s.profWindow(r, kind, sec)
	if !found {
		http.Error(w, "guest profiling not enabled (run with -prof)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=doppio-guest-%s.pb.gz", kind))
	snap.WritePprof(w, time.Duration(sec)*time.Second)
}
