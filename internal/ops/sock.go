package ops

import (
	"encoding/json"
	"fmt"
	"net/http"

	"doppio/internal/sockets"
)

// RegisterGateway attaches a websockify gateway to the /debug/sock
// endpoint. Unlike runtime sources, a gateway snapshot needs no event
// loop — Websockify.Snapshot is safe from any goroutine — so the
// handler reads it directly. Multiple gateways may register (the soak
// harness runs one per transport); each appears as its own section.
func (s *Server) RegisterGateway(gw *sockets.Websockify) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gateways = append(s.gateways, gw)
}

func (s *Server) snapshotGateways() []sockets.GatewaySnapshot {
	s.mu.Lock()
	gws := append([]*sockets.Websockify(nil), s.gateways...)
	s.mu.Unlock()
	out := make([]sockets.GatewaySnapshot, 0, len(gws))
	for _, gw := range gws {
		out = append(out, gw.Snapshot())
	}
	return out
}

// handleSock serves the gateway view: per-session stream windows,
// credit state, and the shed/reset counters that tell an operator
// whether backpressure is engaging.
func (s *Server) handleSock(w http.ResponseWriter, r *http.Request) {
	snaps := s.snapshotGateways()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(snaps)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(snaps) == 0 {
		fmt.Fprintln(w, "(no gateways registered)")
		return
	}
	for _, g := range snaps {
		fmt.Fprintf(w, "== gateway -> %s ==\n", g.Target)
		fmt.Fprintf(w, "conns: plain=%d mux=%d  shedding=%v (pauses=%d)\n",
			g.PlainConns, g.MuxConns, g.Paused, g.Pauses)
		st := g.Stats
		fmt.Fprintf(w, "streams: opened=%d accepted=%d shed=%d resets=%d\n",
			st.Opened, st.Accepted, st.Shed, st.Resets)
		fmt.Fprintf(w, "data: in=%d frames/%d B  out=%d frames/%d B  credits=%d\n",
			st.DataIn, st.BytesIn, st.DataOut, st.BytesOut, st.Credits)
		if g.Faults.Ops > 0 {
			f := g.Faults
			fmt.Fprintf(w, "faults: ops=%d drops=%d resets=%d shorts=%d\n",
				f.Ops, f.ErrsPre, f.ErrsPost, f.Shorts)
		}
		for i, sess := range g.Sessions {
			fmt.Fprintf(w, "session %d: streams=%d dead=%v\n", i, len(sess.Streams), sess.Dead)
			for _, str := range sess.Streams {
				fmt.Fprintf(w, "  stream %d: %s  swnd=%d queued=%d rbuf=%d paused=%v\n",
					str.ID, str.State, str.SendWindow, str.SendQueued,
					str.RecvBuffered, str.Paused)
			}
		}
	}
}
