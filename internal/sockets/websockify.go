package sockets

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"doppio/internal/telemetry"
	"doppio/internal/vfs"
	"doppio/internal/vfs/faultfs"
)

// Websockify is the production gateway grown out of the
// kanaka/websockify program the paper relies on for the server side
// of socket support (§5.3). It still "wraps unmodified programs, and
// translates incoming WebSocket connections into normal TCP
// connections", but a connection now picks its mode by handshake
// path:
//
//   - any path but MuxPath: classic websockify — the whole WebSocket
//     is one TCP stream, no flow control (kept for compatibility and
//     as the A/B baseline in sockload);
//   - MuxPath ("/mux"): a multiplexed session — many logical streams
//     over the one WebSocket, each with its own credit window. A SYN
//     past the session's MaxStreams is refused with RST(EAGAIN), the
//     link's one admission rule. The session ends with its connection,
//     orderly or not: its streams fail with ECONNRESET and their
//     bridges close the target connections.
type Websockify struct {
	listener net.Listener
	target   string
	opts     GatewayOptions
	wg       sync.WaitGroup

	inj *faultfs.Injector // nil without GatewayOptions.Faults; fixed at construction
	tel *proxyTelemetry

	mu         sync.Mutex
	closed     bool
	plainConns int64
	retired    MuxStats              // counters of closed mux sessions
	sessions   map[*Mux]struct{}     // one per live mux connection
	conns      map[net.Conn]struct{} // live accepted conns, closed by Close
}

// errInjectedReset is the send error of a mux frame whose injected
// fault reset the connection.
var errInjectedReset = errors.New("sockets: injected connection reset")

// GatewayOptions configures NewGateway. The zero value is a plain
// websockify: 64 KiB windows, 1024 streams per session, no faults, no
// telemetry.
type GatewayOptions struct {
	// Window is the per-stream receive window advertised to clients
	// (bytes); 0 means 64 KiB.
	Window int
	// MaxStreams caps concurrently open streams per session; a SYN
	// past it is shed with RST(EAGAIN). 0 means 1024.
	MaxStreams int
	// Hub, when non-nil, receives gateway counters ("websockify") and
	// mux counters ("sockmux").
	Hub *telemetry.Hub
	// Faults arms deterministic fault injection on the data path for
	// the gateway's lifetime. Every fault resets the connection
	// without a close frame, before or after delivering its frame.
	Faults faultfs.Plan
	// Listener overrides the TCP listen (sockload's in-memory
	// transport); when set, listenAddr is ignored.
	Listener net.Listener
	// Dial overrides how the gateway reaches the target (in-memory
	// transport again); nil means net.Dial("tcp", target).
	Dial func(target string) (net.Conn, error)
}

// proxyTelemetry holds the proxy-side metric handles; all counters are
// atomic since the per-connection pumps run on their own goroutines.
type proxyTelemetry struct {
	connections *telemetry.Counter
	framesIn    *telemetry.Counter // WebSocket → TCP
	bytesIn     *telemetry.Counter
	framesOut   *telemetry.Counter // TCP → WebSocket
	bytesOut    *telemetry.Counter
	handshake   *telemetry.Histogram
	flight      *telemetry.FlightRecorder
}

func newProxyTelemetry(h *telemetry.Hub) *proxyTelemetry {
	if h == nil {
		return nil
	}
	return &proxyTelemetry{
		connections: h.Registry.Counter("websockify", "connections"),
		framesIn:    h.Registry.Counter("websockify", "frames_in"),
		bytesIn:     h.Registry.Counter("websockify", "bytes_in"),
		framesOut:   h.Registry.Counter("websockify", "frames_out"),
		bytesOut:    h.Registry.Counter("websockify", "bytes_out"),
		handshake:   h.Registry.Histogram("websockify", "handshake"),
		flight:      h.Flight,
	}
}

// NewGateway starts a gateway on listenAddr (or opts.Listener)
// forwarding every stream to the TCP server at target.
func NewGateway(listenAddr, target string, opts GatewayOptions) (*Websockify, error) {
	ln := opts.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", listenAddr)
		if err != nil {
			return nil, err
		}
	}
	w := &Websockify{
		listener: ln,
		target:   target,
		opts:     opts,
		tel:      newProxyTelemetry(opts.Hub),
		sessions: make(map[*Mux]struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
	if opts.Faults.Enabled() {
		w.inj = faultfs.New(opts.Faults)
	}
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// NewWebsockify starts a zero-config gateway — the classic proxy.
func NewWebsockify(listenAddr, target string) (*Websockify, error) {
	return NewGateway(listenAddr, target, GatewayOptions{})
}

// FaultStats snapshots the injector's decision counters (zero when
// fault injection is off).
func (w *Websockify) FaultStats() faultfs.Stats {
	if w.inj == nil {
		return faultfs.Stats{}
	}
	return w.inj.Stats()
}

// Addr returns the gateway's listen address.
func (w *Websockify) Addr() string { return w.listener.Addr().String() }

// Close stops accepting, tears down the listener and all live
// connections — and with them their sessions — and waits for every
// per-connection handler to exit, so no serve goroutine is still
// mutating gateway state when it returns.
func (w *Websockify) Close() error {
	w.mu.Lock()
	w.closed = true
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	err := w.listener.Close()
	// Closing the conns unblocks handlers waiting in ReadFrame so the
	// Wait below cannot hang on an idle client; each retires its
	// session as it exits.
	for _, c := range conns {
		c.Close()
	}
	w.wg.Wait()
	return err
}

// track registers an accepted connection for Close's teardown; it
// refuses (false) when the gateway is already closed.
func (w *Websockify) track(conn net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.conns[conn] = struct{}{}
	return true
}

func (w *Websockify) untrack(conn net.Conn) {
	w.mu.Lock()
	delete(w.conns, conn)
	w.mu.Unlock()
}

func (w *Websockify) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.listener.Accept()
		if err != nil {
			return
		}
		if !w.track(conn) {
			conn.Close()
			return
		}
		w.wg.Add(1)
		go w.serve(conn)
	}
}

func (w *Websockify) dialTarget() (net.Conn, error) {
	if w.opts.Dial != nil {
		return w.opts.Dial(w.target)
	}
	return net.Dial("tcp", w.target)
}

// linkFault draws the fault decision for one data frame crossing the
// gateway (data is false for a mux control frame, which never draws).
// Every fault resets the transport without a close frame: WebSocket
// rides TCP, which can lose a connection but never a single frame,
// nor deliver one short. ErrPost delivers the frame and then resets;
// ErrPre and Short reset before it. Plain and mux mode share this one
// model, so a guest sees ECONNRESET on either transport.
func linkFault(inj *faultfs.Injector, op string, data bool) (deliver, reset bool) {
	if inj == nil || !data {
		return true, false
	}
	switch inj.Next(op).Kind {
	case faultfs.ErrPre, faultfs.Short:
		return false, true
	case faultfs.ErrPost:
		return true, true
	}
	return true, false
}

// connWriter serializes every writer of one WebSocket connection: the
// mux session's writer goroutine, the reader's pong/close replies, and
// plain mode's two pumps all target the same conn. net.Conn.Write may
// split a frame across several syscalls under backpressure, so
// unserialized writers can interleave mid-frame and desync the WS
// framing layer itself — corruption nothing above it can repair.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
}

func (cw *connWriter) writeFrame(f *Frame) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return WriteFrame(cw.conn, f)
}

func (cw *connWriter) writeBinary(hdr, payload []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return WriteBinaryFrame(cw.conn, hdr, payload)
}

func (w *Websockify) serve(wsConn net.Conn) {
	defer w.wg.Done()
	defer w.untrack(wsConn)
	defer wsConn.Close()
	tel := w.tel
	var hsStart time.Time
	if tel != nil {
		hsStart = time.Now()
	}
	path, br, err := ServerHandshake(wsConn)
	if err != nil {
		return
	}
	peer := wsConn.RemoteAddr().String()
	if tel != nil {
		tel.handshake.ObserveSince(hsStart)
		tel.connections.Inc()
		tel.flight.Record("sock", "conn", peer, 0)
	}
	cw := &connWriter{conn: wsConn}
	if p, _, _ := strings.Cut(path, "?"); p == MuxPath {
		w.serveMux(wsConn, cw, br)
		return
	}
	w.servePlain(wsConn, cw, br)
}

// ---- mux mode ----

func (w *Websockify) serveMux(wsConn net.Conn, cw *connWriter, br io.Reader) {
	send := func(hdr, payload []byte) error {
		deliver, reset := linkFault(w.inj, "tcp2ws", MuxIsData(hdr))
		if !deliver {
			wsConn.Close()
			return errInjectedReset
		}
		err := cw.writeBinary(hdr, payload)
		if err != nil || reset {
			// The transport is gone: closing it ends the reader below,
			// which retires the session.
			wsConn.Close()
		}
		return err
	}
	m := NewMux(MuxConfig{
		Window:       w.opts.Window,
		MaxStreams:   w.opts.MaxStreams,
		Hub:          w.opts.Hub,
		Send:         send,
		AcceptStream: func(st *MuxStream) { go w.bridgeStream(st) },
	})
	w.mu.Lock()
	w.sessions[m] = struct{}{}
	w.mu.Unlock()
loop:
	for {
		f, err := ReadFrame(br)
		if err != nil {
			break
		}
		switch f.Op {
		case OpClose:
			cw.writeFrame(&Frame{Fin: true, Op: OpClose})
			break loop
		case OpPing:
			cw.writeFrame(&Frame{Fin: true, Op: OpPong, Payload: f.Payload})
		case OpBinary:
			deliver, reset := linkFault(w.inj, "ws2tcp", MuxIsData(f.Payload))
			if deliver {
				m.HandleFrame(f.Payload)
			}
			if reset {
				break loop
			}
		}
	}
	wsConn.Close()
	// The session ends with its transport: its streams fail with
	// ECONNRESET and the bridges close their target connections.
	m.CloseSession()
	w.mu.Lock()
	delete(w.sessions, m)
	w.retired.Add(m.Stats())
	w.mu.Unlock()
}

// bridgeStream connects one accepted mux stream to the TCP target and
// pumps both directions until either side finishes.
func (w *Websockify) bridgeStream(st *MuxStream) {
	tcp, err := w.dialTarget()
	if err != nil {
		st.Reject(vfs.ECONNREFUSED)
		return
	}
	st.Accept()
	var wg sync.WaitGroup
	wg.Add(1)
	// stream → TCP.
	go func() {
		defer wg.Done()
		buf := make([]byte, 16<<10)
		for {
			n, err := st.ReadBlocking(buf)
			if n > 0 {
				if _, werr := tcp.Write(buf[:n]); werr != nil {
					st.Reset(vfs.ECONNRESET)
					tcp.Close()
					return
				}
			}
			if err != nil {
				if err == io.EOF {
					// Client finished sending: half-close toward the
					// target so its reply can still drain back.
					type closeWriter interface{ CloseWrite() error }
					if cw, ok := tcp.(closeWriter); ok {
						cw.CloseWrite()
					} else {
						tcp.Close()
					}
				} else {
					tcp.Close()
				}
				return
			}
		}
	}()
	// TCP → stream.
	buf := make([]byte, 16<<10)
	for {
		n, err := tcp.Read(buf)
		if n > 0 {
			if werr := st.WriteBlocking(buf[:n]); werr != nil {
				tcp.Close()
				break
			}
		}
		if err != nil {
			if err == io.EOF {
				st.Close()
			} else {
				st.Reset(vfs.ECONNRESET)
			}
			break
		}
	}
	wg.Wait()
	tcp.Close()
}

// ---- plain mode (classic websockify) ----

func (w *Websockify) servePlain(wsConn net.Conn, cw *connWriter, br io.Reader) {
	w.mu.Lock()
	w.plainConns++
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.plainConns--
		w.mu.Unlock()
	}()
	tcpConn, err := w.dialTarget()
	if err != nil {
		cw.writeFrame(&Frame{Fin: true, Op: OpClose})
		return
	}
	defer tcpConn.Close()
	// reset ends the bridge on an injected fault. The WebSocket closes
	// first, so no close frame can follow, and the client reads
	// ECONNRESET.
	reset := func() {
		wsConn.Close()
		tcpConn.Close()
	}
	tel := w.tel

	done := make(chan struct{}, 2)
	// WebSocket → TCP: unwrap frames into the byte stream.
	go func() {
		defer func() { done <- struct{}{} }()
		for {
			f, err := ReadFrame(br)
			if err != nil {
				return
			}
			switch f.Op {
			case OpClose:
				return
			case OpBinary, OpText, OpContinuation:
				deliver, fault := linkFault(w.inj, "ws2tcp", true)
				if deliver {
					if tel != nil {
						tel.framesIn.Inc()
						tel.bytesIn.Add(int64(len(f.Payload)))
					}
					if _, err := tcpConn.Write(f.Payload); err != nil {
						return
					}
				}
				if fault {
					reset()
					return
				}
			case OpPing:
				cw.writeFrame(&Frame{Fin: true, Op: OpPong, Payload: f.Payload})
			}
		}
	}()
	// TCP → WebSocket: wrap the byte stream into binary frames.
	go func() {
		defer func() { done <- struct{}{} }()
		buf := make([]byte, 16*1024)
		for {
			n, err := tcpConn.Read(buf)
			if n > 0 {
				deliver, fault := linkFault(w.inj, "tcp2ws", true)
				if deliver {
					if tel != nil {
						tel.framesOut.Inc()
						tel.bytesOut.Add(int64(n))
					}
					if werr := cw.writeFrame(&Frame{Fin: true, Op: OpBinary, Payload: buf[:n]}); werr != nil {
						return
					}
				}
				if fault {
					reset()
					return
				}
			}
			if err != nil {
				if err != io.EOF {
					return
				}
				cw.writeFrame(&Frame{Fin: true, Op: OpClose})
				return
			}
		}
	}()
	<-done
}

// GatewaySnapshot is the gateway's state for /debug/sock.
type GatewaySnapshot struct {
	Target     string        `json:"target"`
	PlainConns int64         `json:"plain_conns"`
	MuxConns   int64         `json:"mux_conns"`
	Stats      MuxStats      `json:"stats"` // live + retired sessions
	Sessions   []MuxSnapshot `json:"sessions"`
	Faults     faultfs.Stats `json:"faults"`
}

// Snapshot captures per-session stream windows and the shed/reset
// counters — the /debug/sock source.
func (w *Websockify) Snapshot() GatewaySnapshot {
	w.mu.Lock()
	snap := GatewaySnapshot{
		Target:     w.target,
		PlainConns: w.plainConns,
		MuxConns:   int64(len(w.sessions)),
		Stats:      w.retired,
	}
	sessions := make([]*Mux, 0, len(w.sessions))
	for m := range w.sessions {
		sessions = append(sessions, m)
	}
	w.mu.Unlock()
	for _, m := range sessions {
		ms := m.Snapshot()
		snap.Sessions = append(snap.Sessions, ms)
		snap.Stats.Add(ms.Stats)
	}
	snap.Faults = w.FaultStats()
	return snap
}
