package sockets

import (
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"doppio/internal/browser"
	"doppio/internal/core"
	"doppio/internal/eventloop"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

// DialError reports why an outgoing WebSocket connection never reached
// the open state, distinguishing a *refused* connection (the dial was
// actively rejected: nothing is listening) from a *dropped* one (the
// transport connected, or was lost mid-handshake: the server exists).
// Errno carries the split to vfs.Classify.
type DialError struct {
	Addr    string
	Refused bool
	Err     error
}

func (e *DialError) Error() string {
	mode := "connection dropped before open"
	if e.Refused {
		mode = "connection refused"
	}
	return fmt.Sprintf("sockets: dial %s: %s: %v", e.Addr, mode, e.Err)
}

// Unwrap exposes the underlying transport error.
func (e *DialError) Unwrap() error { return e.Err }

// Errno classifies the dial failure for vfs.Classify: a refused dial
// is ECONNREFUSED (final: nothing is listening), a dropped one is
// ECONNRESET (transient: the server exists). This is the same split
// Refused encodes, exported as an errno so socket dials classify like
// VFS errors.
func (e *DialError) Errno() vfs.Errno {
	if e.Refused {
		return vfs.ECONNREFUSED
	}
	return vfs.ECONNRESET
}

// WebSocket is the asynchronous browser-side WebSocket API: events are
// delivered on the event loop, and only *outgoing* connections are
// possible — the browser restriction that shapes all of §5.3.
//
// On browsers without native WebSocket support the connection runs
// through the Websockify Flash shim, which the paper mentions as the
// fallback; we model the shim as extra per-message latency.
type WebSocket struct {
	loop *eventloop.Loop
	path string
	shim time.Duration // per-message Flash shim latency (0 = native)

	// connMu guards conn's assignment: the connect goroutine installs
	// it mid-handshake, and Close may read it at any time (including
	// before the open event). Post-open readers (Send, SendParts, the
	// reader pump) are ordered after the assignment by the open
	// event's delivery and need no lock.
	connMu sync.Mutex
	conn   net.Conn
	// shutOnce closes conn once: the reader pump closes it when the
	// transport ends, and a later Close finds nothing left to close.
	shutOnce sync.Once
	// closing marks a local Close before it shuts conn, so the reader
	// pump can tell the read error that Close causes from a transport
	// the peer or the network reset.
	closing atomic.Bool

	// wmu serializes every frame written to conn. Writers live on
	// different goroutines — Send and Close on the event loop,
	// SendParts on the mux session's writer, the auto-pong on the
	// reader pump — and net.Conn.Write may split one frame across
	// several syscalls under backpressure, so unserialized writers
	// could interleave mid-frame and desync the WS byte stream.
	wmu sync.Mutex

	// OnOpen, OnMessage, OnError and OnClose are the DOM event
	// handlers; assign them before Dial completes the handshake.
	OnOpen    func()
	OnMessage func(data []byte)
	OnError   func(err error)
	OnClose   func()

	tel *wsTelemetry

	// closeRequested records a Close that arrived before the handshake
	// finished; the open event completes the teardown. Loop thread
	// only.
	closeRequested bool

	// settle resolves the connection-lifetime completion: exactly one
	// call wins — with an error for a failed dial or a reset
	// transport, nil for an orderly close — and releases the loop's
	// pending slot.
	settle func(v interface{}, err error)
}

// wsTelemetry holds the socket layer's metric handles. Counters are
// atomic, so the connect goroutine increments them off the event loop.
type wsTelemetry struct {
	framesIn  *telemetry.Counter
	framesOut *telemetry.Counter
	bytesIn   *telemetry.Counter
	bytesOut  *telemetry.Counter
	handshake *telemetry.Histogram
	tracer    *telemetry.Tracer
}

func newWSTelemetry(h *telemetry.Hub) *wsTelemetry {
	if h == nil {
		return nil
	}
	if h.Tracer != nil {
		h.Tracer.ThreadName(telemetry.TIDNetwork, "network")
	}
	return &wsTelemetry{
		framesIn:  h.Registry.Counter("sockets", "frames_in"),
		framesOut: h.Registry.Counter("sockets", "frames_out"),
		bytesIn:   h.Registry.Counter("sockets", "bytes_in"),
		bytesOut:  h.Registry.Counter("sockets", "bytes_out"),
		handshake: h.Registry.Histogram("sockets", "handshake"),
		tracer:    h.Tracer,
	}
}

// flashShimLatency models proxying each message through a Flash applet.
const flashShimLatency = 2 * time.Millisecond

// DialWebSocket opens a WebSocket to addr (host:port) from the given
// browser window. The handshake and I/O happen on real TCP; events
// fire on the window's event loop. The returned WebSocket is not open
// until OnOpen fires.
func DialWebSocket(w *browser.Window, addr string) *WebSocket {
	return DialWebSocketPath(w, addr, "/")
}

// DialWebSocketPath is DialWebSocket with an explicit request path.
// The gateway selects its mode by path: "/" proxies one TCP stream
// per connection, MuxPath multiplexes many (§15 of DESIGN.md).
func DialWebSocketPath(w *browser.Window, addr, path string) *WebSocket {
	ws := &WebSocket{loop: w.Loop, path: path, tel: newWSTelemetry(w.Telemetry)}
	if !w.Profile.HasWebSockets {
		ws.shim = flashShimLatency
	}
	// The whole connection lifetime is one core.Completion: it keeps
	// the event loop alive while the socket lives, and its single-fire
	// settlement delivers the terminal error/close event exactly once
	// no matter how the reader pump and Close race.
	lifetime := core.NewCompletion(w.Loop, "sock.ws("+addr+")")
	lifetime.Then(func(_ interface{}, err error) {
		if err != nil && ws.OnError != nil {
			ws.OnError(err)
		}
		if ws.OnClose != nil {
			ws.OnClose()
		}
	})
	ws.settle = lifetime.Resolver()
	go ws.connect(addr)
	return ws
}

func (ws *WebSocket) emit(label string, fn func()) {
	ws.loop.InvokeExternal(label, fn)
}

func (ws *WebSocket) connect(addr string) {
	var hsSpan telemetry.Span
	var hsStart time.Time
	if tel := ws.tel; tel != nil {
		hsStart = time.Now()
		if tel.tracer != nil {
			hsSpan = tel.tracer.Begin(telemetry.TIDNetwork, "sockets", "handshake "+addr)
		}
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		// The TCP dial itself failed: refused when actively rejected,
		// dropped otherwise (timeout, unreachable, ...).
		ws.fail(&DialError{Addr: addr, Refused: errors.Is(err, syscall.ECONNREFUSED), Err: err})
		return
	}
	br, err := ClientHandshake(conn, addr, ws.path)
	if err != nil {
		// The transport connected but died before the WebSocket opened:
		// a dropped connection, never a refused one.
		conn.Close()
		ws.fail(&DialError{Addr: addr, Err: err})
		return
	}
	if tel := ws.tel; tel != nil {
		hsSpan.End()
		tel.handshake.ObserveSince(hsStart)
	}
	ws.connMu.Lock()
	ws.conn = conn
	ws.connMu.Unlock()
	ws.emit("ws-open", func() {
		if ws.closeRequested {
			// Close raced the handshake: finish the teardown it could
			// not do while conn was nil.
			ws.Close()
			return
		}
		if ws.OnOpen != nil {
			ws.OnOpen()
		}
	})
	// Reader pump: every incoming frame becomes a message event.
	for {
		f, err := ReadFrame(br)
		if err != nil || f.Op == OpClose {
			// Release any writer still blocked on the dead connection.
			ws.shut(conn)
			if err != nil && !ws.closing.Load() {
				// No close frame came and Close was not called: the
				// transport was reset, which a program reads as
				// ECONNRESET, as on a mux stream, not as EOF.
				ws.fail(&StreamError{Code: vfs.ECONNRESET})
				return
			}
			ws.closeEvent()
			return
		}
		switch f.Op {
		case OpPing:
			// RFC 6455 requires the pong; script never sees either.
			pong := &Frame{Fin: true, Op: OpPong, Masked: true, Payload: f.Payload}
			rand.Read(pong.MaskKey[:])
			ws.wmu.Lock()
			WriteFrame(ws.conn, pong)
			ws.wmu.Unlock()
		case OpBinary, OpText:
			data := f.Payload
			if tel := ws.tel; tel != nil {
				tel.framesIn.Inc()
				tel.bytesIn.Add(int64(len(data)))
			}
			if ws.shim > 0 {
				time.Sleep(ws.shim)
			}
			ws.emit("ws-message", func() {
				if ws.OnMessage != nil {
					ws.OnMessage(data)
				}
			})
		}
	}
}

func (ws *WebSocket) fail(err error) { ws.settle(nil, err) }
func (ws *WebSocket) closeEvent()    { ws.settle(nil, nil) }

// shut closes the open transport conn once; only the call that closes
// it can report an error.
func (ws *WebSocket) shut(conn net.Conn) (err error) {
	ws.shutOnce.Do(func() { err = conn.Close() })
	return err
}

// Send transmits data as one masked binary frame (client frames must
// be masked per RFC 6455).
func (ws *WebSocket) Send(data []byte) error {
	if tel := ws.tel; tel != nil {
		tel.framesOut.Inc()
		tel.bytesOut.Add(int64(len(data)))
	}
	if ws.shim > 0 {
		time.Sleep(ws.shim)
	}
	f := &Frame{Fin: true, Op: OpBinary, Masked: true, Payload: data}
	if _, err := rand.Read(f.MaskKey[:]); err != nil {
		return err
	}
	ws.wmu.Lock()
	defer ws.wmu.Unlock()
	return WriteFrame(ws.conn, f)
}

// SendParts transmits the concatenation of parts as one *unmasked*
// binary frame in a single writev — the mux hot path: the 13-byte
// stream header and the payload go to the kernel without a copy or a
// mask pass. Unmasked client frames deviate from RFC 6455 §5.2 by
// design (both endpoints are ours; see WriteBinaryFrame).
func (ws *WebSocket) SendParts(parts ...[]byte) error {
	if ws.conn == nil {
		return ErrSocketClosed
	}
	if tel := ws.tel; tel != nil {
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		tel.framesOut.Inc()
		tel.bytesOut.Add(int64(n))
	}
	ws.wmu.Lock()
	defer ws.wmu.Unlock()
	return WriteBinaryFrame(ws.conn, parts...)
}

// Close sends a close frame and tears down the connection. Closing
// before the handshake finishes is honored once it does, and closing
// a connection whose transport is already gone reports no error.
func (ws *WebSocket) Close() error {
	ws.closeRequested = true
	ws.connMu.Lock()
	conn := ws.conn
	ws.connMu.Unlock()
	if conn == nil {
		return nil
	}
	ws.closing.Store(true)
	// TryLock: if another writer is wedged mid-frame on a dead peer,
	// skip the courtesy close frame — closing conn below is what
	// unblocks that writer, and waiting for it here would deadlock.
	if ws.wmu.TryLock() {
		f := &Frame{Fin: true, Op: OpClose, Masked: true}
		rand.Read(f.MaskKey[:])
		WriteFrame(conn, f)
		ws.wmu.Unlock()
	}
	return ws.shut(conn)
}
