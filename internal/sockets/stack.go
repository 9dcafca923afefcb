package sockets

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"

	"doppio/internal/browser"
	"doppio/internal/eventloop"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
	"doppio/internal/vfs/faultfs"
	"doppio/internal/vfs/retry"
)

// The client-side construction story, redesigned: instead of the
// ad-hoc trio (raw WebSocket + ReconnectingWS + post-hoc mutators), a
// connection is assembled by Stack with the same enforced-decorator-
// order discipline as vfs.Stack:
//
//	transport (ws | reconnecting ws) → faults → telemetry (outermost),
//	with the mux session — when enabled — consuming the whole chain.
//
// The ordering is load-bearing: faults sit directly on the transport
// so they model the network (in mux mode a fault resets the
// connection, which the reconnecting transport and session resume
// above them must absorb, as VFS retry absorbs faultfs); telemetry
// sits outermost so its counters see what the application sees.
// Options are order-independent; Find walks the chain.

// Link is one layer of the client transport chain: it sends one
// message (the concatenation of parts, zero-copy where the transport
// allows) and is torn down by Close. Events flow up the chain through
// the LinkEvents bound at assembly.
type Link interface {
	Send(parts ...[]byte) error
	Close() error
}

// LinkUnwrapper is implemented by every decorating link; it exposes
// the wrapped layer so callers can walk the chain.
type LinkUnwrapper interface {
	Unwrap() Link
}

// Find walks a link chain outermost-in (via Unwrap) and returns the
// first layer satisfying T — a concrete type like *FaultLink, or a
// capability interface.
func Find[T any](l Link) (T, bool) {
	for l != nil {
		if t, ok := any(l).(T); ok {
			return t, true
		}
		u, ok := l.(LinkUnwrapper)
		if !ok {
			break
		}
		l = u.Unwrap()
	}
	var zero T
	return zero, false
}

// linkEvents is the upward event flow of a link chain.
type linkEvents struct {
	onOpen    func(reconnected bool)
	onMessage func(data []byte)
	onClosed  func(err error) // terminal: no further events
}

// Option selects and configures one layer of a socket stack.
type Option func(*stackConfig)

type stackConfig struct {
	reconnect *retry.Policy
	heartbeat time.Duration
	mux       bool
	maxStream int
	window    int
	plan      *faultfs.Plan
	inj       *faultfs.Injector
	hub       *telemetry.Hub
	shedFn    func() int
	shedDepth int
}

// WithReconnect adds the reconnecting transport: connection drops
// redial with the policy's exponential backoff (a zero Policy gets
// retry.Defaults()). With WithMux, the stack also presents a session
// token on its handshake, so a redial resumes the gateway session —
// every stream picks up where the dead transport left it.
func WithReconnect(policy retry.Policy) Option {
	return func(c *stackConfig) { c.reconnect = &policy }
}

// WithHeartbeat enables ping/pong liveness probing at the given
// period. Heartbeats live in the reconnecting transport, so this
// implies WithReconnect (with default policy) if it was not given.
func WithHeartbeat(d time.Duration) Option {
	return func(c *stackConfig) { c.heartbeat = d }
}

// WithMux multiplexes up to n concurrent logical streams over the one
// connection (n <= 0 means the gateway default, 1024). Each Dial
// opens one flow-controlled stream, and a Dial past n live streams
// fails with a shed StreamError (EAGAIN); without WithMux, a Conn
// carries exactly one Dial.
func WithMux(n int) Option {
	return func(c *stackConfig) { c.mux = true; c.maxStream = n }
}

// WithWindow sets the per-stream receive window (bytes) advertised to
// the gateway; 0 means 64 KiB. Only meaningful with WithMux.
func WithWindow(bytes int) Option {
	return func(c *stackConfig) { c.window = bytes }
}

// WithFaults adds the fault-injection layer directly above the
// transport. In mux mode decisions are drawn per DATA frame and every
// fault resets the connection without a close frame (resumed with
// WithReconnect); in plain mode they hit whole messages.
func WithFaults(plan faultfs.Plan) Option {
	return func(c *stackConfig) { c.plan = &plan }
}

// WithInjector is WithFaults with a caller-owned injector, for tests
// that share one decision sequence across stacks.
func WithInjector(inj *faultfs.Injector) Option {
	return func(c *stackConfig) { c.inj = inj }
}

// WithTelemetry instruments the stack (outermost): frame/byte
// counters under "sockstack", plus the hub flows into the transport
// ("sockretry") and mux ("sockmux") layers.
func WithTelemetry(hub *telemetry.Hub) Option {
	return func(c *stackConfig) { c.hub = hub }
}

// WithShed adds client-side load shedding: when depthFn (typically
// the owning runtime's QueueDepth) exceeds maxDepth at Dial time, the
// dial fails immediately with a shed StreamError (EAGAIN — transient,
// so retry policies back off) instead of adding work to a loop that
// is already behind.
func WithShed(depthFn func() int, maxDepth int) Option {
	return func(c *stackConfig) { c.shedFn = depthFn; c.shedDepth = maxDepth }
}

// ---- link layers ----

// wsLink is the base transport over a single WebSocket.
type wsLink struct {
	ws  *WebSocket
	mux bool
}

func (l *wsLink) Send(parts ...[]byte) error {
	if l.mux {
		return l.ws.SendParts(parts...)
	}
	return l.ws.Send(concat(parts))
}

func (l *wsLink) Close() error { return l.ws.Close() }

func (l *wsLink) abort() { l.ws.abort() }

// rwsLink is the base transport over a reconnecting WebSocket.
type rwsLink struct {
	rws *ReconnectingWS
	mux bool
}

func (l *rwsLink) Send(parts ...[]byte) error {
	if l.mux {
		return l.rws.SendParts(parts...)
	}
	return l.rws.Send(concat(parts))
}

func (l *rwsLink) Close() error { return l.rws.Close() }

func (l *rwsLink) abort() { l.rws.abort() }

// aborter is a base transport that can drop its connection without a
// close frame, the way a reset TCP connection ends. Safe from any
// goroutine.
type aborter interface{ abort() }

func concat(parts [][]byte) []byte {
	if len(parts) == 1 {
		return parts[0]
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]byte, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// FaultLink injects deterministic faults on the client side of the
// data path — the peer of the gateway's injector. Recover it from a
// Conn with Find[*FaultLink] to read its Stats.
type FaultLink struct {
	inner Link
	inj   *faultfs.Injector
	mux   bool
	// severed records that an incoming fault reset the current
	// transport: what it still delivers is dropped, since a reset
	// connection delivers nothing past the fault. Loop thread only.
	severed bool
}

// Unwrap exposes the wrapped layer.
func (l *FaultLink) Unwrap() Link { return l.inner }

// Stats snapshots the injector's decision counters.
func (l *FaultLink) Stats() faultfs.Stats { return l.inj.Stats() }

func (l *FaultLink) Send(parts ...[]byte) error {
	if l.mux {
		deliver, reset := muxFault(l.inj, "out", parts[0])
		err := errInjectedReset
		if deliver {
			err = l.inner.Send(parts...)
		}
		if reset {
			l.abort()
		}
		return err
	}
	payload, forward, _ := applyFault(l.inj, "out", concat(parts))
	if !forward {
		return nil
	}
	return l.inner.Send(payload)
}

func (l *FaultLink) Close() error { return l.inner.Close() }

// abort resets the transport under the link.
func (l *FaultLink) abort() {
	if a, ok := Find[aborter](l.inner); ok {
		a.abort()
	}
}

// recv transforms one incoming message (dropping it returns nil, false).
func (l *FaultLink) recv(data []byte) ([]byte, bool) {
	if l.mux {
		if l.severed {
			return nil, false
		}
		deliver, reset := muxFault(l.inj, "in", data)
		if reset {
			l.severed = true
			l.abort()
		}
		return data, deliver
	}
	out, forward, _ := applyFault(l.inj, "in", data)
	return out, forward
}

// TelLink counts frames and bytes through the stack under the
// "sockstack" subsystem — the outermost layer, so it measures what
// the application sees.
type TelLink struct {
	inner               Link
	framesIn, framesOut *telemetry.Counter
	bytesIn, bytesOut   *telemetry.Counter
}

// Unwrap exposes the wrapped layer.
func (l *TelLink) Unwrap() Link { return l.inner }

func (l *TelLink) Send(parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	l.framesOut.Inc()
	l.bytesOut.Add(int64(n))
	return l.inner.Send(parts...)
}

func (l *TelLink) Close() error { return l.inner.Close() }

func (l *TelLink) recv(data []byte) {
	l.framesIn.Inc()
	l.bytesIn.Add(int64(len(data)))
}

// ---- the assembled connection ----

// Conn is an assembled client connection: the link chain plus, in mux
// mode, the session. All methods and callbacks run on the window's
// event loop (sessions additionally run internal goroutines, but
// their callbacks are routed loop-safely through completions).
type Conn struct {
	win  *browser.Window
	loop *eventloop.Loop
	addr string
	cfg  stackConfig

	link Link
	tel  *TelLink
	flt  *FaultLink

	mux       *Mux
	open      bool
	closed    bool
	err       error
	waitOpen  []func() // dials queued before the link opened
	plainUsed bool
	plain     *plainStream
}

// sessionToken names a resumable mux session to the gateway.
func sessionToken() string {
	b := make([]byte, 16)
	rand.Read(b)
	return hex.EncodeToString(b)
}

// Stack assembles a client connection to addr from the window's event
// loop, in the one layer order that is correct regardless of option
// order (see the package comment above). The zero-option stack is a
// plain single-stream WebSocket connection.
func Stack(w *browser.Window, addr string, opts ...Option) *Conn {
	var cfg stackConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.heartbeat > 0 && cfg.reconnect == nil {
		p := retry.Defaults()
		cfg.reconnect = &p
	}
	if cfg.inj == nil && cfg.plan != nil && cfg.plan.Enabled() {
		cfg.inj = faultfs.New(*cfg.plan)
	}
	c := &Conn{win: w, loop: w.Loop, addr: addr, cfg: cfg}

	path := "/"
	if cfg.mux {
		path = MuxPath
		if cfg.reconnect != nil {
			path += "?session=" + sessionToken()
		}
	}

	// Incoming events route through the chain top-down: telemetry
	// counts, faults may drop/truncate, then the Conn dispatches.
	deliver := func(data []byte) {
		if c.tel != nil {
			c.tel.recv(data)
		}
		if c.flt != nil {
			var ok bool
			if data, ok = c.flt.recv(data); !ok {
				return
			}
		}
		c.dispatch(data)
	}

	// Base transport.
	var base Link
	if cfg.reconnect != nil {
		rws := NewReconnectingWS(w, addr, ReconnectOptions{
			Policy:            *cfg.reconnect,
			HeartbeatInterval: cfg.heartbeat,
			Hub:               cfg.hub,
			Path:              path,
		})
		rws.OnOpen = func(reconnected bool) { c.onOpen(reconnected) }
		rws.OnMessage = deliver
		rws.OnDown = func(err error) { c.onDown(err) }
		rws.OnGiveUp = func(err error) { c.onClosed(err) }
		base = &rwsLink{rws: rws, mux: cfg.mux}
	} else {
		ws := DialWebSocketPath(w, addr, path)
		var lastErr error
		ws.OnOpen = func() { c.onOpen(false) }
		ws.OnMessage = deliver
		ws.OnError = func(err error) { lastErr = err }
		ws.OnClose = func() { c.onClosed(lastErr) }
		base = &wsLink{ws: ws, mux: cfg.mux}
	}

	// Faults directly above the transport.
	link := base
	if cfg.inj != nil {
		c.flt = &FaultLink{inner: link, inj: cfg.inj, mux: cfg.mux}
		link = c.flt
	}
	// Telemetry outermost.
	if cfg.hub != nil {
		reg := cfg.hub.Registry
		c.tel = &TelLink{
			inner:     link,
			framesIn:  reg.Counter("sockstack", "frames_in"),
			framesOut: reg.Counter("sockstack", "frames_out"),
			bytesIn:   reg.Counter("sockstack", "bytes_in"),
			bytesOut:  reg.Counter("sockstack", "bytes_out"),
		}
		link = c.tel
	}
	c.link = link
	if !cfg.mux {
		// The plain stream exists from the start so messages arriving
		// before Dial (a server that talks first) are buffered, not
		// dropped. Closing the socket closes the connection: in plain
		// mode they are the same thing.
		c.plain = &plainStream{
			send:    func(b []byte) error { return c.link.Send(b) },
			closeFn: func() error { return c.Close() },
		}
	}
	return c
}

// Link returns the top of the link chain (walk it with Find).
func (c *Conn) Link() Link { return c.link }

// Mux returns the current mux session (nil in plain mode or before
// the connection opens).
func (c *Conn) Mux() *Mux { return c.mux }

func (c *Conn) onOpen(reconnected bool) {
	if c.closed {
		return
	}
	if c.flt != nil {
		c.flt.severed = false
	}
	if c.cfg.mux {
		send := func(hdr, payload []byte) error { return c.link.Send(hdr, payload) }
		if c.mux == nil {
			c.mux = NewMux(MuxConfig{
				Window:     c.cfg.window,
				MaxStreams: c.cfg.maxStream,
				Hub:        c.cfg.hub,
				Send:       send,
			})
		} else {
			// A redial: the gateway parked the session when the old
			// transport died, so pick it up where it stopped.
			c.mux.Resume(send)
		}
	}
	c.open = true
	waiters := c.waitOpen
	c.waitOpen = nil
	for _, fn := range waiters {
		fn()
	}
}

func (c *Conn) onDown(err error) {
	// Reconnecting transport lost the link; a redial is in flight, and
	// the session waits for it with every stream intact.
	c.open = false
	if c.mux != nil {
		c.mux.Park()
	}
	if c.plain != nil {
		c.plain.finish(err)
	}
}

func (c *Conn) onClosed(err error) {
	c.open = false
	if c.mux != nil {
		c.mux.CloseSession(err)
		c.mux = nil
	}
	if c.plain != nil {
		c.plain.finish(err)
	}
	c.err = err
	waiters := c.waitOpen
	c.waitOpen = nil
	for _, fn := range waiters {
		fn()
	}
}

func (c *Conn) dispatch(data []byte) {
	if c.cfg.mux {
		if c.mux != nil {
			c.mux.HandleFrame(data)
		}
		return
	}
	if c.plain != nil {
		c.plain.deliver(data)
	}
}

// Dial opens one logical stream and calls cb on the event loop with
// its Socket. In mux mode every Dial is a new flow-controlled stream
// over the shared connection; in plain mode the Conn carries exactly
// one Dial (the whole connection is the stream) and a second Dial
// fails. A WithShed stack refuses the dial locally (EAGAIN) when the
// owning loop is over its depth threshold.
func (c *Conn) Dial(cb func(*Socket, error)) {
	if c.closed {
		cb(nil, ErrSocketClosed)
		return
	}
	if c.cfg.shedFn != nil && c.cfg.shedDepth > 0 && c.cfg.shedFn() > c.cfg.shedDepth {
		cb(nil, &StreamError{Code: vfs.EAGAIN})
		return
	}
	if !c.open {
		if c.err != nil {
			cb(nil, c.err)
			return
		}
		c.waitOpen = append(c.waitOpen, func() { c.Dial(cb) })
		return
	}
	if c.cfg.mux {
		st, err := c.mux.Open()
		if err != nil {
			cb(nil, err)
			return
		}
		st.SetOpened(func(err error) {
			// May fire on a session goroutine; marshal to the loop.
			c.loop.InvokeExternal("sock-dial", func() {
				if err != nil {
					cb(nil, err)
					return
				}
				cb(newSocket(c.loop, muxByteStream{st: st}), nil)
			})
		})
		return
	}
	if c.plainUsed {
		cb(nil, fmt.Errorf("sockets: plain connection already dialed (use WithMux for multiple streams)"))
		return
	}
	c.plainUsed = true
	cb(newSocket(c.loop, c.plain), nil)
}

// Close tears the whole connection down: the session (if any), then
// the link chain.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.mux != nil {
		c.mux.CloseSession(nil)
		c.mux = nil
	}
	if c.plain != nil {
		c.plain.finish(nil)
	}
	return c.link.Close()
}
