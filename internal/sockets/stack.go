package sockets

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"time"

	"doppio/internal/browser"
	"doppio/internal/core"
	"doppio/internal/eventloop"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
	"doppio/internal/vfs/retry"
)

// errHeartbeatTimeout is the cause recorded when a pong misses its
// deadline.
var errHeartbeatTimeout = errors.New("sockets: heartbeat timed out")

// Option configures a connection built by Stack.
type Option func(*stackConfig)

type stackConfig struct {
	reconnect *retry.Policy
	heartbeat time.Duration
	maxStream int
	window    int
	shedFn    func() int
	shedDepth int
}

// WithReconnect redials a lost connection with the policy's
// exponential backoff (a zero Policy gets retry.Defaults()).
// Policy.MaxAttempts bounds consecutive failed dials within one
// outage, refused ones included; a successful open resets the count.
// The connection presents a session token on its handshake, so a
// redial resumes the gateway session — every stream picks up where
// the dead transport left it.
func WithReconnect(policy retry.Policy) Option {
	if policy == (retry.Policy{}) {
		policy = retry.Defaults()
	}
	return func(c *stackConfig) { c.reconnect = &policy }
}

// WithHeartbeat pings the gateway at the given period while the
// connection is open, catching half-dead connections that TCP alone
// would let linger: a pong that misses its deadline (one period)
// drops the transport. Only a redial can act on that, so this implies
// WithReconnect (default policy) if it was not given.
func WithHeartbeat(d time.Duration) Option {
	return func(c *stackConfig) { c.heartbeat = d }
}

// WithMux caps the connection at n concurrent streams (n <= 0 means
// the gateway default, 1024): a Dial past n live streams fails with a
// shed StreamError (EAGAIN).
func WithMux(n int) Option {
	return func(c *stackConfig) { c.maxStream = n }
}

// WithWindow sets the per-stream receive window (bytes) advertised to
// the gateway; 0 means 64 KiB.
func WithWindow(bytes int) Option {
	return func(c *stackConfig) { c.window = bytes }
}

// WithShed adds client-side load shedding: when depthFn (typically
// the owning runtime's QueueDepth) exceeds maxDepth at Dial time, the
// dial fails immediately with a shed StreamError (EAGAIN — transient,
// so retry policies back off) instead of adding work to a loop that
// is already behind.
func WithShed(depthFn func() int, maxDepth int) Option {
	return func(c *stackConfig) { c.shedFn = depthFn; c.shedDepth = maxDepth }
}

// Conn is a client connection to the gateway: one multiplexed session
// (MuxPath) over one WebSocket, with a flow-controlled stream per
// Dial. It owns its transport's reliability too: built WithReconnect,
// it parks the session when the WebSocket dies, redials with backoff
// and resumes the session on the new transport — the socket layer's
// analogue of the VFS retry decorator, keeping a long-lived browser
// connection (§5.3) alive over a flaky network. It reports to the
// window's hub: "sockets" from the WebSocket, "sockmux" from the
// session, and its dial, redial and heartbeat counters as "sockretry".
//
// All methods and callbacks run on the window's event loop. The
// session's writer goroutine sends through a closure bound to the
// transport it was handed at open, so it never reads Conn's fields.
type Conn struct {
	win  *browser.Window
	loop *eventloop.Loop
	addr string
	path string
	cfg  stackConfig
	rnd  func() float64

	ws       *WebSocket // the current transport
	mux      *Mux       // nil until the first open and once the connection ends
	open     bool
	closed   bool
	err      error    // why the connection ended; nil while it lives
	waitOpen []func() // dials waiting for the transport to open
	attempt  int      // failed dials in the current outage
	lastErr  error

	// hbTimeout is how long a pong may take: the heartbeat period
	// unless a test changes it before the first open.
	hbTimeout         time.Duration
	hbPing, hbWatch   eventloop.TimerID
	hasPing, hasWatch bool
	pongPending       bool

	// Nil without a window hub; telemetry.Counter is nil-safe.
	dials, opens, reconnects, gaveUp *telemetry.Counter
	heartbeats, hbExpired, backoffNs *telemetry.Counter
}

// sessionToken names a resumable mux session to the gateway.
func sessionToken() string {
	b := make([]byte, 16)
	rand.Read(b)
	return hex.EncodeToString(b)
}

// Stack opens a client connection to the gateway at addr from the
// window's event loop. The first dial starts at once; Dials issued
// before it opens wait for it.
func Stack(w *browser.Window, addr string, opts ...Option) *Conn {
	var cfg stackConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.heartbeat > 0 && cfg.reconnect == nil {
		p := retry.Defaults()
		cfg.reconnect = &p
	}
	c := &Conn{win: w, loop: w.Loop, addr: addr, path: MuxPath, cfg: cfg, hbTimeout: cfg.heartbeat}
	if cfg.reconnect != nil {
		c.rnd = cfg.reconnect.Rand()
		c.path += "?session=" + sessionToken()
	}
	if h := w.Telemetry; h != nil {
		reg := h.Registry
		c.dials = reg.Counter("sockretry", "dials")
		c.opens = reg.Counter("sockretry", "opens")
		c.reconnects = reg.Counter("sockretry", "reconnects")
		c.gaveUp = reg.Counter("sockretry", "gave_up")
		c.heartbeats = reg.Counter("sockretry", "heartbeats")
		c.hbExpired = reg.Counter("sockretry", "heartbeat_timeouts")
		c.backoffNs = reg.Counter("sockretry", "backoff_ns")
	}
	c.dial()
	return c
}

// dial starts one connection attempt.
func (c *Conn) dial() {
	c.dials.Inc()
	ws := DialWebSocketPath(c.win, c.addr, c.path)
	c.ws = ws
	ws.OnOpen = func() { c.onOpen(ws) }
	ws.OnMessage = func(data []byte) {
		if c.mux != nil {
			c.mux.HandleFrame(data)
		}
	}
	ws.OnError = func(err error) { c.lastErr = err }
	ws.OnPong = func([]byte) { c.pongPending = false }
	ws.OnClose = c.onTransportClosed
}

func (c *Conn) onOpen(ws *WebSocket) {
	c.open = true
	c.attempt = 0
	c.opens.Inc()
	send := func(hdr, payload []byte) error { return ws.SendParts(hdr, payload) }
	if c.mux == nil {
		c.mux = NewMux(MuxConfig{
			Window:     c.cfg.window,
			MaxStreams: c.cfg.maxStream,
			Hub:        c.win.Telemetry,
			Send:       send,
		})
	} else {
		// A redial: the gateway parked the session when the old
		// transport died, so pick it up where it stopped.
		c.reconnects.Inc()
		c.mux.Resume(send)
	}
	c.startHeartbeat()
	c.runWaiters()
}

// onTransportClosed handles the end of the current WebSocket, whether
// its dial failed or an open connection was lost.
func (c *Conn) onTransportClosed() {
	c.stopHeartbeat()
	wasOpen := c.open
	c.open = false
	if c.closed {
		return
	}
	if c.cfg.reconnect == nil {
		c.end(c.lastErr)
		return
	}
	if wasOpen {
		// The session waits for the redial with every stream intact.
		c.mux.Park()
	}
	c.scheduleRedial()
}

// scheduleRedial books the next dial after the policy's backoff, or
// ends the connection when the outage has used up its attempts.
func (c *Conn) scheduleRedial() {
	p := c.cfg.reconnect
	c.attempt++
	if c.attempt >= p.Attempts() {
		c.gaveUp.Inc()
		c.end(c.lastErr)
		return
	}
	d := p.Backoff(c.attempt, c.rnd)
	c.backoffNs.Add(int64(d))
	// Same scheme as the VFS retry decorator: core.After's completion
	// holds a pending slot across the wait, and the redial lands on
	// the loop thread as an external event.
	core.After(c.loop, "ws-redial", d, func() {
		if !c.closed {
			c.dial()
		}
	})
}

// end finishes the connection for good: the session's streams fail,
// and so do waiting and later Dials. A transport lost without an
// error (the peer closed it) ends with the transient reset the
// session's streams get.
func (c *Conn) end(err error) {
	if err == nil {
		err = &StreamError{Code: vfs.ECONNRESET}
	}
	c.err = err
	if c.mux != nil {
		c.mux.CloseSession(err)
		c.mux = nil
	}
	c.runWaiters()
}

func (c *Conn) runWaiters() {
	waiters := c.waitOpen
	c.waitOpen = nil
	for _, fn := range waiters {
		fn()
	}
}

// Dial opens one stream and calls cb on the event loop with its
// Socket. A Dial issued before the connection opens, or during a
// redial, waits for the transport. A WithShed stack refuses the dial
// locally (EAGAIN) when the owning loop is over its depth threshold,
// and a connection that has ended fails it with the error that ended
// it.
func (c *Conn) Dial(cb func(*Socket, error)) {
	if c.closed {
		cb(nil, ErrSocketClosed)
		return
	}
	if c.cfg.shedFn != nil && c.cfg.shedDepth > 0 && c.cfg.shedFn() > c.cfg.shedDepth {
		cb(nil, &StreamError{Code: vfs.EAGAIN})
		return
	}
	if c.err != nil {
		cb(nil, c.err)
		return
	}
	if !c.open {
		c.waitOpen = append(c.waitOpen, func() { c.Dial(cb) })
		return
	}
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
}

// Close tears the connection down for good: the session, the
// heartbeat and any pending redial. Dials still waiting for the
// transport fail with ErrSocketClosed.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.stopHeartbeat()
	if c.mux != nil {
		c.mux.CloseSession(nil)
		c.mux = nil
	}
	c.runWaiters()
	// Safe even mid-handshake: WebSocket.Close finishes the teardown
	// once the dial settles.
	return c.ws.Close()
}

// ---- heartbeat ----

func (c *Conn) startHeartbeat() {
	if c.cfg.heartbeat <= 0 {
		return
	}
	c.hbPing = c.loop.SetTimeout(c.heartbeat, c.cfg.heartbeat)
	c.hasPing = true
}

func (c *Conn) stopHeartbeat() {
	if c.hasPing {
		c.loop.ClearTimeout(c.hbPing)
		c.hasPing = false
	}
	if c.hasWatch {
		c.loop.ClearTimeout(c.hbWatch)
		c.hasWatch = false
	}
	c.pongPending = false
}

// heartbeat sends one ping, arms the pong watchdog, and books the next
// beat.
func (c *Conn) heartbeat() {
	c.hasPing = false
	if c.closed || !c.open {
		return
	}
	c.heartbeats.Inc()
	c.pongPending = true
	if err := c.ws.Ping(nil); err != nil {
		c.dropDead(err)
		return
	}
	// One watchdog outstanding at a time: arming a fresh one per ping
	// would pile up a live timer per beat whenever the timeout exceeds
	// the period (keeping the loop busy for a full timeout after
	// Close, since stopHeartbeat can only clear the latest), and a
	// missed pong is still caught within period+timeout by the next
	// arm.
	if !c.hasWatch {
		c.hbWatch = c.loop.SetTimeout(func() {
			c.hasWatch = false
			if c.pongPending && c.open && !c.closed {
				c.hbExpired.Inc()
				c.dropDead(errHeartbeatTimeout)
			}
		}, c.hbTimeout)
		c.hasWatch = true
	}
	c.startHeartbeat()
}

// dropDead tears down a connection the heartbeat has declared dead;
// the WebSocket's close event then drives the redial. No close frame
// is sent: the peer is presumed gone, and to a gateway a close frame
// would mean the client is done with its session.
func (c *Conn) dropDead(err error) {
	c.lastErr = err
	c.stopHeartbeat()
	c.ws.abort()
}
