package sockets

import (
	"doppio/internal/browser"
	"doppio/internal/eventloop"
	"doppio/internal/vfs"
)

// Option configures a connection built by Stack.
type Option func(*stackConfig)

type stackConfig struct {
	maxStream int
	// window is the per-stream receive window advertised to the
	// gateway; 0 means 64 KiB. No option sets it: a test that needs a
	// small window sets it right after Stack, before the transport
	// opens.
	window    int
	shedFn    func() int
	shedDepth int
}

// WithMux caps the connection at n concurrent streams (n <= 0 means
// the gateway default, 1024): a Dial past n live streams fails with a
// shed StreamError (EAGAIN).
func WithMux(n int) Option {
	return func(c *stackConfig) { c.maxStream = n }
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
// Dial. The session lives exactly as long as the WebSocket: when the
// transport is lost, its streams fail with ECONNRESET and so does
// every later Dial, as a browser program sees a lost WebSocket (§5.3).
// It reports to the window's hub: "sockets" from the WebSocket and
// "sockmux" from the session.
//
// All methods and callbacks run on the window's event loop. The
// session's writer goroutine sends through a closure bound to the
// WebSocket, so it never reads Conn's fields.
type Conn struct {
	loop *eventloop.Loop
	cfg  stackConfig

	ws       *WebSocket
	mux      *Mux // nil until the transport opens and once the connection ends
	closed   bool
	err      error    // why the connection ended; nil while it lives
	waitOpen []func() // dials waiting for the transport to open
}

// Stack opens a client connection to the gateway at addr from the
// window's event loop. The dial starts at once; Dials issued before it
// opens wait for it.
func Stack(w *browser.Window, addr string, opts ...Option) *Conn {
	c := &Conn{loop: w.Loop}
	for _, o := range opts {
		o(&c.cfg)
	}
	ws := DialWebSocketPath(w, addr, MuxPath)
	c.ws = ws
	ws.OnOpen = func() {
		c.mux = NewMux(MuxConfig{
			Window:     c.cfg.window,
			MaxStreams: c.cfg.maxStream,
			Hub:        w.Telemetry,
			Send:       func(hdr, payload []byte) error { return ws.SendParts(hdr, payload) },
		})
		c.runWaiters()
	}
	ws.OnMessage = func(data []byte) {
		if c.mux != nil {
			c.mux.HandleFrame(data)
		}
	}
	// A failed dial reports its error before the close event; a lost
	// transport closes without one.
	ws.OnError = c.end
	ws.OnClose = func() { c.end(nil) }
	return c
}

// end finishes the connection for good: the session's streams fail,
// and so do waiting and later Dials. A transport lost without an
// error (the peer closed it) ends with the transient reset the
// session's streams get. Only the first call counts.
func (c *Conn) end(err error) {
	if c.closed || c.err != nil {
		return
	}
	if err == nil {
		err = &StreamError{Code: vfs.ECONNRESET}
	}
	c.err = err
	if c.mux != nil {
		c.mux.CloseSession()
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
// Socket. A Dial issued before the connection opens waits for the
// transport. A WithShed stack refuses the dial locally (EAGAIN) when
// the owning loop is over its depth threshold, and a connection that
// has ended fails it with the error that ended it.
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
	if c.mux == nil {
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

// Close tears the connection down for good: the session and its
// WebSocket. Dials still waiting for the transport fail with
// ErrSocketClosed.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.mux != nil {
		c.mux.CloseSession()
		c.mux = nil
	}
	c.runWaiters()
	// Safe even mid-handshake: WebSocket.Close finishes the teardown
	// once the dial settles.
	return c.ws.Close()
}
