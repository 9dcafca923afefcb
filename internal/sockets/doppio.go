package sockets

import (
	"fmt"
	"io"
	"sync"

	"doppio/internal/browser"
	"doppio/internal/core"
	"doppio/internal/eventloop"
)

// Socket emulates the Unix client socket API over the gateway (§5.3:
// "DOPPIO resolves the client side of the issue by emulating a Unix
// socket API in terms of WebSocket functionality"). Read and Write
// return labelled core.Completions — `sockets.read(fd)` /
// `sockets.write(fd)` — so a language thread parked on socket I/O
// shows the socket, not a generic native frame, in deadlock reports
// and /debug/threads; this closes the last blocking-site gap left by
// the PR 4 Completion unification.
//
// Incoming bytes accumulate in a receive buffer; Read drains it,
// waiting for data when it is empty, which restores TCP's byte-stream
// semantics over the message-oriented transport. A Socket is backed
// by either a whole WebSocket (Connect) or one mux stream of a
// gateway session (Stack).
type Socket struct {
	loop *eventloop.Loop
	fd   int32

	mu      sync.Mutex
	bs      byteStream
	pending *core.Completion // at most one outstanding Read
	pendN   int
}

// ErrSocketClosed reports I/O on a closed socket.
var ErrSocketClosed = fmt.Errorf("sockets: socket is closed")

// byteStream is the transport behind a Socket: a mux stream or a
// plain per-connection WebSocket. tryRead returns (nil, nil) when no
// data is buffered yet, (nil, io.EOF) at end of stream.
type byteStream interface {
	writeAsync(p []byte, done func(error))
	tryRead(max int) ([]byte, error)
	setReadable(fn func())
	closeStream() error
	buffered() int
}

func newSocket(loop *eventloop.Loop, bs byteStream) *Socket {
	s := &Socket{loop: loop, fd: -1, bs: bs}
	bs.setReadable(s.onReadable)
	return s
}

// SetFD records the descriptor number the owning runtime assigned, so
// completion labels read `sockets.read(7)` instead of `sockets.read(-1)`.
func (s *Socket) SetFD(fd int32) { s.fd = fd }

// FD returns the assigned descriptor (-1 before SetFD).
func (s *Socket) FD() int32 { return s.fd }

// onReadable runs whenever the stream gains data, reaches EOF, or
// errors; it settles the pending Read if one is parked. It may fire
// on the event loop (normal delivery) or on a session goroutine
// (transport death), hence the lock; settlement itself goes through
// the completion's goroutine-safe resolver.
func (s *Socket) onReadable() {
	s.mu.Lock()
	c := s.pending
	if c == nil {
		s.mu.Unlock()
		return
	}
	data, err := s.bs.tryRead(s.pendN)
	if data == nil && err == nil {
		// Spurious wakeup: still nothing to deliver.
		s.mu.Unlock()
		return
	}
	s.pending = nil
	s.mu.Unlock()
	c.Resolver()(readResult(data, err))
}

// readResult maps a tryRead outcome to a Read completion's result.
func readResult(data []byte, err error) (interface{}, error) {
	if err == io.EOF {
		return nil, nil // TCP EOF convention: (nil, nil)
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Read returns a completion that resolves with up to n bytes once
// available ([]byte value), with (nil, nil) at end of stream — the
// TCP EOF convention — or with the stream's terminal error. Only one
// Read may be pending at a time. A Read that finds data (or EOF)
// already buffered returns settled, so the caller continues without
// yielding.
func (s *Socket) Read(n int) *core.Completion {
	c := core.NewCompletion(s.loop, fmt.Sprintf("sockets.read(%d)", s.fd))
	s.mu.Lock()
	if s.pending != nil {
		s.mu.Unlock()
		c.Resolve(nil, fmt.Errorf("sockets: concurrent Read on one socket"))
		return c
	}
	data, err := s.bs.tryRead(n)
	if data == nil && err == nil {
		s.pending = c
		s.pendN = n
		s.mu.Unlock()
		return c
	}
	s.mu.Unlock()
	c.Resolve(readResult(data, err))
	return c
}

// Write returns a completion that resolves once the bytes are
// admitted to the transport — for a mux stream, once flow control has
// accepted them, so a zero-window stream parks the writer (visibly,
// under the `sockets.write(fd)` label) until the peer grants credit.
// A write admitted at once returns settled, as a browser's
// WebSocket.send returns without waiting; only a later settlement,
// which may come from a session goroutine, goes through the
// completion's resolver.
func (s *Socket) Write(data []byte) *core.Completion {
	c := core.NewCompletion(s.loop, fmt.Sprintf("sockets.write(%d)", s.fd))
	var (
		mu        sync.Mutex
		launching = true
		early     bool
		earlyErr  error
		resolve   func(interface{}, error)
	)
	s.bs.writeAsync(data, func(err error) {
		mu.Lock()
		if launching {
			early, earlyErr = true, err
			mu.Unlock()
			return
		}
		r := resolve
		mu.Unlock()
		r(nil, err)
	})
	mu.Lock()
	launching = false
	if !early {
		resolve = c.Resolver()
	}
	mu.Unlock()
	if early {
		c.Resolve(nil, earlyErr)
	}
	return c
}

// Close shuts the socket down.
func (s *Socket) Close() error {
	s.mu.Lock()
	c := s.pending
	s.pending = nil
	s.mu.Unlock()
	if c != nil {
		c.Resolver()(nil, ErrSocketClosed)
	}
	return s.bs.closeStream()
}

// Buffered reports the bytes waiting in the receive buffer.
func (s *Socket) Buffered() int { return s.bs.buffered() }

// ---- plain (one WebSocket per socket) transport ----

// plainStream adapts a single WebSocket's message flow to the
// byteStream interface: messages append to a receive buffer, writes
// pass through, EOF surfaces when the connection closes.
type plainStream struct {
	mu       sync.Mutex
	send     func([]byte) error
	closeFn  func() error
	recv     []byte
	eof      bool
	err      error
	closed   bool
	readable func()
}

func (p *plainStream) deliver(data []byte) {
	p.mu.Lock()
	p.recv = append(p.recv, data...)
	fn := p.readable
	p.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// finish marks end-of-stream (err == nil) or a terminal error.
func (p *plainStream) finish(err error) {
	p.mu.Lock()
	if p.eof || p.err != nil {
		p.mu.Unlock()
		return
	}
	if err != nil {
		p.err = err
	} else {
		p.eof = true
	}
	fn := p.readable
	p.mu.Unlock()
	if fn != nil {
		fn()
	}
}

func (p *plainStream) writeAsync(data []byte, done func(error)) {
	p.mu.Lock()
	if p.closed || p.eof || p.err != nil {
		p.mu.Unlock()
		done(ErrSocketClosed)
		return
	}
	send := p.send
	p.mu.Unlock()
	done(send(data))
}

func (p *plainStream) tryRead(max int) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.recv) == 0 {
		if p.err != nil {
			return nil, p.err
		}
		if p.eof || p.closed {
			return nil, io.EOF
		}
		return nil, nil
	}
	k := max
	if k > len(p.recv) {
		k = len(p.recv)
	}
	out := p.recv[:k]
	p.recv = append([]byte(nil), p.recv[k:]...)
	return out, nil
}

func (p *plainStream) setReadable(fn func()) {
	p.mu.Lock()
	p.readable = fn
	ready := len(p.recv) > 0 || p.eof || p.err != nil
	p.mu.Unlock()
	if ready && fn != nil {
		fn()
	}
}

func (p *plainStream) closeStream() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	closeFn := p.closeFn
	p.mu.Unlock()
	if closeFn != nil {
		return closeFn()
	}
	return nil
}

func (p *plainStream) buffered() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.recv)
}

// ---- mux-stream transport ----

// muxByteStream adapts one MuxStream to the byteStream interface.
type muxByteStream struct{ st *MuxStream }

func (m muxByteStream) writeAsync(p []byte, done func(error)) { m.st.Write(p, done) }
func (m muxByteStream) tryRead(max int) ([]byte, error)       { return m.st.TryRead(max) }
func (m muxByteStream) setReadable(fn func())                 { m.st.SetReadable(fn) }
func (m muxByteStream) closeStream() error                    { return m.st.Close() }
func (m muxByteStream) buffered() int                         { return m.st.Buffered() }

// Connect opens a plain socket to addr: one whole WebSocket per
// socket, the paper's path (§5.3) and the JVM's default dialer. It
// calls cb on the event loop once the connection is established or
// fails. Callers that share one connection across sockets use Stack.
func Connect(w *browser.Window, addr string, cb func(*Socket, error)) {
	ws := DialWebSocket(w, addr)
	ps := &plainStream{send: ws.Send, closeFn: ws.Close}
	delivered := false
	ws.OnOpen = func() {
		delivered = true
		cb(newSocket(w.Loop, ps), nil)
	}
	ws.OnError = func(err error) {
		if !delivered {
			delivered = true
			cb(nil, err)
			return
		}
		ps.finish(err)
	}
	ws.OnMessage = ps.deliver
	ws.OnClose = func() {
		if !delivered {
			delivered = true
			cb(nil, ErrSocketClosed)
			return
		}
		ps.finish(nil)
	}
}
