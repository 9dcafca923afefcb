package sockets

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"doppio/internal/vfs"
)

// rawMuxClient opens a mux session to the gateway on path without the
// client stack, so a test can kill its transport the way a reset does.
func rawMuxClient(t *testing.T, gwAddr, path string) (*Mux, net.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	br, err := ClientHandshake(conn, gwAddr, path)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	m := NewMux(MuxConfig{
		Send: func(hdr, payload []byte) error { return WriteBinaryFrame(conn, hdr, payload) },
	})
	go func() {
		for {
			f, err := ReadFrame(br)
			if err != nil {
				m.CloseSession(err)
				return
			}
			if f.Op == OpBinary {
				m.HandleFrame(f.Payload)
			}
		}
	}()
	return m, conn
}

// openEcho opens one stream and completes one round trip through the
// echo target, so the gateway has a live bridged stream.
func openEcho(t *testing.T, m *Mux) {
	t.Helper()
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
	buf := make([]byte, 4)
	for off := 0; off < len(buf); {
		n, err := st.ReadBlocking(buf[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
	}
}

// TestGatewayUntokenedSessionRetires pins which sessions the gateway
// parks: one without a session token leaves Snapshot().Sessions as
// soon as its transport dies, while a token holder's session is parked
// for its client to redial.
func TestGatewayUntokenedSessionRetires(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	m, conn := rawMuxClient(t, gw.Addr(), MuxPath)
	openEcho(t, m)
	conn.Close() // no close frame: the transport just dies
	start := time.Now()
	waitFor(t, "the untokened session to retire", func() bool {
		return len(gw.Snapshot().Sessions) == 0
	})
	if d := time.Since(start); d >= ParkGrace {
		t.Fatalf("untokened session lingered %v, as if parked", d)
	}
	if snap := gw.Snapshot(); snap.Parked != 0 || snap.MuxConns != 0 {
		t.Fatalf("after retirement: parked=%d mux=%d", snap.Parked, snap.MuxConns)
	}

	m, conn = rawMuxClient(t, gw.Addr(), MuxPath+"?session=parkme")
	openEcho(t, m)
	conn.Close()
	waitFor(t, "the tokened session to park", func() bool {
		return gw.Snapshot().Parked == 1
	})
	snap := gw.Snapshot()
	if len(snap.Sessions) != 1 || !snap.Sessions[0].Parked || len(snap.Sessions[0].Streams) != 1 {
		t.Fatalf("parked session snapshot = %+v", snap.Sessions)
	}
}

// TestGatewayParkExpiryClosesTargets pins the end of a parked session:
// once its grace period runs out, its streams fail and the bridges
// close their target connections.
func TestGatewayParkExpiryClosesTargets(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	targetClosed := make(chan struct{}, 1)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 512)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						c.Write(buf[:n])
					}
					if err != nil {
						targetClosed <- struct{}{}
						return
					}
				}
			}(c)
		}
	}()
	gw, err := NewWebsockify("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gw.mu.Lock()
	gw.grace = 50 * time.Millisecond
	gw.mu.Unlock()

	m, conn := rawMuxClient(t, gw.Addr(), MuxPath+"?session=expire")
	openEcho(t, m)
	conn.Close()
	select {
	case <-targetClosed:
	case <-time.After(5 * time.Second):
		t.Fatal("target connection still open after the grace period")
	}
	waitFor(t, "the expired session to retire", func() bool {
		snap := gw.Snapshot()
		return len(snap.Sessions) == 0 && snap.Parked == 0
	})
	if gw.Snapshot().Stats.Opened+gw.Snapshot().Stats.Accepted == 0 {
		t.Error("retired session's counters were not kept")
	}
}

// testLink carries frames between two wired endpoints like one
// transport connection: once cut, every frame sent on it is lost; a
// held link queues frames until release, so both ends can Resume
// before either hears the other.
type testLink struct {
	mu      sync.Mutex
	cut     bool
	held    bool
	pending []func()
}

var errLinkCut = errors.New("test link cut")

func (l *testLink) sender(to *Mux) func(hdr, payload []byte) error {
	return func(hdr, payload []byte) error {
		frame := append(append([]byte{}, hdr...), payload...)
		l.mu.Lock()
		if l.cut {
			l.mu.Unlock()
			return errLinkCut
		}
		if l.held {
			l.pending = append(l.pending, func() { to.HandleFrame(frame) })
			l.mu.Unlock()
			return nil
		}
		l.mu.Unlock()
		to.HandleFrame(frame)
		return nil
	}
}

func (l *testLink) release() {
	for {
		l.mu.Lock()
		if len(l.pending) == 0 {
			l.held = false
			l.mu.Unlock()
			return
		}
		p := l.pending
		l.pending = nil
		l.mu.Unlock()
		for _, f := range p {
			f()
		}
	}
}

// nextAccept returns the next stream the server side accepted.
func nextAccept(t *testing.T, ch <-chan *MuxStream) *MuxStream {
	t.Helper()
	select {
	case st := <-ch:
		return st
	case <-time.After(10 * time.Second):
		t.Fatal("no SYN reached the server")
		return nil
	}
}

// TestMuxResumeReconcilesLostFrames loses one frame of each control
// kind with a dead link — a SYN, a SYN-ACK, a FIN, a CREDIT and an RST
// — plus data that never left, then resumes both ends on a new link:
// each stream must end up exactly where a lossless link would have
// left it.
func TestMuxResumeReconcilesLostFrames(t *testing.T) {
	const window = 1024
	acceptCh := make(chan *MuxStream, 8)
	link := &testLink{}
	var client, server *Mux
	server = NewMux(MuxConfig{
		Window:       window,
		AcceptStream: func(st *MuxStream) { acceptCh <- st },
		Send:         func(hdr, payload []byte) error { return link.sender(client)(hdr, payload) },
	})
	client = NewMux(MuxConfig{
		Window: window,
		Send:   func(hdr, payload []byte) error { return link.sender(server)(hdr, payload) },
	})
	defer client.CloseSession(nil)
	defer server.CloseSession(nil)
	// A reconciliation bug leaves a stream waiting forever; ending
	// both sessions turns that into a failed call.
	defer time.AfterFunc(10*time.Second, func() {
		client.CloseSession(nil)
		server.CloseSession(nil)
	}).Stop()
	open := func() (*MuxStream, *MuxStream) {
		st, err := client.Open()
		if err != nil {
			t.Fatal(err)
		}
		return st, nextAccept(t, acceptCh)
	}

	x, sx := open() // carries data, then a lost CREDIT and a lost FIN
	sx.Accept()
	w, sw := open() // reset by the server; the RST is lost
	sw.Accept()
	z, sz := open() // accepted while the link is dead; the SYN-ACK is lost
	for _, st := range []*MuxStream{x, w} {
		if err := st.WaitOpen(); err != nil {
			t.Fatal(err)
		}
	}
	first := streamPattern(1, window)
	if err := x.WriteBlocking(first); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first window to arrive", func() bool { return sx.Buffered() == window })

	link.mu.Lock()
	link.cut = true
	link.mu.Unlock()
	got := make([]byte, 0, 2*window)
	buf := make([]byte, window)
	for len(got) < window {
		n, err := sx.ReadBlocking(buf) // grants credit: lost
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	sz.Accept()              // SYN-ACK lost
	sw.Reset(vfs.ECONNRESET) // RST lost
	second := streamPattern(2, window/2)
	written := make(chan error, 1)
	x.Write(second, func(err error) { written <- err }) // needs the lost credit
	x.Close()                                           // FIN lost
	y, err := client.Open()                             // SYN lost
	if err != nil {
		t.Fatal(err)
	}

	client.Park()
	server.Park()
	link = &testLink{held: true}
	client.Resume(link.sender(server))
	server.Resume(link.sender(client))
	link.release()

	if err := z.WaitOpen(); err != nil {
		t.Fatalf("stream whose SYN-ACK was lost: %v", err)
	}
	sy := nextAccept(t, acceptCh)
	if sy.ID() != y.ID() {
		t.Fatalf("re-sent SYN opened stream %d, want %d", sy.ID(), y.ID())
	}
	sy.Accept()
	if err := y.WaitOpen(); err != nil {
		t.Fatalf("stream whose SYN was lost: %v", err)
	}
	if _, err := w.ReadBlocking(buf); !vfs.IsErrno(err, vfs.ECONNRESET) {
		t.Fatalf("stream whose RST was lost: read = %v, want ECONNRESET", err)
	}
	if err := <-written; err != nil {
		t.Fatalf("write waiting on the lost credit: %v", err)
	}
	for {
		n, err := sx.ReadBlocking(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream whose FIN was lost: %v", err)
		}
		got = append(got, buf[:n]...)
	}
	if want := append(append([]byte{}, first...), second...); !bytes.Equal(got, want) {
		t.Fatalf("transcript across the resume: %d bytes, want %d byte-exact", len(got), len(want))
	}
	if c, s := client.Stats().Resumes, server.Stats().Resumes; c != 1 || s != 1 {
		t.Fatalf("resumes = %d/%d, want 1/1", c, s)
	}

	for _, st := range []*MuxStream{sx, y, sy, z, sz} {
		st.Close()
	}
	waitFor(t, "both session maps empty", func() bool {
		return client.StreamCount() == 0 && server.StreamCount() == 0
	})
}

// TestMuxResumeUnknownSession pins the fallback when the peer no
// longer has the session: it answers RESUME with RST on stream 0, and
// the resumer fails its streams with ECONNRESET and carries on empty.
func TestMuxResumeUnknownSession(t *testing.T) {
	link := &testLink{}
	acceptCh := make(chan *MuxStream, 2)
	var client, server *Mux
	server = NewMux(MuxConfig{
		AcceptStream: func(st *MuxStream) { st.Accept(); acceptCh <- st },
		Send:         func(hdr, payload []byte) error { return link.sender(client)(hdr, payload) },
	})
	client = NewMux(MuxConfig{
		Send: func(hdr, payload []byte) error { return link.sender(server)(hdr, payload) },
	})
	defer client.CloseSession(nil)
	defer server.CloseSession(nil)
	defer time.AfterFunc(10*time.Second, func() { client.CloseSession(nil) }).Stop()
	st, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitOpen(); err != nil {
		t.Fatal(err)
	}
	nextAccept(t, acceptCh)

	// The server side is replaced by a fresh session, as after a
	// gateway restart or an expired grace period.
	client.Park()
	server.CloseSession(nil)
	server = NewMux(MuxConfig{
		AcceptStream: func(st *MuxStream) { st.Accept(); acceptCh <- st },
		Send:         func(hdr, payload []byte) error { return link.sender(client)(hdr, payload) },
	})
	defer server.CloseSession(nil)
	client.Resume(link.sender(server))

	if _, err := st.ReadBlocking(make([]byte, 1)); !vfs.IsErrno(err, vfs.ECONNRESET) {
		t.Fatalf("stream of the lost session: read = %v, want ECONNRESET", err)
	}
	again, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := again.WaitOpen(); err != nil {
		t.Fatalf("new stream on the carried-on session: %v", err)
	}
	if client.Stats().Resumes != 0 {
		t.Error("a refused resume was counted as a resume")
	}
}
