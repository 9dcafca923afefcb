package sockets

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/vfs"
	"doppio/internal/vfs/faultfs"
)

// rawClient is a mux session to the gateway without the client stack:
// the test owns the transport, so it can send pings beside the mux
// frames or kill the connection the way a reset does.
type rawClient struct {
	*Mux
	conn  net.Conn
	wmu   sync.Mutex // serializes the session's writer and ping
	pongs atomic.Int64
}

// rawMuxClient opens a mux session to the gateway whose streams
// advertise the given receive window (0 means the default).
func rawMuxClient(t *testing.T, gwAddr string, window int) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	br, err := ClientHandshake(conn, gwAddr, MuxPath)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	c := &rawClient{conn: conn}
	c.Mux = NewMux(MuxConfig{
		Window: window,
		Send: func(hdr, payload []byte) error {
			c.wmu.Lock()
			defer c.wmu.Unlock()
			return WriteBinaryFrame(conn, hdr, payload)
		},
	})
	t.Cleanup(func() {
		c.CloseSession()
		conn.Close()
	})
	go func() {
		for {
			f, err := ReadFrame(br)
			if err != nil {
				c.CloseSession()
				return
			}
			switch f.Op {
			case OpBinary:
				c.HandleFrame(f.Payload)
			case OpPong:
				c.pongs.Add(1)
			}
		}
	}()
	return c
}

// ping sends one ping frame through the session writer's lock.
func (c *rawClient) ping() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return WriteFrame(c.conn, &Frame{Fin: true, Op: OpPing, Payload: []byte("beat")})
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

// startWatchedEcho runs a TCP echo server that reports on closed each
// time one of its connections ends.
func startWatchedEcho(t *testing.T) (addr string, closed <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan struct{}, 16)
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
						ch <- struct{}{}
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String(), ch
}

// waitClosed waits for n target connections to close.
func waitClosed(t *testing.T, closed <-chan struct{}, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d target connections still open", n-i, n)
		}
	}
}

// TestGatewayUntokenedSessionRetires pins the end of a gateway
// session: once its transport dies without a close frame, the session
// leaves Snapshot().Sessions, and its bridge closes the target
// connection.
func TestGatewayUntokenedSessionRetires(t *testing.T) {
	echoAddr, targetClosed := startWatchedEcho(t)
	gw, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	c := rawMuxClient(t, gw.Addr(), 0)
	openEcho(t, c.Mux)
	c.conn.Close() // no close frame: the transport just dies
	waitFor(t, "the session to retire", func() bool {
		return len(gw.Snapshot().Sessions) == 0
	})
	if snap := gw.Snapshot(); snap.MuxConns != 0 || snap.Stats.Opened+snap.Stats.Accepted == 0 {
		t.Fatalf("after retirement: mux=%d, retired stats %+v", snap.MuxConns, snap.Stats)
	}
	waitClosed(t, targetClosed, 1)
}

// TestMuxFaultEndsSession pins what a mux fault does: the gateway
// resets the connection on the first DATA frame, which ends the
// session. Every open stream fails with ECONNRESET, so does a later
// Dial, and the bridges close their target connections.
func TestMuxFaultEndsSession(t *testing.T) {
	echoAddr, targetClosed := startWatchedEcho(t)
	gw, err := NewGateway("127.0.0.1:0", echoAddr, GatewayOptions{
		Faults: faultfs.Plan{Seed: 1, ErrRate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	const nStreams = 2
	w := browser.NewWindow(browser.Chrome28)
	var readErrs []error
	var dialErr error
	answered := false
	w.Loop.Post("main", func() {
		conn := Stack(w, gw.Addr())
		var socks []*Socket
		for i := 0; i < nStreams; i++ {
			conn.Dial(func(s *Socket, err error) {
				if err != nil {
					t.Errorf("dial: %v", err)
					conn.Close()
					return
				}
				if socks = append(socks, s); len(socks) < nStreams {
					return
				}
				for _, s := range socks {
					s.Read(64).Then(func(_ interface{}, err error) {
						if readErrs = append(readErrs, err); len(readErrs) < nStreams {
							return
						}
						conn.Dial(func(_ *Socket, err error) {
							answered, dialErr = true, err
							conn.Close()
						})
					})
				}
				// The first DATA frame draws the fault.
				socks[0].Write([]byte("reset"))
			})
		}
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(readErrs) != nStreams {
		t.Fatalf("%d of %d reads settled", len(readErrs), nStreams)
	}
	for i, err := range readErrs {
		if !vfs.IsErrno(err, vfs.ECONNRESET) {
			t.Errorf("read %d after the fault = %v, want ECONNRESET", i, err)
		}
	}
	if !answered || !vfs.IsErrno(dialErr, vfs.ECONNRESET) {
		t.Errorf("Dial after the fault: answered %v, err %v; want ECONNRESET", answered, dialErr)
	}
	waitFor(t, "the session to retire", func() bool {
		return len(gw.Snapshot().Sessions) == 0
	})
	waitClosed(t, targetClosed, nStreams)
	if fs := gw.FaultStats(); fs.ErrsPre != 1 {
		t.Errorf("fault stats = %+v, want exactly 1 reset", fs)
	}
}

func TestWebsockifyShortFrameTruncates(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	proxy, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.SetFaults(faultfs.Plan{Seed: 7, ShortRate: 1})

	sent := []byte("twelve bytes")
	w := browser.NewWindow(browser.Chrome28)
	var got []byte
	w.Loop.Post("main", func() {
		ws := DialWebSocket(w, proxy.Addr())
		ws.OnOpen = func() { ws.Send(sent) }
		ws.OnMessage = func(data []byte) {
			got = data
			ws.Close()
		}
		ws.OnError = func(err error) { t.Errorf("ws error: %v", err) }
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(sent) {
		t.Fatalf("truncated echo length = %d, want in (0, %d)", len(got), len(sent))
	}
	if !bytes.HasPrefix(sent, got) {
		t.Errorf("truncated echo %q is not a prefix of %q", got, sent)
	}
	fs := proxy.FaultStats()
	if fs.Shorts < 1 {
		t.Errorf("fault stats = %+v, want ≥1 short", fs)
	}
}

func TestWebsockifyFrameDropIsSilent(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	proxy, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	// Every frame is dropped pre-commit: the message never reaches the
	// echo server and no reply ever comes back.
	proxy.SetFaults(faultfs.Plan{Seed: 3, ErrRate: 1})

	w := browser.NewWindow(browser.Chrome28)
	got := false
	w.Loop.Post("main", func() {
		ws := DialWebSocket(w, proxy.Addr())
		ws.OnOpen = func() {
			ws.Send([]byte("into the void"))
			// The drop is silent, so only a deadline ends the wait.
			w.Loop.SetTimeout(func() { ws.Close() }, 50*time.Millisecond)
		}
		ws.OnMessage = func([]byte) { got = true }
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("message delivered despite 100% drop rate")
	}
	if fs := proxy.FaultStats(); fs.ErrsPre < 1 {
		t.Errorf("fault stats = %+v, want ≥1 pre-commit drop", fs)
	}
}
