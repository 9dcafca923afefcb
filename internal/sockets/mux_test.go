package sockets

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/vfs"
	"doppio/internal/vfs/faultfs"
	"doppio/internal/vfs/retry"
)

// streamPattern builds the deterministic byte sequence stream i sends.
func streamPattern(i, n int) []byte {
	out := make([]byte, n)
	for j := range out {
		out[j] = byte(i*31 + j*7 + 3)
	}
	return out
}

// echoOverStack dials nStreams sockets through conn (from the loop
// thread), writes each stream's pattern in chunkSize pieces, reads
// the echo back into got, and calls allDone once every stream has its
// full transcript.
func echoOverStack(t *testing.T, conn *Conn, got [][]byte, total, chunkSize int, allDone func()) {
	t.Helper()
	nStreams := len(got)
	done := 0
	finish := func() {
		done++
		if done == nStreams {
			allDone()
		}
	}
	for i := 0; i < nStreams; i++ {
		i := i
		want := streamPattern(i, total)
		conn.Dial(func(s *Socket, err error) {
			if err != nil {
				t.Errorf("stream %d: dial: %v", i, err)
				finish()
				return
			}
			for off := 0; off < total; off += chunkSize {
				end := off + chunkSize
				if end > total {
					end = total
				}
				chunk := want[off:end]
				s.Write(chunk).Then(func(_ interface{}, err error) {
					if err != nil {
						t.Errorf("stream %d: write: %v", i, err)
					}
				})
			}
			var pump func()
			pump = func() {
				s.Read(4096).Then(func(v interface{}, err error) {
					if err != nil {
						t.Errorf("stream %d: read: %v", i, err)
						finish()
						return
					}
					data, _ := v.([]byte)
					got[i] = append(got[i], data...)
					if len(got[i]) < total {
						pump()
						return
					}
					s.Close()
					finish()
				})
			}
			pump()
		})
	}
}

// TestMuxEquivalence pins the gateway redesign's core claim: N
// logical streams multiplexed over one WebSocket are byte-identical
// to N plain one-connection-per-stream sockets — including when the
// fault injector resets the connection on about one data frame in
// five (10% errno plus 10% short decisions), which the reconnecting
// stack must ride out by resuming the session.
func TestMuxEquivalence(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()

	const (
		nStreams = 6
		total    = 8 << 10
		chunk    = 512
	)

	// Reference arm: plain connections, no faults.
	plainGW, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer plainGW.Close()
	var plain [][]byte
	{
		w := browser.NewWindow(browser.Chrome28)
		conns := make([]*Conn, nStreams)
		w.Loop.Post("main", func() {
			// One plain Conn per stream (a plain Conn carries one Dial).
			results := make([][]byte, nStreams)
			finished := 0
			for i := 0; i < nStreams; i++ {
				i := i
				conns[i] = Stack(w, plainGW.Addr())
				want := streamPattern(i, total)
				conns[i].Dial(func(s *Socket, err error) {
					if err != nil {
						t.Errorf("plain %d: dial: %v", i, err)
						return
					}
					s.Write(want).Then(func(_ interface{}, err error) {
						if err != nil {
							t.Errorf("plain %d: write: %v", i, err)
						}
					})
					var pump func()
					pump = func() {
						s.Read(4096).Then(func(v interface{}, err error) {
							if err != nil {
								t.Errorf("plain %d: read: %v", i, err)
								return
							}
							data, _ := v.([]byte)
							results[i] = append(results[i], data...)
							if len(results[i]) < total {
								pump()
								return
							}
							s.Close()
							finished++
							if finished == nStreams {
								plain = results
							}
						})
					}
					pump()
				})
			}
		})
		if err := w.Loop.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if plain == nil {
		t.Fatal("plain arm did not finish")
	}

	for _, tc := range []struct {
		name string
		plan faultfs.Plan
	}{
		{"clean", faultfs.Plan{}},
		{"faults10pct", faultfs.Plan{Seed: 7, ErrRate: 0.10, PostFrac: 0.5, ShortRate: 0.10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			muxGW, err := NewGateway("127.0.0.1:0", echoAddr, GatewayOptions{
				Window: 4 << 10,
				Faults: tc.plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer muxGW.Close()

			w := browser.NewWindow(browser.Chrome28)
			got := make([][]byte, nStreams)
			finished := false
			w.Loop.Post("main", func() {
				conn := Stack(w, muxGW.Addr(),
					WithReconnect(retry.Defaults()), WithMux(0), WithWindow(4<<10))
				echoOverStack(t, conn, got, total, chunk, func() {
					finished = true
					conn.Close()
				})
			})
			if err := w.Loop.Run(); err != nil {
				t.Fatal(err)
			}
			if !finished {
				t.Fatal("mux arm did not finish")
			}
			for i := range got {
				if !bytes.Equal(got[i], plain[i]) {
					t.Fatalf("stream %d: mux transcript (%d bytes) != plain transcript (%d bytes)",
						i, len(got[i]), len(plain[i]))
				}
			}
			snap := muxGW.Snapshot()
			if tc.plan.Enabled() {
				if snap.Faults.ErrsPre+snap.Faults.ErrsPost+snap.Faults.Shorts == 0 {
					t.Error("fault plan enabled but no faults were injected")
				}
				if snap.Stats.Resumes == 0 {
					t.Error("faults injected but no session was resumed")
				}
				t.Logf("faults %+v, resumes %d", snap.Faults, snap.Stats.Resumes)
			}
		})
	}
}

// wirePair builds two directly-wired mux endpoints: every frame one
// side sends is handed to the other's HandleFrame. accept configures
// the server side's AcceptStream handler.
func wirePair(window int, accept func(st *MuxStream)) (client, server *Mux) {
	return tappedPair(window, accept, nil)
}

// tappedPair is wirePair with tap, when non-nil, seeing every frame
// header on its way (fromClient tells the direction).
func tappedPair(window int, accept func(st *MuxStream), tap func(fromClient bool, hdr []byte)) (client, server *Mux) {
	var cl, sv *Mux
	sv = NewMux(MuxConfig{
		Window:       window,
		AcceptStream: accept,
		Send: func(hdr, payload []byte) error {
			if tap != nil {
				tap(false, hdr)
			}
			cl.HandleFrame(append(append([]byte{}, hdr...), payload...))
			return nil
		},
	})
	cl = NewMux(MuxConfig{
		Window: window,
		Send: func(hdr, payload []byte) error {
			if tap != nil {
				tap(true, hdr)
			}
			sv.HandleFrame(append(append([]byte{}, hdr...), payload...))
			return nil
		},
	})
	return cl, sv
}

// TestMuxZeroWindowBackpressure pins the flow-control contract: a
// writer that exhausts the peer's receive window parks until the
// reader drains and credit flows back.
func TestMuxZeroWindowBackpressure(t *testing.T) {
	const window = 1024
	acceptCh := make(chan *MuxStream, 1)
	client, server := wirePair(window, func(st *MuxStream) {
		st.Accept()
		acceptCh <- st
	})
	defer client.CloseSession(nil)
	defer server.CloseSession(nil)

	st, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitOpen(); err != nil {
		t.Fatal(err)
	}
	peer := <-acceptCh

	// First write fills the whole window: admitted immediately.
	first := make(chan error, 1)
	st.Write(streamPattern(1, window), func(err error) { first <- err })
	select {
	case err := <-first:
		if err != nil {
			t.Fatalf("window-filling write failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("window-filling write did not complete")
	}

	// Second write has zero window left: its completion must hold.
	var fired atomic.Bool
	second := make(chan error, 1)
	st.Write([]byte("overflow"), func(err error) {
		fired.Store(true)
		second <- err
	})
	time.Sleep(50 * time.Millisecond)
	if fired.Load() {
		t.Fatal("write completed with zero window — flow control is not engaging")
	}

	// Reader drains; credit flows back; the parked write resumes.
	buf := make([]byte, window)
	n := 0
	for n < window {
		k, err := peer.ReadBlocking(buf[n:])
		if err != nil {
			t.Fatalf("peer read: %v", err)
		}
		n += k
	}
	select {
	case err := <-second:
		if err != nil {
			t.Fatalf("resumed write failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write did not resume after credit returned")
	}
	if client.Stats().Credits+server.Stats().Credits == 0 {
		t.Error("no CREDIT frames recorded")
	}
}

// TestMuxPauseCreditSheds pins the gateway's backpressure lever:
// PauseCredit withholds grants (so a remote writer stalls) and
// ResumeCredit releases the accumulated credit in one batch.
func TestMuxPauseCreditSheds(t *testing.T) {
	const window = 1024
	acceptCh := make(chan *MuxStream, 1)
	client, server := wirePair(window, func(st *MuxStream) {
		st.Accept()
		acceptCh <- st
	})
	defer client.CloseSession(nil)
	defer server.CloseSession(nil)

	st, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitOpen(); err != nil {
		t.Fatal(err)
	}
	peer := <-acceptCh
	peer.PauseCredit()

	if err := st.WriteBlocking(streamPattern(2, window)); err != nil {
		t.Fatal(err)
	}
	// Drain while paused: no credit may flow.
	buf := make([]byte, window)
	n := 0
	for n < window {
		k, err := peer.ReadBlocking(buf[n:])
		if err != nil {
			t.Fatalf("peer read: %v", err)
		}
		n += k
	}
	var blocked atomic.Bool
	done := make(chan error, 1)
	st.Write([]byte("stalled"), func(err error) {
		blocked.Store(true)
		done <- err
	})
	time.Sleep(50 * time.Millisecond)
	if blocked.Load() {
		t.Fatal("write completed while credit was paused")
	}

	peer.ResumeCredit()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after resume failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write did not resume after ResumeCredit")
	}
}

// TestMuxShedStream pins load shedding end to end: a gateway whose
// depth probe reports overload refuses new streams with EAGAIN, which
// classifies transient (back off and redial).
func TestMuxShedStream(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	depth := atomic.Int64{}
	gw, err := NewGateway("127.0.0.1:0", echoAddr, GatewayOptions{
		ShedDepth:  4,
		QueueDepth: func() int { return int(depth.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	depth.Store(100) // hopelessly behind from the start

	// Give the overload sweep a tick to notice.
	time.Sleep(30 * time.Millisecond)

	w := browser.NewWindow(browser.Chrome28)
	var dialErr error
	w.Loop.Post("main", func() {
		conn := Stack(w, gw.Addr(), WithMux(0))
		conn.Dial(func(s *Socket, err error) {
			dialErr = err
			if s != nil {
				s.Close()
			}
			conn.Close()
		})
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if dialErr == nil {
		t.Fatal("dial succeeded through an overloaded gateway")
	}
	if !IsShed(dialErr) {
		t.Fatalf("dial error = %v, want a shed (EAGAIN) StreamError", dialErr)
	}
	errno, ok := vfs.Classify(dialErr)
	if !ok || errno != vfs.EAGAIN || !errno.Transient() {
		t.Fatalf("Classify(%v) = %v, %v; want transient EAGAIN", dialErr, errno, ok)
	}
	if gw.Snapshot().Stats.Shed == 0 {
		t.Error("gateway shed counter is zero")
	}
}

// TestMuxErrorClassification pins satellite 3: gateway failures
// classify through vfs.Classify exactly like VFS errors.
func TestMuxErrorClassification(t *testing.T) {
	cases := []struct {
		err       error
		errno     vfs.Errno
		transient bool
	}{
		{&StreamError{StreamID: 1, Code: vfs.EAGAIN}, vfs.EAGAIN, true},
		{&StreamError{StreamID: 2, Code: vfs.ECONNRESET}, vfs.ECONNRESET, true},
		{&StreamError{StreamID: 3, Code: vfs.ECONNREFUSED}, vfs.ECONNREFUSED, false},
		{&StreamError{StreamID: 4, Code: vfs.EPROTO}, vfs.EPROTO, false},
		{&DialError{Addr: "x:1", Refused: true, Err: io.EOF}, vfs.ECONNREFUSED, false},
		{&DialError{Addr: "x:1", Refused: false, Err: io.EOF}, vfs.ECONNRESET, true},
	}
	for _, tc := range cases {
		errno, ok := vfs.Classify(tc.err)
		if !ok {
			t.Errorf("Classify(%v): not classified", tc.err)
			continue
		}
		if errno != tc.errno {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, errno, tc.errno)
		}
		if errno.Transient() != tc.transient {
			t.Errorf("%v: Transient() = %v, want %v", tc.err, errno.Transient(), tc.transient)
		}
	}
	// The RST code mapping round-trips.
	for _, e := range []vfs.Errno{vfs.EAGAIN, vfs.ECONNREFUSED, vfs.ECONNRESET, vfs.EPROTO} {
		if got := rstErrno(rstCode(e)); got != e {
			t.Errorf("rstErrno(rstCode(%v)) = %v", e, got)
		}
	}
}

// TestMuxRefusedTarget pins the ECONNREFUSED path: a gateway whose
// target is not listening refuses each stream with a final errno.
func TestMuxRefusedTarget(t *testing.T) {
	// A listener we immediately close gives us an address with
	// nothing behind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	gw, err := NewWebsockify("127.0.0.1:0", deadAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	w := browser.NewWindow(browser.Chrome28)
	var dialErr error
	w.Loop.Post("main", func() {
		conn := Stack(w, gw.Addr(), WithMux(0))
		conn.Dial(func(s *Socket, err error) {
			dialErr = err
			conn.Close()
		})
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	var se *StreamError
	if !errors.As(dialErr, &se) || se.Code != vfs.ECONNREFUSED {
		t.Fatalf("dial error = %v, want StreamError(ECONNREFUSED)", dialErr)
	}
}

// TestMuxHeartbeatConcurrentWriters pins write serialization on both
// ends of a mux session: heartbeat pings fire on the event loop while
// the mux session's writer goroutine sends data frames on the same
// WebSocket, and the gateway's reader answers those pings while its
// session writer streams data back. Before the conn writers were
// serialized, a ping or pong could land mid-data-frame (net.Conn.Write
// splits frames across syscalls under backpressure) and desync the WS
// framing layer; the client's transport handle was also read off-loop
// without synchronization, which -race trips on here.
func TestMuxHeartbeatConcurrentWriters(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	const (
		nStreams = 4
		total    = 16 << 10
		chunk    = 512
	)
	w := browser.NewWindow(browser.Chrome28)
	var rws *ReconnectingWS
	w.Loop.Post("main", func() {
		rws = NewReconnectingWS(w, gw.Addr(), ReconnectOptions{
			HeartbeatInterval: time.Millisecond,
			HeartbeatTimeout:  10 * time.Second, // never declare the conn dead mid-test
			Path:              MuxPath,
		})
		var m *Mux
		rws.OnMessage = func(data []byte) {
			if m != nil {
				m.HandleFrame(data)
			}
		}
		rws.OnOpen = func(bool) {
			// The small window keeps credit and data frames flowing for
			// the whole transfer, maximizing overlap with the pings.
			m = NewMux(MuxConfig{
				Window: 1 << 10,
				Send:   func(hdr, payload []byte) error { return rws.SendParts(hdr, payload) },
			})
			go func() {
				var wg sync.WaitGroup
				for i := 0; i < nStreams; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						st, err := m.Open()
						if err != nil {
							t.Errorf("stream %d: open: %v", i, err)
							return
						}
						if err := st.WaitOpen(); err != nil {
							t.Errorf("stream %d: wait open: %v", i, err)
							return
						}
						want := streamPattern(i, total)
						go func() {
							// A write error means the stream died; the
							// reader below sees the same error and reports.
							for off := 0; off < total; off += chunk {
								end := off + chunk
								if end > total {
									end = total
								}
								if st.WriteBlocking(want[off:end]) != nil {
									return
								}
							}
						}()
						got := make([]byte, 0, total)
						buf := make([]byte, 4096)
						for len(got) < total {
							n, err := st.ReadBlocking(buf)
							if err != nil {
								t.Errorf("stream %d: read after %d bytes: %v", i, len(got), err)
								return
							}
							got = append(got, buf[:n]...)
						}
						if !bytes.Equal(got, want) {
							t.Errorf("stream %d: transcript corrupted", i)
						}
					}(i)
				}
				wg.Wait()
				w.Loop.InvokeExternal("test-shutdown", func() {
					m.CloseSession(nil)
					rws.Close()
				})
			}()
		}
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	stats := rws.Stats()
	if stats.Heartbeats == 0 {
		t.Error("no heartbeats fired during the transfer — ping and mux writes never overlapped")
	}
	if stats.HeartbeatTimeouts != 0 {
		t.Errorf("%d heartbeat timeouts — pongs were lost or corrupted", stats.HeartbeatTimeouts)
	}
}

// TestMuxSynCollision pins the symmetric-API id-space guards: Open
// skips ids held by peer-opened streams, and a peer SYN colliding with
// a locally opened stream is rejected with RST(EPROTO) instead of
// being silently ignored.
func TestMuxSynCollision(t *testing.T) {
	acceptCh := make(chan *MuxStream, 4)
	var cl, sv *Mux
	sv = NewMux(MuxConfig{
		Window: 4 << 10,
		AcceptStream: func(st *MuxStream) {
			st.Accept()
			acceptCh <- st
		},
		Send: func(hdr, payload []byte) error {
			cl.HandleFrame(append(append([]byte{}, hdr...), payload...))
			return nil
		},
	})
	cl = NewMux(MuxConfig{
		Window: 4 << 10,
		AcceptStream: func(st *MuxStream) {
			st.Accept()
			acceptCh <- st
		},
		Send: func(hdr, payload []byte) error {
			sv.HandleFrame(append(append([]byte{}, hdr...), payload...))
			return nil
		},
	})
	defer cl.CloseSession(nil)
	defer sv.CloseSession(nil)

	// Client opens stream 1; once WaitOpen returns, the server has a
	// peer-opened stream 1 in its map.
	stC, err := cl.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := stC.WaitOpen(); err != nil {
		t.Fatal(err)
	}
	svRemote := <-acceptCh

	// The server now opens its own stream: it must skip id 1.
	stS, err := sv.Open()
	if err != nil {
		t.Fatal(err)
	}
	if stS.ID() == stC.ID() {
		t.Fatalf("server Open allocated id %d, colliding with the peer-opened stream", stS.ID())
	}
	if err := stS.WaitOpen(); err != nil {
		t.Fatal(err)
	}
	<-acceptCh

	before := cl.StreamCount()
	// A buggy peer SYN colliding with the client's locally opened
	// stream 1 — injected directly, as if both sides allocated id 1.
	cl.HandleFrame(muxHeader(stC.ID(), muxSyn, 1024, 0))
	if got := cl.StreamCount(); got != before {
		t.Errorf("colliding SYN changed the stream map: %d -> %d streams", before, got)
	}
	// The RST(EPROTO) reply kills the sender's stream with a protocol
	// error, not a silent desync.
	buf := make([]byte, 8)
	if _, err := svRemote.ReadBlocking(buf); !vfs.IsErrno(err, vfs.EPROTO) {
		t.Fatalf("peer stream error after colliding SYN = %v, want EPROTO", err)
	}
}

// TestGatewayCloseWaitsForConnections pins the teardown contract:
// Close tears down live connections (not just the listener) and waits
// for every per-connection handler to exit, so no serve goroutine is
// still mutating gateway state after it returns.
func TestGatewayCloseWaitsForConnections(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}

	// A raw mux client that completes the handshake and then idles —
	// its handler is parked in ReadFrame when Close runs.
	conn, err := net.Dial("tcp", gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := ClientHandshake(conn, gw.Addr(), MuxPath); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for gw.Snapshot().MuxConns == 0 {
		if time.Now().After(deadline) {
			t.Fatal("gateway never registered the mux connection")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() { done <- gw.Close() }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung with an idle live connection")
	}
	// Close waited for the handler, so its teardown bookkeeping is
	// complete — not merely in flight.
	if n := gw.Snapshot().MuxConns; n != 0 {
		t.Errorf("MuxConns = %d after Close returned, want 0", n)
	}
}

// TestGatewaySelfDepthNoDeadlock pins the standalone wiring from
// cmd/websockify: the gateway's own LiveStreams as its QueueDepth
// signal. LiveStreams takes the gateway mutex, so the overload ticker
// must sample the callback outside the lock — a regression here wedges
// Snapshot, Close, and /debug/sock on the first 5ms tick.
func TestGatewaySelfDepthNoDeadlock(t *testing.T) {
	var self atomic.Pointer[Websockify]
	gw, err := NewGateway("127.0.0.1:0", "127.0.0.1:1", GatewayOptions{
		ShedDepth: 4,
		QueueDepth: func() int {
			if p := self.Load(); p != nil {
				return p.LiveStreams()
			}
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	self.Store(gw)
	defer gw.Close()

	time.Sleep(20 * time.Millisecond) // let the overload ticker fire
	done := make(chan GatewaySnapshot, 1)
	go func() { done <- gw.Snapshot() }()
	select {
	case snap := <-done:
		if snap.Paused {
			t.Fatalf("idle gateway reports paused: %+v", snap)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Snapshot deadlocked against the overload ticker")
	}
}

// TestMuxFrameCount pins the ACK-free data path: a clean echo of N
// small messages puts exactly N DATA frames on each direction, at most
// ⌈bytes/(window/4)⌉ CREDIT frames, and otherwise only the open and
// end-of-stream handshakes — no per-DATA reply frames.
func TestMuxFrameCount(t *testing.T) {
	const (
		window = 4 << 10
		n      = 64
		size   = 64
	)
	var mu sync.Mutex
	counts := map[bool]map[byte]int{true: {}, false: {}}
	acceptCh := make(chan *MuxStream, 1)
	client, server := tappedPair(window, func(st *MuxStream) {
		st.Accept()
		acceptCh <- st
	}, func(fromClient bool, hdr []byte) {
		mu.Lock()
		counts[fromClient][hdr[4]]++
		mu.Unlock()
	})
	defer client.CloseSession(nil)
	defer server.CloseSession(nil)

	st, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitOpen(); err != nil {
		t.Fatal(err)
	}
	peer := <-acceptCh
	echoed := make(chan error, 1)
	go func() {
		buf := make([]byte, 4096)
		for {
			k, err := peer.ReadBlocking(buf)
			if err == io.EOF {
				echoed <- peer.Close()
				return
			}
			if err != nil {
				echoed <- err
				return
			}
			if err := peer.WriteBlocking(buf[:k]); err != nil {
				echoed <- err
				return
			}
		}
	}()
	buf := make([]byte, size)
	for i := 0; i < n; i++ {
		msg := streamPattern(i, size)
		if err := st.WriteBlocking(msg); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < size; {
			k, err := st.ReadBlocking(buf[off:])
			if err != nil {
				t.Fatalf("message %d: %v", i, err)
			}
			off += k
		}
		if !bytes.Equal(buf, msg) {
			t.Fatalf("message %d corrupted", i)
		}
	}
	st.Close()
	if err := <-echoed; err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadBlocking(buf); err != io.EOF {
		t.Fatalf("client read after peer close = %v, want EOF", err)
	}
	waitFor(t, "both session maps empty", func() bool {
		return client.StreamCount() == 0 && server.StreamCount() == 0
	})

	mu.Lock()
	defer mu.Unlock()
	maxCredits := (n*size + window/4 - 1) / (window / 4)
	for _, dir := range []struct {
		name       string
		fromClient bool
		open       byte
	}{{"client->server", true, muxSyn}, {"server->client", false, muxSynAck}} {
		c := counts[dir.fromClient]
		if c[muxData] != n {
			t.Errorf("%s: %d DATA frames, want %d", dir.name, c[muxData], n)
		}
		if c[muxCredit] > maxCredits {
			t.Errorf("%s: %d CREDIT frames, want at most %d", dir.name, c[muxCredit], maxCredits)
		}
		if c[dir.open] != 1 || c[muxFin] != 1 || c[muxAck] != 1 {
			t.Errorf("%s: open/FIN/ACK frames = %d/%d/%d, want 1 each",
				dir.name, c[dir.open], c[muxFin], c[muxAck])
		}
		total := 0
		for _, k := range c {
			total += k
		}
		if extra := total - c[muxData] - c[muxCredit] - c[dir.open] - c[muxFin] - c[muxAck]; extra != 0 {
			t.Errorf("%s: %d unexpected frames: %v", dir.name, extra, c)
		}
	}
}

// TestMuxReapWithoutDrain pins stream cleanup: once both sides have
// closed, a stream leaves both session maps even if its reader never
// drained what arrived, and the bytes stay readable from the stream.
func TestMuxReapWithoutDrain(t *testing.T) {
	acceptCh := make(chan *MuxStream, 1)
	client, server := wirePair(4<<10, func(st *MuxStream) {
		st.Accept()
		acceptCh <- st
	})
	defer client.CloseSession(nil)
	defer server.CloseSession(nil)

	st, err := client.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitOpen(); err != nil {
		t.Fatal(err)
	}
	peer := <-acceptCh
	msg := streamPattern(5, 100)
	if err := st.WriteBlocking(msg); err != nil {
		t.Fatal(err)
	}
	st.Close()
	peer.Close() // the server never reads
	waitFor(t, "both session maps empty", func() bool {
		return client.StreamCount() == 0 && server.StreamCount() == 0
	})
	got, err := peer.TryRead(len(msg))
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("undrained bytes after reap = %q, %v", got, err)
	}
	if _, err := peer.TryRead(1); err != io.EOF {
		t.Fatalf("read past the undrained bytes = %v, want EOF", err)
	}
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
