package sockets

import (
	"bytes"
	"net"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
	"doppio/internal/vfs/faultfs"
	"doppio/internal/vfs/retry"
)

// fastPolicy keeps reconnect tests quick and deterministic.
func fastPolicy(attempts int) retry.Policy {
	return retry.Policy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Multiplier: 2}
}

func TestDialErrorRefused(t *testing.T) {
	// Grab a port nothing listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	w := browser.NewWindow(browser.Chrome28)
	var gotErr error
	w.Loop.Post("main", func() {
		ws := DialWebSocket(w, addr)
		ws.OnError = func(err error) { gotErr = err }
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if !vfs.IsErrno(gotErr, vfs.ECONNREFUSED) {
		t.Errorf("dial to closed port: err = %v, want refused DialError", gotErr)
	}
}

func TestDialErrorDroppedDuringHandshake(t *testing.T) {
	// A listener that accepts and immediately hangs up: the TCP dial
	// succeeds, so the failure must classify as dropped, not refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()

	w := browser.NewWindow(browser.Chrome28)
	var gotErr error
	w.Loop.Post("main", func() {
		ws := DialWebSocket(w, ln.Addr().String())
		ws.OnError = func(err error) { gotErr = err }
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Fatal("handshake against hang-up listener succeeded")
	}
	if vfs.IsErrno(gotErr, vfs.ECONNREFUSED) {
		t.Errorf("mid-handshake hang-up classified as refused: %v", gotErr)
	}
}

// retryCounter reads one of a Stack connection's "sockretry"
// counters from its window's hub.
func retryCounter(hub *telemetry.Hub, name string) int64 {
	return hub.Registry.Counter("sockretry", name).Value()
}

// echoOnce dials one stream over conn, writes msg, and calls done with
// the echo once all of it has arrived (or with what arrived before a
// read failed).
func echoOnce(t *testing.T, conn *Conn, msg string, done func(got []byte)) {
	t.Helper()
	conn.Dial(func(s *Socket, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			done(nil)
			return
		}
		s.Write([]byte(msg)).Then(func(_ interface{}, err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
		})
		var got []byte
		var pump func()
		pump = func() {
			s.Read(64).Then(func(v interface{}, err error) {
				data, _ := v.([]byte)
				if err != nil || data == nil {
					t.Errorf("read after %d bytes: %v", len(got), err)
					done(got)
					return
				}
				if got = append(got, data...); len(got) < len(msg) {
					pump()
					return
				}
				s.Close()
				done(got)
			})
		}
		pump()
	})
}

// TestReconnectAfterReset drives the full outage cycle: the gateway
// resets the connection after every data frame it carries (ErrPost:
// the frame is delivered, then the transport dies), so the message
// and its echo each cost the client its WebSocket. The client redials
// with backoff and resumes the session, and the echo arrives whole.
func TestReconnectAfterReset(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewGateway("127.0.0.1:0", echoAddr, GatewayOptions{
		Faults: faultfs.Plan{Seed: 1, ErrRate: 1, PostFrac: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	const msg = "echo across a reset"
	hub := telemetry.NewHub()
	w := browser.NewWindow(browser.Chrome28)
	w.EnableTelemetry(hub)
	var got []byte
	w.Loop.Post("main", func() {
		conn := Stack(w, gw.Addr(), WithReconnect(fastPolicy(6)))
		echoOnce(t, conn, msg, func(b []byte) {
			got = b
			conn.Close()
		})
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != msg {
		t.Errorf("echo after reconnect = %q, want %q", got, msg)
	}
	if fs := gw.FaultStats(); fs.ErrsPost == 0 {
		t.Errorf("fault stats = %+v, want >= 1 post-commit reset", fs)
	}
	dials, opens, reconnects := retryCounter(hub, "dials"), retryCounter(hub, "opens"), retryCounter(hub, "reconnects")
	if reconnects < 1 || dials < 2 || opens < 2 {
		t.Errorf("dials %d, opens %d, reconnects %d; want >= 1 reconnect over >= 2 dials", dials, opens, reconnects)
	}
}

func TestReconnectGiveUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens: every dial is refused

	hub := telemetry.NewHub()
	w := browser.NewWindow(browser.Chrome28)
	w.EnableTelemetry(hub)
	answered := false
	var dialErr error
	w.Loop.Post("main", func() {
		conn := Stack(w, addr, WithReconnect(fastPolicy(3)))
		conn.Dial(func(_ *Socket, err error) { answered, dialErr = true, err })
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if !answered {
		t.Fatal("dial never answered after the redial budget ran out")
	}
	if !vfs.IsErrno(dialErr, vfs.ECONNREFUSED) {
		t.Errorf("give-up error = %v, want refused DialError", dialErr)
	}
	dials, gaveUp, backoff := retryCounter(hub, "dials"), retryCounter(hub, "gave_up"), retryCounter(hub, "backoff_ns")
	if dials != 3 || gaveUp != 1 || backoff <= 0 {
		t.Errorf("dials %d, gave_up %d, backoff_ns %d; want 3 dials, 1 give-up, nonzero backoff", dials, gaveUp, backoff)
	}
}

// startDeafServer accepts WebSocket connections and then ignores every
// frame — including pings — modelling a half-dead peer that only a
// heartbeat timeout can detect.
func startDeafServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_, br, err := ServerHandshake(c)
				if err != nil {
					return
				}
				for {
					if _, err := ReadFrame(br); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// TestHeartbeatTimeoutDetectsDeadPeer runs a connection built with
// WithHeartbeat alone against a peer that never answers a ping. The
// missed pong drops the transport, and the redial that follows pins
// that a heartbeat implies WithReconnect.
func TestHeartbeatTimeoutDetectsDeadPeer(t *testing.T) {
	addr, stop := startDeafServer(t)
	defer stop()

	hub := telemetry.NewHub()
	w := browser.NewWindow(browser.Chrome28)
	w.EnableTelemetry(hub)
	w.Loop.Post("main", func() {
		conn := Stack(w, addr, WithHeartbeat(10*time.Millisecond))
		deadline := time.Now().Add(10 * time.Second)
		var poll func()
		poll = func() {
			if retryCounter(hub, "reconnects") > 0 || time.Now().After(deadline) {
				conn.Close()
				return
			}
			w.Loop.SetTimeout(poll, 5*time.Millisecond)
		}
		poll()
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	beats, timeouts, reconnects := retryCounter(hub, "heartbeats"), retryCounter(hub, "heartbeat_timeouts"), retryCounter(hub, "reconnects")
	if beats < 1 || timeouts < 1 || reconnects < 1 {
		t.Errorf("heartbeats %d, timeouts %d, reconnects %d; want each >= 1", beats, timeouts, reconnects)
	}
}

func TestHeartbeatPongKeepsConnectionAlive(t *testing.T) {
	// The gateway answers pings itself, so a heartbeating client must
	// see pongs, not timeouts.
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	hub := telemetry.NewHub()
	w := browser.NewWindow(browser.Chrome28)
	w.EnableTelemetry(hub)
	w.Loop.Post("main", func() {
		conn := Stack(w, gw.Addr(), WithReconnect(fastPolicy(2)), WithHeartbeat(10*time.Millisecond))
		conn.hbTimeout = 200 * time.Millisecond
		echoOnce(t, conn, "alive", func([]byte) {
			// Let a few heartbeat cycles run, then shut down.
			w.Loop.SetTimeout(func() { conn.Close() }, 60*time.Millisecond)
		})
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if beats := retryCounter(hub, "heartbeats"); beats < 2 {
		t.Errorf("heartbeats = %d, want >= 2", beats)
	}
	if timeouts := retryCounter(hub, "heartbeat_timeouts"); timeouts != 0 {
		t.Errorf("heartbeat timeouts = %d on a live path", timeouts)
	}
	if dials := retryCounter(hub, "dials"); dials != 1 {
		t.Errorf("dials = %d, want 1: the live connection was dropped", dials)
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
