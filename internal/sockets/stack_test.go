package sockets

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
	"doppio/internal/vfs/faultfs"
	"doppio/internal/vfs/retry"
)

// TestStackHeartbeatImpliesReconnect pins the option dependency: a
// heartbeat can only act on a missed pong by redialing, so
// WithHeartbeat alone gives the connection the default redial policy
// and a session token that lets the redial resume its session.
func TestStackHeartbeatImpliesReconnect(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	w := browser.NewWindow(browser.Chrome28)
	w.Loop.Post("main", func() {
		conn := Stack(w, gw.Addr(), WithHeartbeat(time.Minute))
		defer conn.Close()
		if conn.cfg.reconnect == nil || *conn.cfg.reconnect != retry.Defaults() {
			t.Errorf("WithHeartbeat redial policy = %v, want retry.Defaults()", conn.cfg.reconnect)
		}
		if !strings.HasPrefix(conn.path, MuxPath+"?session=") {
			t.Errorf("WithHeartbeat dial path = %q, want a session token on %s", conn.path, MuxPath)
		}
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStackMuxEcho exercises the options together — reconnect policy,
// stream cap and window, telemetry through the window's hub — against
// a gateway whose data-frame faults reset the connection. The session
// must resume across the resets and deliver every echo byte-exact.
func TestStackMuxEcho(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewGateway("127.0.0.1:0", echoAddr, GatewayOptions{
		Faults: faultfs.Plan{Seed: 3, ErrRate: 0.05, ShortRate: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	const rounds = 32
	var want []byte
	for i := 0; i < rounds; i++ {
		want = append(want, fmt.Sprintf("stacked echo %02d;", i)...)
	}
	hub := telemetry.NewHub()
	w := browser.NewWindow(browser.Chrome28)
	w.EnableTelemetry(hub)
	var got []byte
	w.Loop.Post("main", func() {
		conn := Stack(w, gw.Addr(), WithReconnect(retry.Defaults()), WithMux(8), WithWindow(2048))
		conn.Dial(func(s *Socket, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				conn.Close()
				return
			}
			// One message outstanding at a time, each echoed whole
			// before the next is sent.
			var round func(i int)
			round = func(i int) {
				if i == rounds {
					s.Close()
					conn.Close()
					return
				}
				msg := []byte(fmt.Sprintf("stacked echo %02d;", i))
				s.Write(msg).Then(func(_ interface{}, err error) {
					if err != nil {
						t.Errorf("write %d: %v", i, err)
					}
				})
				n := 0
				var pump func()
				pump = func() {
					s.Read(64).Then(func(v interface{}, err error) {
						if err != nil {
							t.Errorf("read %d: %v", i, err)
							conn.Close()
							return
						}
						data, _ := v.([]byte)
						got = append(got, data...)
						if n += len(data); n < len(msg) {
							pump()
							return
						}
						round(i + 1)
					})
				}
				pump()
			}
			round(0)
		})
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("echo transcript = %q\nwant %q", got, want)
	}
	// Every client layer reported to the window's hub, and at least
	// one injected reset was ridden out by a resume.
	for _, m := range []struct{ sub, name string }{
		{"sockets", "frames_out"},
		{"sockmux", "streams"},
		{"sockmux", "resumes"},
		{"sockretry", "reconnects"},
	} {
		if hub.Registry.Counter(m.sub, m.name).Value() == 0 {
			t.Errorf("%s/%s is zero", m.sub, m.name)
		}
	}
}

// TestStackMuxStreamCap pins WithMux(n): a Dial past n live streams
// fails locally with a shed StreamError (EAGAIN, transient) instead of
// opening stream n+1.
func TestStackMuxStreamCap(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	const n = 2
	w := browser.NewWindow(browser.Chrome28)
	var opened, shed int
	var other error
	w.Loop.Post("main", func() {
		conn := Stack(w, gw.Addr(), WithMux(n))
		dials := 0
		for i := 0; i < n+1; i++ {
			conn.Dial(func(s *Socket, err error) {
				switch {
				case err == nil:
					opened++
				case IsShed(err):
					shed++
					if errno, ok := vfs.Classify(err); !ok || !errno.Transient() {
						other = err
					}
				default:
					other = err
				}
				if dials++; dials == n+1 {
					conn.Close()
				}
			})
		}
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if opened != n || shed != 1 || other != nil {
		t.Fatalf("dials: %d opened, %d shed, other error %v; want %d opened, 1 shed", opened, shed, other, n)
	}
}

// TestDialAfterTransportLoss pins the end of a connection that cannot
// redial: when the gateway goes away, the open stream fails with
// ECONNRESET, and a later Dial fails the same way instead of waiting
// for a transport that will never open.
func TestDialAfterTransportLoss(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	gwClosed := make(chan struct{})

	w := browser.NewWindow(browser.Chrome28)
	var readErr, dialErr error
	answered := false
	w.Loop.Post("main", func() {
		conn := Stack(w, gw.Addr(), WithMux(4))
		conn.Dial(func(s *Socket, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				conn.Close()
				close(gwClosed)
				return
			}
			// Close waits for the gateway's connection handlers, so it
			// runs off the loop.
			go func() {
				gw.Close()
				close(gwClosed)
			}()
			s.Read(64).Then(func(_ interface{}, err error) {
				readErr = err
				w.Loop.SetTimeout(func() {
					conn.Dial(func(_ *Socket, err error) {
						answered, dialErr = true, err
						conn.Close()
					})
				}, 20*time.Millisecond)
			})
		})
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	<-gwClosed
	if !vfs.IsErrno(readErr, vfs.ECONNRESET) {
		t.Errorf("read on the lost connection = %v, want ECONNRESET", readErr)
	}
	if !answered {
		t.Fatal("Dial after the transport was lost never called back")
	}
	if !vfs.IsErrno(dialErr, vfs.ECONNRESET) {
		t.Errorf("Dial after the transport was lost = %v, want ECONNRESET", dialErr)
	}
}

// TestCloseAnswersWaitingDials pins Close on a connection whose
// transport has not opened: a Dial waiting for it fails with
// ErrSocketClosed instead of never being answered.
func TestCloseAnswersWaitingDials(t *testing.T) {
	addr, stop := startDeafServer(t)
	defer stop()

	w := browser.NewWindow(browser.Chrome28)
	answered := false
	var dialErr error
	w.Loop.Post("main", func() {
		conn := Stack(w, addr)
		conn.Dial(func(_ *Socket, err error) { answered, dialErr = true, err })
		conn.Close()
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if !answered || !errors.Is(dialErr, ErrSocketClosed) {
		t.Fatalf("waiting Dial after Close: answered %v, err %v; want ErrSocketClosed", answered, dialErr)
	}
}
