package sockets

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

// TestStackMuxEcho exercises a Stack connection's settings together —
// stream cap, a small receive window, telemetry through the window's
// hub — over one echoed stream, which must deliver every echo
// byte-exact.
func TestStackMuxEcho(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewWebsockify("127.0.0.1:0", echoAddr)
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
		conn := Stack(w, gw.Addr(), WithMux(8))
		conn.cfg.window = 2048
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
	// Both client layers reported to the window's hub.
	for _, m := range []struct{ sub, name string }{
		{"sockets", "frames_out"},
		{"sockmux", "streams"},
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

// TestDialAfterTransportLoss pins the end of a connection: when the
// gateway goes away, the open stream fails with ECONNRESET, and a
// later Dial fails the same way instead of waiting for a transport
// that will never open.
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

// TestCloseAfterTransportLoss pins Close on both clients once the
// gateway has dropped their transports: a muxed Conn and a plain
// Socket from Connect each close what is left without an error.
func TestCloseAfterTransportLoss(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	gwClosed := make(chan struct{})

	w := browser.NewWindow(browser.Chrome28)
	connErr, plainErr := errors.New("not closed"), errors.New("not closed")
	w.Loop.Post("main", func() {
		conn := Stack(w, gw.Addr(), WithMux(4))
		conn.Dial(func(ms *Socket, err error) {
			if err != nil {
				t.Errorf("mux dial: %v", err)
				conn.Close()
				close(gwClosed)
				return
			}
			Connect(w, gw.Addr(), func(ps *Socket, err error) {
				if err != nil {
					t.Errorf("plain dial: %v", err)
					conn.Close()
					close(gwClosed)
					return
				}
				// Close waits for the gateway's connection handlers, so
				// it runs off the loop.
				go func() {
					gw.Close()
					close(gwClosed)
				}()
				lost := 0
				for _, s := range []*Socket{ms, ps} {
					s.Read(64).Then(func(interface{}, error) {
						if lost++; lost < 2 {
							return
						}
						connErr, plainErr = conn.Close(), ps.Close()
					})
				}
			})
		})
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	<-gwClosed
	if connErr != nil {
		t.Errorf("Conn.Close after the transport was lost = %v, want nil", connErr)
	}
	if plainErr != nil {
		t.Errorf("plain Socket.Close after the transport was lost = %v, want nil", plainErr)
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
