package sockets

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"doppio/internal/browser"
	"doppio/internal/telemetry"
	"doppio/internal/vfs"
	"doppio/internal/vfs/faultfs"
	"doppio/internal/vfs/retry"
)

// TestStackLayerOrder pins the builder's enforced order — telemetry
// outermost, faults directly on the transport — independent of the
// order options are passed, mirroring vfs.Stack's contract.
func TestStackLayerOrder(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	gw, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	plan := faultfs.Plan{Seed: 1, ErrRate: 0.01}
	hub := telemetry.NewHub()
	orders := [][]Option{
		{WithFaults(plan), WithTelemetry(hub)},
		{WithTelemetry(hub), WithFaults(plan)},
	}
	for i, opts := range orders {
		w := browser.NewWindow(browser.Chrome28)
		var conn *Conn
		w.Loop.Post("main", func() {
			conn = Stack(w, gw.Addr(), opts...)
			defer conn.Close()

			// Outermost must be telemetry regardless of option order.
			tel, ok := conn.Link().(*TelLink)
			if !ok {
				t.Errorf("order %d: outermost layer is %T, want *TelLink", i, conn.Link())
				return
			}
			if _, ok := tel.Unwrap().(*FaultLink); !ok {
				t.Errorf("order %d: under telemetry is %T, want *FaultLink", i, tel.Unwrap())
			}
			// Find walks the chain from the top.
			if _, ok := Find[*FaultLink](conn.Link()); !ok {
				t.Errorf("order %d: Find[*FaultLink] failed", i)
			}
			if _, ok := Find[*TelLink](conn.Link()); !ok {
				t.Errorf("order %d: Find[*TelLink] failed", i)
			}
			if _, ok := Find[*wsLink](conn.Link()); !ok {
				t.Errorf("order %d: Find[*wsLink] failed", i)
			}
		})
		if err := w.Loop.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStackHeartbeatImpliesReconnect pins the option dependency: a
// heartbeat needs somewhere to live, so WithHeartbeat pulls in the
// reconnecting transport with the default policy.
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
		if _, ok := Find[*rwsLink](conn.Link()); !ok {
			t.Errorf("WithHeartbeat did not add the reconnecting transport (got %T)", conn.Link())
		}
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStackMuxEcho exercises the full option set together: reconnect
// policy, mux, telemetry, and a fault plan whose data-frame faults
// reset the connection. The session must resume across the resets and
// deliver every echo byte-exact.
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
	var got []byte
	w.Loop.Post("main", func() {
		conn := Stack(w, gw.Addr(),
			WithReconnect(retry.Defaults()),
			WithMux(8),
			WithWindow(2048),
			WithFaults(faultfs.Plan{Seed: 3, ErrRate: 0.05, ShortRate: 0.05}),
			WithTelemetry(hub),
		)
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
	// Telemetry flowed through every layer that was asked to report,
	// and at least one injected reset was ridden out by a resume.
	for _, m := range []struct{ sub, name string }{
		{"sockstack", "frames_out"},
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
