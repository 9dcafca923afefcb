package sockets

import (
	"net"
	"testing"

	"doppio/internal/browser"
	"doppio/internal/vfs"
)

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

// TestReconnectGiveUp pins a Stack whose one dial is refused: it does
// not retry, and a Dial queued for the transport fails with the
// refusal.
func TestReconnectGiveUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens: the dial is refused

	w := browser.NewWindow(browser.Chrome28)
	answered := false
	var dialErr error
	w.Loop.Post("main", func() {
		conn := Stack(w, addr)
		conn.Dial(func(_ *Socket, err error) { answered, dialErr = true, err })
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if !answered {
		t.Fatal("queued dial never answered after the refused dial")
	}
	if !vfs.IsErrno(dialErr, vfs.ECONNREFUSED) {
		t.Errorf("queued dial error = %v, want refused DialError", dialErr)
	}
}

// startDeafServer accepts WebSocket connections and then ignores every
// frame the client sends.
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
