package sockets

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"doppio/internal/browser"
)

func TestFrameRoundTrip(t *testing.T) {
	sizes := []int{0, 1, 125, 126, 127, 65535, 65536, 70000}
	for _, n := range sizes {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i)
		}
		for _, masked := range []bool{false, true} {
			var buf bytes.Buffer
			in := &Frame{Fin: true, Op: OpBinary, Masked: masked, Payload: payload}
			if masked {
				in.MaskKey = [4]byte{1, 2, 3, 4}
			}
			if err := WriteFrame(&buf, in); err != nil {
				t.Fatalf("n=%d masked=%v: %v", n, masked, err)
			}
			out, err := ReadFrame(&buf)
			if err != nil {
				t.Fatalf("n=%d masked=%v: %v", n, masked, err)
			}
			if !out.Fin || out.Op != OpBinary || out.Masked != masked {
				t.Errorf("n=%d: header mismatch %+v", n, out)
			}
			if !bytes.Equal(out.Payload, payload) {
				t.Errorf("n=%d masked=%v: payload mismatch", n, masked)
			}
		}
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(payload []byte, mask [4]byte, op uint8) bool {
		var buf bytes.Buffer
		in := &Frame{Fin: true, Op: Opcode(op & 0xF), Masked: true, MaskKey: mask, Payload: payload}
		if err := WriteFrame(&buf, in); err != nil {
			return false
		}
		out, err := ReadFrame(&buf)
		return err == nil && out.Op == in.Op && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAcceptKeyRFCExample(t *testing.T) {
	// The worked example from RFC 6455 §1.3.
	got := AcceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Errorf("AcceptKey = %q, want %q", got, want)
	}
}

// startEchoServer runs a plain TCP echo server — the stand-in for an
// unmodified native socket server.
func startEchoServer(t *testing.T) (addr string, stop func()) {
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
				buf := make([]byte, 4096)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

func TestWebsockifyEndToEnd(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	proxy, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	w := browser.NewWindow(browser.Chrome28)
	var got []byte
	w.Loop.Post("main", func() {
		ws := DialWebSocket(w, proxy.Addr())
		ws.OnOpen = func() {
			if err := ws.Send([]byte("ping over websockify")); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
		ws.OnMessage = func(data []byte) {
			got = data
			ws.Close()
		}
		ws.OnError = func(err error) { t.Errorf("ws error: %v", err) }
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping over websockify" {
		t.Errorf("echo = %q", got)
	}
}

func TestDoppioSocketAPI(t *testing.T) {
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	proxy, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	w := browser.NewWindow(browser.Firefox22)
	var received []byte
	w.Loop.Post("main", func() {
		Connect(w, proxy.Addr(), func(s *Socket, err error) {
			if err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			s.Write([]byte("hello socket")).Then(func(_ interface{}, err error) {
				if err != nil {
					t.Errorf("Write: %v", err)
					return
				}
				// Read in two chunks to exercise buffering.
				s.Read(5).Then(func(v interface{}, err error) {
					if err != nil {
						t.Errorf("Read: %v", err)
						return
					}
					data, _ := v.([]byte)
					received = append(received, data...)
					s.Read(100).Then(func(v interface{}, err error) {
						if err != nil {
							t.Errorf("Read 2: %v", err)
							return
						}
						data, _ := v.([]byte)
						received = append(received, data...)
						s.Close()
					})
				})
			})
		})
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if string(received) != "hello socket" {
		t.Errorf("received = %q", received)
	}
}

func TestConnectRefused(t *testing.T) {
	w := browser.NewWindow(browser.Chrome28)
	var gotErr error
	w.Loop.Post("main", func() {
		Connect(w, "127.0.0.1:1", func(s *Socket, err error) {
			gotErr = err
			if s != nil {
				t.Error("got a socket despite refusal")
			}
		})
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Error("connection to closed port succeeded")
	}
}

func TestFlashShimBrowser(t *testing.T) {
	// IE8 lacks WebSockets; the Flash shim path must still work.
	echoAddr, stopEcho := startEchoServer(t)
	defer stopEcho()
	proxy, err := NewWebsockify("127.0.0.1:0", echoAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	w := browser.NewWindow(browser.IE8)
	var got []byte
	w.Loop.Post("main", func() {
		ws := DialWebSocket(w, proxy.Addr())
		ws.OnOpen = func() { ws.Send([]byte("via flash")) }
		ws.OnMessage = func(data []byte) {
			got = data
			ws.Close()
		}
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "via flash" {
		t.Errorf("shim echo = %q", got)
	}
}

func TestSocketEOF(t *testing.T) {
	// A server that closes immediately after one reply produces EOF on
	// the next read.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		n, _ := conn.Read(buf)
		conn.Write(buf[:n])
		conn.Close()
	}()
	proxy, err := NewWebsockify("127.0.0.1:0", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	w := browser.NewWindow(browser.Chrome28)
	var first []byte
	eof := false
	w.Loop.Post("main", func() {
		Connect(w, proxy.Addr(), func(s *Socket, err error) {
			if err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			s.Write([]byte("bye")).Then(func(_ interface{}, _ error) {
				s.Read(10).Then(func(v interface{}, err error) {
					first, _ = v.([]byte)
					s.Read(10).Then(func(v interface{}, err error) {
						if v == nil && err == nil {
							eof = true
						}
					})
				})
			})
		})
	})
	if err := w.Loop.Run(); err != nil {
		t.Fatal(err)
	}
	if string(first) != "bye" || !eof {
		t.Errorf("first = %q, eof = %v", first, eof)
	}
}

func TestServerHandshakeRejectsPlainHTTP(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		client.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
		client.Close()
	}()
	if _, _, err := ServerHandshake(server); err == nil || !strings.Contains(err.Error(), "upgrade") {
		t.Errorf("plain HTTP accepted: %v", err)
	}
}

// TestConnWriterKeepsFramesWhole pins connWriter's locks. Over TCP one
// Write holds the descriptor's lock for a whole frame, so frames from
// two goroutines never interleave there. Over MemPipe a frame takes
// several Writes (net.Buffers falls back to one Write per buffer), and
// a payload larger than the pipe's buffer parks its writer mid-frame
// until the reader drains it. Without the locks, a pong written while
// a data frame is parked lands inside that frame.
func TestConnWriterKeepsFramesWhole(t *testing.T) {
	a, b := MemPipe()
	cw := &connWriter{conn: a}
	const frames, size = 16, memConnBuf + memConnBuf/2
	pong := []byte("pong-42")

	var pongs atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < frames; i++ {
			hdr := []byte{byte(i), 0xAB, 0xCD}
			if cw.writeBinary(hdr, bytes.Repeat([]byte{byte(i)}, size)) != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if cw.writeFrame(&Frame{Fin: true, Op: OpPong, Payload: pong}) != nil {
				return
			}
			pongs.Add(1)
		}
	}()
	go func() {
		wg.Wait()
		a.CloseWrite()
	}()
	// Any failure closes the reader's end, which unparks the writers.
	defer b.Close()

	data, got := 0, 0
	for {
		f, err := ReadFrame(b)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", data+got, err)
		}
		switch {
		case f.Op == OpPong && bytes.Equal(f.Payload, pong):
			got++
		case f.Op == OpBinary && len(f.Payload) == 3+size && f.Payload[0] == byte(data) &&
			bytes.Count(f.Payload[3:], []byte{byte(data)}) == size:
			data++
		default:
			t.Fatalf("frame %d is torn: op %v, %d payload bytes", data+got, f.Op, len(f.Payload))
		}
	}
	if data != frames || int64(got) != pongs.Load() {
		t.Fatalf("read %d data frames and %d pongs, want %d and %d", data, got, frames, pongs.Load())
	}
}
