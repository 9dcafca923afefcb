package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doppio/internal/bench/workloads"
	"doppio/internal/browser"
	"doppio/internal/buffer"
	"doppio/internal/jvm"
	"doppio/internal/sockets"
	"doppio/internal/vfs"
)

//go:embed guests/SockEcho.mj
var sockEchoSrc string

// sockWorkload runs a MiniJava guest whose two threads each open a
// java.net.Socket; both sockets are streams of one multiplexed
// WebSocket session (sockets.Stack with WithMux) to a gateway
// (sockets.NewGateway) that reaches the benchmark's echo server over
// sockets.MemPipe. Thread A makes 64-byte round trips, one outstanding;
// thread B moves a fixed volume in 64 KiB writes, which fills the
// default credit window, so the session's stream scheduling matters.
// WebSocket framing, the mux, the gateway and Completions waking the
// blocked guest threads are the work; guest CPU is small (generic
// interpreter). latency_us_* is thread A's round trip: the gap between
// consecutive requests at the echo server. Dispatch, quickening and VFS
// changes should leave it flat.
type sockWorkload struct {
	classes map[string][]byte
	a, b    []byte        // payloads; a[0] == 'A' and b[0] == 'B' name the streams
	store   *vfs.InMemory // holds the payloads the guest reads
	roundsA int
	roundsB int
	gw      *sockets.Websockify
	ln      *countListener
	mu      sync.Mutex
	cur     *sockIter // streams of the running iteration
}

// sockIter collects what the echo server saw during one iteration.
type sockIter struct {
	tr      *recorder
	span    int // the guest run's span
	wg      sync.WaitGroup
	mu      sync.Mutex
	streams map[byte]*echoStream
	bad     []string
}

// echoStream is one stream as the echo server saw it.
type echoStream struct {
	arrivals []time.Time // when each message's first byte arrived
	first    time.Time
	last     time.Time
	bytes    int
}

func (w *sockWorkload) setup(b *bench) error {
	rng := rand.New(rand.NewSource(b.p.seed))
	w.a = randBytes(rng, 64, 0)
	w.b = randBytes(rng, 64<<10, 0)
	w.a[0], w.b[0] = 'A', 'B'
	w.roundsA, w.roundsB = 400, 16
	if b.p.small {
		w.roundsA, w.roundsB = 20, 2
	}
	classes, err := workloads.CompileWith(map[string]string{"perfbench/SockEcho.mj": sockEchoSrc})
	if err != nil {
		return fmt.Errorf("compiling SockEcho: %w", err)
	}
	w.classes = classes
	w.store = vfs.NewInMemory()
	if err := seedStore(w.store, map[string][]byte{"/sock/a.bin": w.a, "/sock/b.bin": w.b}); err != nil {
		return err
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("gateway listen: %w", err)
	}
	w.ln = &countListener{Listener: tcp}
	w.gw, err = sockets.NewGateway("", "echo", sockets.GatewayOptions{Listener: w.ln, Dial: w.dial})
	if err != nil {
		tcp.Close()
		return fmt.Errorf("gateway: %w", err)
	}
	return nil
}

func (w *sockWorkload) close() {
	if w.gw != nil {
		w.gw.Close()
	}
}

// dial is the gateway's route to the echo server: one in-memory pipe
// per stream.
func (w *sockWorkload) dial(string) (net.Conn, error) {
	w.mu.Lock()
	it := w.cur
	w.mu.Unlock()
	if it == nil {
		return nil, fmt.Errorf("echo server: no iteration running")
	}
	gwSide, srv := sockets.MemPipe()
	it.wg.Add(1)
	go w.serve(srv, it)
	return gwSide, nil
}

// serve echoes one stream and checks every byte against the pattern
// its first byte names. The guest forwards each echo as its next
// request, so this check also covers the bytes the guest received.
// The final message is checked, not echoed; then serve ends the stream.
func (w *sockWorkload) serve(conn net.Conn, it *sockIter) {
	defer it.wg.Done()
	defer conn.Close()
	var pat []byte
	var rounds int
	var st echoStream
	var kind byte
	buf := make([]byte, 64<<10)
	fail := func(format string, args ...interface{}) {
		it.mu.Lock()
		it.bad = append(it.bad, fmt.Sprintf(format, args...))
		it.mu.Unlock()
	}
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			now := time.Now()
			chunk := buf[:n]
			if pat == nil {
				kind = chunk[0]
				switch kind {
				case 'A':
					pat, rounds = w.a, w.roundsA
				case 'B':
					pat, rounds = w.b, w.roundsB
				default:
					fail("stream opened with byte %q", kind)
					return
				}
				st.first = now
			}
			id := it.tr.beginAt(layerEcho, string(kind), it.span, now)
			L := len(pat)
			for m := (st.bytes + L - 1) / L; m*L < st.bytes+n; m++ {
				st.arrivals = append(st.arrivals, now)
			}
			if !matches(pat, st.bytes, chunk) {
				fail("stream %c: bytes %d..%d differ from the pattern", kind, st.bytes, st.bytes+n)
			}
			if limit := rounds * L; st.bytes < limit {
				e := limit - st.bytes
				if e > n {
					e = n
				}
				if _, werr := conn.Write(chunk[:e]); werr != nil {
					fail("stream %c: echo write: %v", kind, werr)
				}
			}
			st.bytes += n
			st.last = now
			it.tr.end(id)
			if st.bytes >= (rounds+1)*L {
				break
			}
		}
		if err != nil {
			break
		}
	}
	if pat != nil && st.bytes != (rounds+1)*len(pat) {
		fail("stream %c: %d bytes, want %d", kind, st.bytes, (rounds+1)*len(pat))
	}
	it.mu.Lock()
	it.streams[kind] = &st
	it.mu.Unlock()
}

// matches reports whether chunk equals the repeating pattern pat read
// from stream offset off.
func matches(pat []byte, off int, chunk []byte) bool {
	for len(chunk) > 0 {
		i := off % len(pat)
		n := len(pat) - i
		if n > len(chunk) {
			n = len(chunk)
		}
		if !bytes.Equal(chunk[:n], pat[i:i+n]) {
			return false
		}
		chunk, off = chunk[n:], off+n
	}
	return true
}

func (w *sockWorkload) iterate(b *bench, k int) {
	c := b.check(sockProgram)
	defer c.done()
	span := b.tr.begin(layerProgram, sockProgram, b.iterSpan)
	it := &sockIter{tr: b.tr, span: span, streams: map[byte]*echoStream{}}
	w.mu.Lock()
	w.cur = it
	w.mu.Unlock()
	w.ln.counting.Store(b.tr != nil)
	wire0 := w.ln.snapshot()

	win := browser.NewWindow(browser.Chrome28)
	bufs := &buffer.Factory{Typed: win.Profile.HasTypedArrays, ValidatesStrings: win.Profile.ValidatesStrings, OnTypedAlloc: win.NoteTypedArrayAlloc}
	conn := sockets.Stack(win, w.ln.Addr().String(), sockets.WithMux(2))
	var out strings.Builder
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           &out,
		Provider:         jvm.MapProvider(w.classes),
		FS:               &jvm.VFSHostFS{FS: vfs.New(win.Loop, bufs, w.store)},
		DisableEngineTax: true,
		SocketDialer: func(_ *browser.Window, _ string, cb func(*sockets.Socket, error)) {
			conn.Dial(cb)
		},
	})
	b.keepAlive(vm)
	start := time.Now()
	var runTime time.Duration
	var runErr error
	finished := false
	vm.StartMain("SockEcho", []string{fmt.Sprint(w.roundsA), fmt.Sprint(w.roundsB)}, func(err error) {
		runTime = time.Since(start)
		runErr, finished = err, true
		conn.Close()
	})
	loopErr := win.Loop.Run()
	// The gateway closes each echo stream once the guest has closed its
	// socket; bound the wait so a lost close fails the check instead of
	// hanging the run.
	drained := make(chan struct{})
	go func() { it.wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		c.expect(false, "echo streams still open 10s after the guest finished")
	}
	// Let the gateway retire the session too, so no iteration's
	// teardown overlaps the next one or its heap sample.
	for deadline := time.Now().Add(10 * time.Second); len(w.gw.Snapshot().Sessions) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			c.expect(false, "gateway session still live 10s after the guest finished")
			break
		}
	}
	b.tr.end(span)
	w.mu.Lock()
	w.cur = nil
	w.mu.Unlock()

	it.mu.Lock()
	defer it.mu.Unlock()
	want := fmt.Sprintf("echo=%d bulk=%d\n", w.roundsA*len(w.a), w.roundsB*len(w.b))
	c.expect(loopErr == nil, "event loop: %v", loopErr)
	c.expect(finished && runErr == nil, "run: finished=%v err=%v", finished, runErr)
	c.expect(out.String() == want, "stdout %q, want %q", out.String(), want)
	for _, bad := range it.bad {
		c.expect(false, "%s", bad)
	}
	sa, sb := it.streams['A'], it.streams['B']
	c.expect(sa != nil && sb != nil, "echo server saw streams %v", len(it.streams))
	if sa == nil || sb == nil {
		return
	}
	for i := 1; i < len(sa.arrivals); i++ {
		b.latencyUs = append(b.latencyUs, us(sa.arrivals[i].Sub(sa.arrivals[i-1])))
	}

	st := vm.Runtime().Stats()
	ls := win.Loop.Stats()
	b.layer.add("run_ms.echo", ms(sa.last.Sub(sa.first)))
	b.layer.add("run_ms.bulk", ms(sb.last.Sub(sb.first)))
	guestStats(b, sockProgram, st, ls, runTime, w.roundsA+w.roundsB)
	b.layer.add("core.context_switches."+sockProgram, float64(st.ContextSwitches))
	b.layer.add("eventloop.idle_ms."+sockProgram, ms(ls.IdleTime))
	if b.tr != nil {
		wire := w.ln.snapshot()
		payload := (2*w.roundsA+1)*len(w.a) + (2*w.roundsB+1)*len(w.b)
		msgs := 2*(w.roundsA+w.roundsB) + 2
		b.layer.add("sockets.wire_bytes_per_payload_byte", ratio(float64(wire.bytes-wire0.bytes), float64(payload)))
		b.layer.add("sockets.wire_writes_per_msg", ratio(float64(wire.writes-wire0.writes), float64(msgs)))
	}
}

// countListener is the gateway's listener. While counting is on, each
// accepted client connection counts the bytes it carries and the
// gateway's Write calls. Counting wraps the connection, which turns the
// gateway's vectored writes into one Write per buffer, so it is on only
// in traced iterations.
type countListener struct {
	net.Listener
	counting      atomic.Bool
	bytes, writes atomic.Int64
}

type wireCount struct{ bytes, writes int64 }

func (l *countListener) snapshot() wireCount {
	return wireCount{l.bytes.Load(), l.writes.Load()}
}

func (l *countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || !l.counting.Load() {
		return c, err
	}
	return &countConn{Conn: c, l: l}, nil
}

type countConn struct {
	net.Conn
	l *countListener
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.bytes.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.bytes.Add(int64(n))
	c.l.writes.Add(1)
	return n, err
}
