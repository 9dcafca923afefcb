// Gateway soak A/B (BENCH_sock.json): N logical echo connections
// through the websockify gateway, once as N plain one-stream WebSocket
// connections and once as N mux streams packed onto
// N/sockStreamsPerConn multiplexed sessions: equal work, same
// transport, so the A/B isolates what the framing and flow control
// cost. A separate shed phase drives the gateway past its ShedDepth
// and checks the refusal/recovery behavior the fleet layer depends on.
package bench

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"doppio/internal/sockets"
)

// Soak constants: mux streams per WebSocket session in the mux arm
// (the plain arm always uses one connection per stream), echo round
// trips per stream and their size, the shed phase's queue-depth
// threshold, and the A/B's pair count. The whole soak runs over
// in-memory pipes: a 10k-connection sweep on real TCP needs ~4 fds per
// connection, past typical fd limits.
const (
	sockStreamsPerConn = 100
	sockMsgs           = 4
	sockSize           = 256
	sockShedDepth      = 8
	sockPairs          = 3
)

// sockConns is the sweep of logical connection counts: a
// 500-connection smoke at scale 1, the 1k/5k/10k soak above it.
func sockConns(scale int) []int {
	if scale <= 1 {
		return []int{500}
	}
	return []int{1000, 5000, 10000}
}

// SockShed is the shed phase: a gateway with a deliberately low
// ShedDepth and a forced queue-depth reading, so admission control
// must refuse SYNs, then admit them again on recovery.
type SockShed struct {
	ShedDepth int `json:"shed_depth"`
	// Attempted streams while the gateway was overloaded; every one
	// must come back RST(EAGAIN).
	Attempted int   `json:"attempted"`
	Shed      int64 `json:"shed"`
	// Recovered streams opened after the depth reading dropped; every
	// one must succeed and echo.
	Recovered int `json:"recovered"`
	// GatewayShed and Pauses are the gateway's own counters —
	// admission refusals and credit-pause transitions.
	GatewayShed int64 `json:"gateway_shed"`
	Pauses      int64 `json:"gateway_pauses"`
}

// sockFabric is one echo target behind one gateway, both on
// in-memory listeners.
type sockFabric struct {
	dialGW func() (net.Conn, error)
	gw     *sockets.Websockify
	close  func()
}

func newSockFabric(opts sockets.GatewayOptions) (*sockFabric, error) {
	echoLn := sockets.NewMemListener()
	go sockEchoAccept(echoLn)
	gwLn := sockets.NewMemListener()
	opts.Listener = gwLn
	opts.MaxStreams = sockStreamsPerConn + 16
	opts.Dial = func(string) (net.Conn, error) { return echoLn.Dial() }
	gw, err := sockets.NewGateway("", "mem:echo", opts)
	if err != nil {
		echoLn.Close()
		gwLn.Close()
		return nil, err
	}
	return &sockFabric{
		dialGW: gwLn.Dial,
		gw:     gw,
		close: func() {
			gw.Close()
			echoLn.Close()
		},
	}, nil
}

// sockEchoAccept is the unmodified TCP echo server behind the gateway.
func sockEchoAccept(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			buf := make([]byte, 16<<10)
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
		}(c)
	}
}

// sockPattern fills one message: stream and message index baked into
// every byte, so a misrouted or replayed frame fails verification.
func sockPattern(buf []byte, stream, msg int) {
	b := byte(stream*31 + msg*7 + 1)
	for i := range buf {
		buf[i] = b
	}
}

// runSock runs one plain-vs-mux comparison per connection count,
// then the shed phase.
func runSock(cfg Config, conns []int) (*Report, error) {
	rep := newReport("sock", cfg, map[string]any{
		"transport":        "mem",
		"streams_per_conn": sockStreamsPerConn,
		"msgs":             sockMsgs,
		"size_bytes":       sockSize,
	})
	for _, n := range conns {
		arm := func(name string, mux bool) Arm {
			return Arm{name, func() (Sample, error) { return runSockArm(n, mux) }}
		}
		c, err := rep.compare(AB{Name: fmt.Sprintf("conns=%d", n), Pairs: sockPairs,
			A: arm("plain", false), B: arm("mux", true)})
		if err != nil {
			return nil, err
		}
		lost := maxMetric(c, "lost")
		rep.check(c.Name+": zero lost streams", lost == 0, "%.0f lost in the worst run", lost)
	}
	shed, err := runSockShed()
	if err != nil {
		return nil, fmt.Errorf("sock shed phase: %w", err)
	}
	rep.Detail["shed"] = shed
	rep.check("shed: every overloaded dial shed", shed.Shed == int64(shed.Attempted), "%d of %d", shed.Shed, shed.Attempted)
	rep.check("shed: every recovery dial echoed", shed.Recovered == shed.Attempted, "%d of %d", shed.Recovered, shed.Attempted)
	rep.check("shed: gateway shed and pause counters > 0", shed.GatewayShed > 0 && shed.Pauses > 0,
		"shed=%d pauses=%d", shed.GatewayShed, shed.Pauses)
	return rep, nil
}

// runSockArm runs n logical echo streams in one mode, one latency per
// message. A stream whose echo came back short, corrupt, or errored
// counts as lost: the transport is lossless, and the mux adds no
// repair of its own.
func runSockArm(n int, mux bool) (Sample, error) {
	fab, err := newSockFabric(sockets.GatewayOptions{})
	if err != nil {
		return Sample{}, err
	}
	defer fab.close()

	// One latency slot per message, indexed by stream — no lock on the
	// hot path; zero slots (lost streams) are filtered afterwards.
	lats := make([]time.Duration, n*sockMsgs)
	var lost atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	transports := n
	if mux {
		transports = (n + sockStreamsPerConn - 1) / sockStreamsPerConn
		for s0 := 0; s0 < n; s0 += sockStreamsPerConn {
			count := min(sockStreamsPerConn, n-s0)
			wg.Add(1)
			go func(s0, count int) {
				defer wg.Done()
				m, closeSess, err := dialMuxSession(fab)
				if err != nil {
					lost.Add(int64(count))
					return
				}
				defer closeSess()
				var sw sync.WaitGroup
				for i := 0; i < count; i++ {
					sw.Add(1)
					go func(stream int) {
						defer sw.Done()
						if !runMuxStream(m, sockMsgs, stream, lats) {
							lost.Add(1)
						}
					}(s0 + i)
				}
				sw.Wait()
			}(s0, count)
		}
	} else {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(stream int) {
				defer wg.Done()
				if !runPlainStream(fab, stream, lats) {
					lost.Add(1)
				}
			}(i)
		}
	}
	wg.Wait()
	wall := time.Since(start)
	s := Sample{Latencies: make([]time.Duration, 0, len(lats))}
	for _, d := range lats {
		if d > 0 {
			s.Latencies = append(s.Latencies, d)
		}
	}
	s.Metrics = map[string]float64{
		"wall_ns":      float64(wall),
		"msgs_per_sec": float64(len(s.Latencies)) / wall.Seconds(),
		"lost":         float64(lost.Load()),
		"transports":   float64(transports),
	}
	return s, nil
}

// dialMuxSession opens one multiplexed gateway session: WebSocket
// handshake on MuxPath, a client Mux over it, and a reader pump.
func dialMuxSession(fab *sockFabric) (*sockets.Mux, func(), error) {
	conn, err := fab.dialGW()
	if err != nil {
		return nil, nil, err
	}
	br, err := sockets.ClientHandshake(conn, "sockload", sockets.MuxPath)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	m := sockets.NewMux(sockets.MuxConfig{
		MaxStreams: sockStreamsPerConn + 16,
		Send: func(hdr, payload []byte) error {
			return sockets.WriteBinaryFrame(conn, hdr, payload)
		},
	})
	go func() {
		for {
			f, err := sockets.ReadFrame(br)
			if err != nil {
				m.CloseSession()
				return
			}
			if f.Op == sockets.OpBinary {
				m.HandleFrame(f.Payload)
			} else if f.Op == sockets.OpClose {
				m.CloseSession()
				return
			}
		}
	}()
	return m, func() {
		m.CloseSession()
		conn.Close()
	}, nil
}

// runMuxStream drives one stream's msgs echo round trips, recording
// one latency per message. Returns false on any loss or corruption.
func runMuxStream(m *sockets.Mux, msgs, stream int, lats []time.Duration) bool {
	st, err := m.Open()
	if err != nil {
		return false
	}
	defer st.Close()
	if err := st.WaitOpen(); err != nil {
		return false
	}
	msg := make([]byte, sockSize)
	want := make([]byte, sockSize)
	got := make([]byte, sockSize)
	for i := 0; i < msgs; i++ {
		sockPattern(msg, stream, i)
		sockPattern(want, stream, i)
		t0 := time.Now()
		if err := st.WriteBlocking(msg); err != nil {
			return false
		}
		for off := 0; off < sockSize; {
			k, err := st.ReadBlocking(got[off:])
			if err != nil {
				return false
			}
			off += k
		}
		if !bytes.Equal(got, want) {
			return false
		}
		lats[stream*msgs+i] = time.Since(t0)
	}
	return true
}

// runPlainStream is the same work over a classic one-stream
// websockify connection.
func runPlainStream(fab *sockFabric, stream int, lats []time.Duration) bool {
	conn, err := fab.dialGW()
	if err != nil {
		return false
	}
	defer conn.Close()
	br, err := sockets.ClientHandshake(conn, "sockload", "/")
	if err != nil {
		return false
	}
	msg := make([]byte, sockSize)
	want := make([]byte, sockSize)
	got := make([]byte, 0, sockSize)
	for i := 0; i < sockMsgs; i++ {
		sockPattern(msg, stream, i)
		sockPattern(want, stream, i)
		got = got[:0]
		t0 := time.Now()
		if err := sockets.WriteBinaryFrame(conn, msg); err != nil {
			return false
		}
		for len(got) < sockSize {
			f, err := sockets.ReadFrame(br)
			if err != nil || f.Op == sockets.OpClose {
				return false
			}
			if f.Op == sockets.OpBinary {
				got = append(got, f.Payload...)
			}
		}
		if !bytes.Equal(got, want) {
			return false
		}
		lats[stream*sockMsgs+i] = time.Since(t0)
	}
	return true
}

// runSockShed drives admission control: with the queue-depth reading
// forced past ShedDepth every SYN must be refused with RST(EAGAIN);
// with it back at zero every SYN must open and echo.
func runSockShed() (SockShed, error) {
	shed := SockShed{ShedDepth: sockShedDepth}
	var depth atomic.Int64
	fab, err := newSockFabric(sockets.GatewayOptions{
		ShedDepth:  sockShedDepth,
		QueueDepth: func() int { return int(depth.Load()) },
	})
	if err != nil {
		return shed, err
	}
	defer fab.close()
	m, closeSess, err := dialMuxSession(fab)
	if err != nil {
		return shed, err
	}
	defer closeSess()

	// Overload: every new stream must bounce with the shed errno.
	depth.Store(sockShedDepth * 10)
	// Let the overload ticker observe the spike so the pause counter
	// moves too (admission refusal itself is immediate, not ticked).
	time.Sleep(20 * time.Millisecond)
	attempts := 32
	for i := 0; i < attempts; i++ {
		shed.Attempted++
		st, err := m.Open()
		if err == nil {
			err = st.WaitOpen()
		}
		if err != nil && sockets.IsShed(err) {
			shed.Shed++
		} else if err == nil {
			st.Close()
		}
	}

	// Recovery: the same dials must now be admitted and echo cleanly.
	depth.Store(0)
	time.Sleep(20 * time.Millisecond)
	lats := make([]time.Duration, attempts)
	for i := 0; i < attempts; i++ {
		if runMuxStream(m, 1, i, lats) {
			shed.Recovered++
		}
	}
	snap := fab.gw.Snapshot()
	shed.GatewayShed = snap.Stats.Shed
	shed.Pauses = snap.Pauses
	return shed, nil
}
