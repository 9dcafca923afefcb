package sockets

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"doppio/internal/telemetry"
	"doppio/internal/vfs"
)

// This file implements the gateway's stream multiplexer: many logical
// byte streams over one WebSocket connection, the rework that turns
// websockify from one-WS-per-TCP-stream into a production gateway
// (DESIGN.md §15).
//
// Each mux frame travels as one WebSocket binary frame whose payload
// is a fixed 13-byte header followed by data:
//
//	[stream id u32][kind u8][arg u32][dlen u32] payload...
//
// arg is the kind's argument: the advertised receive window (SYN,
// SYNACK), the stream offset of the payload's first byte (DATA), the
// receiver's consumed edge (CREDIT), the stream's final length (FIN),
// or a reset code (RST). dlen is the declared payload length.
//
// The mux adds no reliability of its own. WebSocket rides TCP, so a
// frame is lost only when the whole connection dies, and a DATA frame
// gets no reply: its offset and length are an invariant check — a
// frame off the next expected offset or short of its dlen resets the
// stream with EPROTO. CREDIT is the only receive report, and a sender
// keeps no copy of the bytes it has handed to the transport.
//
// A session lives exactly as long as the WebSocket that carries it.
// When the transport dies, its owner ends the session (CloseSession)
// and every open stream fails with ECONNRESET, as a TCP connection's
// would.
//
// Offsets are uint32 and do not wrap: a stream carries at most ~4 GiB
// and is reset with EPROTO past that — a documented limit, not a
// silent corruption.

// MuxHeaderLen is the fixed mux frame header size.
const MuxHeaderLen = 13

// MuxPath is the handshake request path that selects multiplexed mode
// on the gateway; any other path proxies one TCP stream per
// connection, the classic websockify behavior.
const MuxPath = "/mux"

// The mux frame kinds.
const (
	muxData   byte = 0x0
	muxSyn    byte = 0x1
	muxSynAck byte = 0x2
	muxCredit byte = 0x4
	muxFin    byte = 0x5
	muxRst    byte = 0x6
)

// The RST reason codes carried in arg, mapped to errnos so stream
// failures classify through vfs.Classify like every other error.
const (
	rstShed    uint32 = 1 // receiver refused the stream at its cap
	rstRefused uint32 = 2 // the gateway's TCP dial was refused
	rstReset   uint32 = 3 // transport or peer died mid-stream
	rstProto   uint32 = 4 // framing/credit protocol violation
)

func rstCode(e vfs.Errno) uint32 {
	switch e {
	case vfs.EAGAIN:
		return rstShed
	case vfs.ECONNREFUSED:
		return rstRefused
	case vfs.ECONNRESET:
		return rstReset
	}
	return rstProto
}

func rstErrno(code uint32) vfs.Errno {
	switch code {
	case rstShed:
		return vfs.EAGAIN
	case rstRefused:
		return vfs.ECONNREFUSED
	case rstReset:
		return vfs.ECONNRESET
	}
	return vfs.EPROTO
}

// StreamError is the terminal error of a reset or shed mux stream.
// It carries an errno so vfs.Classify (and therefore retry.Policy)
// treats gateway failures consistently with VFS errors: a shed stream
// is EAGAIN (transient — back off and redial), a dead transport is
// ECONNRESET (transient), a refused target is ECONNREFUSED (final),
// and a protocol violation is EPROTO (final).
type StreamError struct {
	StreamID uint32
	Code     vfs.Errno
}

func (e *StreamError) Error() string {
	return fmt.Sprintf("sockets: stream %d: %s", e.StreamID, e.Code)
}

// Errno classifies the failure for vfs.Classify.
func (e *StreamError) Errno() vfs.Errno { return e.Code }

// IsShed reports whether err is a stream refused at a stream cap:
// a Dial past WithMux(n), or a SYN past the gateway's MaxStreams.
func IsShed(err error) bool {
	return vfs.IsErrno(err, vfs.EAGAIN)
}

// MuxIsData reports whether a mux frame (a WS binary payload, or just
// its header) is a DATA frame — the only kind the fault boundary
// draws decisions for.
func MuxIsData(frame []byte) bool {
	return len(frame) >= MuxHeaderLen && frame[4] == muxData
}

func muxHeader(id uint32, kind byte, arg, dlen uint32) []byte {
	h := make([]byte, MuxHeaderLen)
	binary.BigEndian.PutUint32(h[0:4], id)
	h[4] = kind
	binary.BigEndian.PutUint32(h[5:9], arg)
	binary.BigEndian.PutUint32(h[9:13], dlen)
	return h
}

// Tunables. Window and MaxStreams are per-config; these are fixed.
const (
	defaultWindow     = 64 << 10
	defaultMaxStreams = 1024
	maxDataChunk      = 16 << 10
	// maxStreamBytes caps a stream's cumulative offset below uint32
	// wrap; past it the stream resets with EPROTO.
	maxStreamBytes = 1<<32 - 1 - (64 << 20)
)

// MuxConfig configures one mux session endpoint.
type MuxConfig struct {
	// Send transmits one mux frame (header + payload) on the
	// transport; it is called from the session's writer goroutine,
	// never with the session lock held. The two slices must be sent as
	// one WebSocket binary frame — WriteBinaryFrame does it with a
	// single writev and no copy. A Send error ends the session.
	Send func(hdr, payload []byte) error
	// Window is the receive window advertised per stream (bytes);
	// 0 means 64 KiB.
	Window int
	// MaxStreams caps concurrently open streams: a SYN past the cap is
	// shed with RST(EAGAIN), and Open past it fails with EAGAIN.
	// 0 means 1024.
	MaxStreams int
	// AcceptStream, when non-nil, receives each incoming SYN (server
	// role). The handler must call st.Accept or st.Reject. A session
	// without it rejects all SYNs with ECONNREFUSED.
	AcceptStream func(st *MuxStream)
	// Hub, when non-nil, mirrors session counters under "sockmux".
	Hub *telemetry.Hub
}

type muxFrame struct {
	hdr     []byte
	payload []byte
}

// muxTel mirrors MuxStats into a hub. Without one the counters are nil
// (telemetry.Counter is nil-safe): MuxStats is the counted source.
type muxTel struct {
	streams, shed, resets, dataIn, dataOut *telemetry.Counter
}

func newMuxTel(h *telemetry.Hub) muxTel {
	if h == nil {
		return muxTel{}
	}
	reg := h.Registry
	return muxTel{
		streams: reg.Counter("sockmux", "streams"),
		shed:    reg.Counter("sockmux", "shed"),
		resets:  reg.Counter("sockmux", "resets"),
		dataIn:  reg.Counter("sockmux", "data_frames_in"),
		dataOut: reg.Counter("sockmux", "data_frames_out"),
	}
}

// MuxStats are the session counters surfaced by Snapshot and
// /debug/sock. All fields are guarded by the Mux lock.
type MuxStats struct {
	Opened   int64 // streams opened locally
	Accepted int64 // streams accepted from the peer
	Shed     int64 // SYNs refused at the stream cap
	Resets   int64 // RST frames sent or received
	DataIn   int64 // DATA frames received
	DataOut  int64 // DATA frames sent
	BytesIn  int64
	BytesOut int64
	Credits  int64 // CREDIT frames sent
}

// Mux is one endpoint of a multiplexed session. It is
// transport-agnostic and safe for concurrent use: the gateway drives
// it from per-connection goroutines, the browser client from the
// event loop thread, and sockload from thousands of client
// goroutines.
type Mux struct {
	cfg MuxConfig
	tel muxTel

	mu      sync.Mutex
	outCond *sync.Cond // signals the writer goroutine
	outQ    []muxFrame
	streams map[uint32]*MuxStream
	nextID  uint32
	dead    bool
	stats   MuxStats
}

// NewMux starts a session endpoint over the given transport send
// function. The caller feeds incoming WS binary payloads to
// HandleFrame and ends the session with CloseSession when the
// transport dies.
func NewMux(cfg MuxConfig) *Mux {
	if cfg.Window <= 0 {
		cfg.Window = defaultWindow
	}
	if cfg.MaxStreams <= 0 {
		cfg.MaxStreams = defaultMaxStreams
	}
	m := &Mux{
		cfg:     cfg,
		tel:     newMuxTel(cfg.Hub),
		streams: make(map[uint32]*MuxStream),
		nextID:  1,
	}
	m.outCond = sync.NewCond(&m.mu)
	go m.writeLoop()
	return m
}

// Stream states.
const (
	stSynSent = iota
	stSynRecv
	stOpen
	stClosed
)

func stateName(s int) string {
	switch s {
	case stSynSent:
		return "syn-sent"
	case stSynRecv:
		return "syn-recv"
	case stOpen:
		return "open"
	}
	return "closed"
}

// MuxStream is one logical byte stream within a session.
type MuxStream struct {
	m      *Mux
	id     uint32
	remote bool // opened by a peer SYN (vs locally via Open)
	state  int
	err    *StreamError
	// cond (on the session lock) wakes this stream's blocking callers
	// only; one condition per session would wake every blocked reader
	// of every stream on each frame.
	cond *sync.Cond

	// Sender: sendBuf holds written bytes not yet handed to the
	// transport, waiting for window; sendBase is the stream offset of
	// sendBuf[0], so every byte below it has been sent. DATA payloads
	// alias sendBuf — the single copy of user data is the append into
	// sendBuf, everything downstream is a re-slice.
	sw         sendWindow
	sendBuf    []byte
	sendBase   uint32
	finSent    bool
	writeWaits []writeWait
	admitWait  int // WriteBlocking callers waiting for window

	// Receiver.
	rw        recvWindow
	recvBuf   []byte
	recvNext  uint32
	finRecv   bool
	finRecvAt uint32

	readable  func()          // persistent data/EOF/error notification
	opened    func(err error) // one-shot open/refuse notification
	openFired bool
}

type writeWait struct {
	at   uint32 // fires when the admitted offset reaches at
	done func(error)
}

// ID returns the stream's session-unique id (immutable after open).
func (st *MuxStream) ID() uint32 { return st.id }

// enqueue appends a frame for the writer goroutine; a dead session
// sends nothing. Lock held.
func (m *Mux) enqueue(hdr, payload []byte) {
	if m.dead {
		return
	}
	m.outQ = append(m.outQ, muxFrame{hdr: hdr, payload: payload})
	m.outCond.Signal()
}

// writeLoop is the session's single writer: it drains outQ in order,
// calling the transport's send without the lock so a backpressured
// transport never wedges frame processing. A send error means the
// transport is gone, which ends the session.
func (m *Mux) writeLoop() {
	m.mu.Lock()
	for {
		for len(m.outQ) == 0 && !m.dead {
			m.outCond.Wait()
		}
		if m.dead {
			m.mu.Unlock()
			return
		}
		batch := m.outQ
		m.outQ = nil
		m.mu.Unlock()
		for _, f := range batch {
			if err := m.cfg.Send(f.hdr, f.payload); err != nil {
				m.CloseSession()
				return
			}
		}
		m.mu.Lock()
	}
}

// pump hands the transport whatever the window permits and fires
// Write completions whose bytes are fully admitted. Lock held; returns
// callbacks to run after unlock.
func (m *Mux) pump(st *MuxStream) []func() {
	if m.dead || (st.state != stOpen && st.state != stSynSent) {
		return nil
	}
	moved := false
	for len(st.sendBuf) > 0 {
		n := st.sw.avail(st.sendBase)
		if n == 0 {
			break
		}
		if n > len(st.sendBuf) {
			n = len(st.sendBuf)
		}
		if n > maxDataChunk {
			n = maxDataChunk
		}
		m.enqueue(muxHeader(st.id, muxData, st.sendBase, uint32(n)), st.sendBuf[:n])
		st.sendBuf = st.sendBuf[n:]
		st.sendBase += uint32(n)
		m.stats.DataOut++
		m.stats.BytesOut += int64(n)
		m.tel.dataOut.Inc()
		moved = true
	}
	var fire []func()
	kept := st.writeWaits[:0]
	for _, w := range st.writeWaits {
		if w.at <= st.sendBase {
			done := w.done
			fire = append(fire, func() { done(nil) })
		} else {
			kept = append(kept, w)
		}
	}
	st.writeWaits = kept
	if moved {
		if st.admitWait > 0 {
			st.cond.Broadcast()
		}
		m.maybeReapLocked(st)
	}
	return fire
}

// recvDone reports whether every byte through the peer's FIN is here.
func (st *MuxStream) recvDone() bool {
	return st.finRecv && st.recvNext == st.finRecvAt
}

func run(fns []func()) {
	for _, f := range fns {
		f()
	}
}

// Open starts a new outgoing stream: it sends SYN carrying our
// receive window and returns immediately. Writes are accepted right
// away (they queue until the SYNACK grants window); SetOpened or
// WaitOpen observe acceptance or refusal. Past MaxStreams live
// streams, Open fails with a shed StreamError (EAGAIN).
func (m *Mux) Open() (*MuxStream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return nil, &StreamError{Code: vfs.ECONNRESET}
	}
	if len(m.streams) >= m.cfg.MaxStreams {
		return nil, &StreamError{Code: vfs.EAGAIN}
	}
	// Skip ids already taken by peer-opened streams: both endpoints
	// allocate from one space, so without this a symmetric session
	// (both sides calling Open) would silently collide.
	for m.nextID == 0 || m.streams[m.nextID] != nil {
		m.nextID++
	}
	st := &MuxStream{m: m, id: m.nextID, state: stSynSent, cond: sync.NewCond(&m.mu)}
	m.nextID++
	st.rw.window = m.cfg.Window
	m.streams[st.id] = st
	m.stats.Opened++
	m.tel.streams.Inc()
	m.enqueue(muxHeader(st.id, muxSyn, uint32(st.rw.window), 0), nil)
	return st, nil
}

// SetOpened registers the one-shot open notification: fn(nil) on
// SYNACK, fn(err) on refusal or session death. Fires immediately if
// the stream already settled.
func (st *MuxStream) SetOpened(fn func(err error)) {
	m := st.m
	m.mu.Lock()
	if st.openFired {
		err := error(nil)
		if st.err != nil {
			err = st.err
		}
		m.mu.Unlock()
		fn(err)
		return
	}
	st.opened = fn
	m.mu.Unlock()
}

// WaitOpen blocks until the stream is accepted or refused.
func (st *MuxStream) WaitOpen() error {
	m := st.m
	m.mu.Lock()
	defer m.mu.Unlock()
	for !st.openFired {
		st.cond.Wait()
	}
	if st.err != nil {
		return st.err
	}
	return nil
}

// settleOpen marks the open decided. Lock held; returns callback.
func (st *MuxStream) settleOpen(err error) []func() {
	if st.openFired {
		return nil
	}
	st.openFired = true
	st.cond.Broadcast()
	if st.opened == nil {
		return nil
	}
	fn := st.opened
	st.opened = nil
	return []func(){func() { fn(err) }}
}

// Accept admits an incoming stream (server role): it advertises our
// receive window with SYNACK and opens the stream for I/O.
func (st *MuxStream) Accept() {
	m := st.m
	m.mu.Lock()
	if st.state != stSynRecv {
		m.mu.Unlock()
		return
	}
	st.state = stOpen
	st.rw.window = m.cfg.Window
	m.stats.Accepted++
	m.enqueue(muxHeader(st.id, muxSynAck, uint32(st.rw.window), 0), nil)
	fns := m.pump(st)
	m.mu.Unlock()
	run(fns)
}

// Reject refuses an incoming stream with the given errno (server
// role).
func (st *MuxStream) Reject(code vfs.Errno) {
	m := st.m
	m.mu.Lock()
	if st.state != stSynRecv {
		m.mu.Unlock()
		return
	}
	fns := m.resetLocked(st, code, true)
	m.mu.Unlock()
	run(fns)
}

// Write queues p for transmission and calls done(nil) once every byte
// has been admitted to the flow-control window (queued for the
// transport). A zero-window stream holds the completion until the
// peer grants credit — the backpressure the tests pin down. done(err)
// reports a reset stream.
func (st *MuxStream) Write(p []byte, done func(error)) {
	m := st.m
	m.mu.Lock()
	if st.err != nil || st.state == stClosed || st.finSent {
		var err error = ErrSocketClosed
		if st.err != nil {
			err = st.err
		}
		m.mu.Unlock()
		if done != nil {
			done(err)
		}
		return
	}
	if uint64(st.sendBase)+uint64(len(st.sendBuf))+uint64(len(p)) > maxStreamBytes {
		fns := m.resetLocked(st, vfs.EPROTO, true)
		m.mu.Unlock()
		run(fns)
		if done != nil {
			done(&StreamError{StreamID: st.id, Code: vfs.EPROTO})
		}
		return
	}
	st.sendBuf = append(st.sendBuf, p...)
	if done != nil {
		st.writeWaits = append(st.writeWaits,
			writeWait{at: st.sendBase + uint32(len(st.sendBuf)), done: done})
	}
	fns := m.pump(st)
	m.mu.Unlock()
	run(fns)
}

// WriteBlocking is Write for goroutine callers: it returns once the
// bytes are admitted to the window.
func (st *MuxStream) WriteBlocking(p []byte) error {
	m := st.m
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if st.err != nil {
			return st.err
		}
		if st.state == stClosed || st.finSent {
			return ErrSocketClosed
		}
		if st.state == stOpen || st.state == stSynSent {
			break
		}
		st.cond.Wait()
	}
	st.sendBuf = append(st.sendBuf, p...)
	target := st.sendBase + uint32(len(st.sendBuf))
	fns := m.pump(st)
	// Fire any async completions inline: they belong to other writers
	// and must not wait for our window.
	m.mu.Unlock()
	run(fns)
	m.mu.Lock()
	for {
		if st.err != nil {
			return st.err
		}
		// Checked before the closed state: the pump that hands a
		// finished stream's last bytes to the transport also reaps it.
		if st.sendBase >= target {
			return nil
		}
		if st.state == stClosed {
			return ErrSocketClosed
		}
		st.admitWait++
		st.cond.Wait()
		st.admitWait--
	}
}

// SetReadable registers a persistent notification fired (outside the
// session lock) whenever data arrives, EOF is reached, or the stream
// errors. If the stream is already readable it fires immediately.
func (st *MuxStream) SetReadable(fn func()) {
	m := st.m
	m.mu.Lock()
	st.readable = fn
	ready := len(st.recvBuf) > 0 || st.err != nil || st.atEOFLocked()
	m.mu.Unlock()
	if ready && fn != nil {
		fn()
	}
}

func (st *MuxStream) atEOFLocked() bool {
	return st.recvDone() && len(st.recvBuf) == 0
}

// TryRead drains up to max buffered bytes without blocking. It
// returns (nil, nil) when no data is buffered yet, (nil, io.EOF) at
// end of stream, and (nil, err) on a reset stream. The returned slice
// is valid until the stream is garbage.
func (st *MuxStream) TryRead(max int) ([]byte, error) {
	m := st.m
	m.mu.Lock()
	if len(st.recvBuf) == 0 {
		if st.err != nil {
			err := st.err
			m.mu.Unlock()
			return nil, err
		}
		if st.atEOFLocked() {
			m.mu.Unlock()
			return nil, io.EOF
		}
		m.mu.Unlock()
		return nil, nil
	}
	k := max
	if k > len(st.recvBuf) {
		k = len(st.recvBuf)
	}
	out := st.recvBuf[:k]
	st.recvBuf = st.recvBuf[k:]
	m.consumedLocked(st, k)
	m.mu.Unlock()
	return out, nil
}

// ReadBlocking fills buf with at least one byte, blocking until data,
// EOF (0, io.EOF), or a reset (0, err).
func (st *MuxStream) ReadBlocking(buf []byte) (int, error) {
	m := st.m
	m.mu.Lock()
	for {
		if len(st.recvBuf) > 0 {
			k := copy(buf, st.recvBuf)
			st.recvBuf = st.recvBuf[k:]
			m.consumedLocked(st, k)
			m.mu.Unlock()
			return k, nil
		}
		if st.err != nil {
			err := st.err
			m.mu.Unlock()
			return 0, err
		}
		if st.atEOFLocked() {
			m.mu.Unlock()
			return 0, io.EOF
		}
		if m.dead {
			m.mu.Unlock()
			return 0, &StreamError{StreamID: st.id, Code: vfs.ECONNRESET}
		}
		st.cond.Wait()
	}
}

// Buffered reports bytes waiting in the receive buffer.
func (st *MuxStream) Buffered() int {
	st.m.mu.Lock()
	defer st.m.mu.Unlock()
	return len(st.recvBuf)
}

// consumedLocked records n bytes drained by the consumer and grants
// credit if it is due. Lock held.
func (m *Mux) consumedLocked(st *MuxStream, n int) {
	st.rw.consumed += uint32(n)
	m.grantLocked(st)
}

// grantLocked advertises the consumed edge once a quarter window has
// drained. Lock held.
func (m *Mux) grantLocked(st *MuxStream) {
	if m.dead || st.state != stOpen || !st.rw.due() {
		return
	}
	st.rw.granted = st.rw.consumed
	m.enqueue(muxHeader(st.id, muxCredit, st.rw.granted, 0), nil)
	m.stats.Credits++
}

// Close half-closes the stream for writing: a FIN carrying the final
// offset tells the peer where the byte stream ends. Bytes still
// waiting for window are sent as credit arrives, and reads continue
// until the peer's own FIN.
func (st *MuxStream) Close() error {
	m := st.m
	m.mu.Lock()
	if st.err != nil || st.finSent || st.state == stClosed {
		m.mu.Unlock()
		return nil
	}
	st.finSent = true
	m.enqueue(muxHeader(st.id, muxFin, st.sendBase+uint32(len(st.sendBuf)), 0), nil)
	m.maybeReapLocked(st)
	m.mu.Unlock()
	return nil
}

// Reset kills the stream with the given errno, notifying the peer.
func (st *MuxStream) Reset(code vfs.Errno) {
	m := st.m
	m.mu.Lock()
	fns := m.resetLocked(st, code, true)
	m.mu.Unlock()
	run(fns)
}

// resetLocked tears a stream down, optionally telling the peer, and
// returns the callbacks to run after unlock. Lock held.
func (m *Mux) resetLocked(st *MuxStream, code vfs.Errno, tellPeer bool) []func() {
	if st.state == stClosed {
		return nil
	}
	if tellPeer {
		m.enqueue(muxHeader(st.id, muxRst, rstCode(code), 0), nil)
	}
	m.stats.Resets++
	m.tel.resets.Inc()
	return m.killLocked(st, code)
}

// killLocked finalizes a dead stream without emitting frames.
func (m *Mux) killLocked(st *MuxStream, code vfs.Errno) []func() {
	st.state = stClosed
	st.err = &StreamError{StreamID: st.id, Code: code}
	delete(m.streams, st.id)
	var fns []func()
	fns = append(fns, st.settleOpen(st.err)...)
	for _, w := range st.writeWaits {
		done := w.done
		err := st.err
		fns = append(fns, func() { done(err) })
	}
	st.writeWaits = nil
	if st.readable != nil {
		fns = append(fns, st.readable)
	}
	st.cond.Broadcast()
	return fns
}

// maybeReapLocked removes a stream once both directions are finished
// — every byte through our FIN has been handed to the transport, and
// every byte through the peer's FIN has arrived — so the session map
// does not grow without bound. Bytes the consumer has not drained stay
// readable from the stream.
func (m *Mux) maybeReapLocked(st *MuxStream) {
	if st.finSent && len(st.sendBuf) == 0 && st.recvDone() && st.state != stClosed {
		st.state = stClosed
		delete(m.streams, st.id)
		st.cond.Broadcast()
	}
}

// HandleFrame processes one incoming WS binary payload. The caller is
// the transport's reader (the client's message handler or the
// gateway's connection goroutine).
func (m *Mux) HandleFrame(b []byte) {
	if len(b) < MuxHeaderLen {
		m.CloseSession()
		return
	}
	id := binary.BigEndian.Uint32(b[0:4])
	kind := b[4]
	arg := binary.BigEndian.Uint32(b[5:9])
	dlen := binary.BigEndian.Uint32(b[9:13])
	payload := b[MuxHeaderLen:]

	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return
	}
	var fns []func()
	st := m.streams[id]
	switch kind {
	case muxSyn:
		fns = m.handleSyn(id, arg)
	case muxSynAck:
		if st != nil && st.state == stSynSent {
			st.state = stOpen
			st.sw.open(int(arg))
			fns = append(st.settleOpen(nil), m.pump(st)...)
		}
	case muxData:
		if st == nil {
			// A stale stream: tell the peer to stop sending.
			m.enqueue(muxHeader(id, muxRst, rstReset, 0), nil)
			break
		}
		fns = m.handleData(st, arg, dlen, payload)
	case muxCredit:
		if st != nil {
			fns = m.handleCredit(st, arg)
		}
	case muxFin:
		if st != nil && !st.finRecv {
			fns = m.handleFin(st, arg)
		}
	case muxRst:
		if st != nil {
			m.stats.Resets++
			m.tel.resets.Inc()
			fns = m.killLocked(st, rstErrno(arg))
		}
	default:
		m.mu.Unlock()
		m.CloseSession()
		return
	}
	m.mu.Unlock()
	run(fns)
}

// handleSyn admits or sheds an incoming stream. Lock held.
func (m *Mux) handleSyn(id uint32, window uint32) []func() {
	if dup := m.streams[id]; dup != nil {
		if dup.remote {
			return nil // a SYN we already hold; nothing new to admit
		}
		// The peer's SYN collides with a stream *we* opened: both
		// sides are allocating from the same id space. Reject loudly
		// as a protocol violation instead of silently ignoring it and
		// desyncing the two endpoints' stream maps.
		m.enqueue(muxHeader(id, muxRst, rstProto, 0), nil)
		m.stats.Resets++
		m.tel.resets.Inc()
		return nil
	}
	if m.cfg.AcceptStream == nil {
		m.enqueue(muxHeader(id, muxRst, rstRefused, 0), nil)
		m.stats.Resets++
		m.tel.resets.Inc()
		return nil
	}
	if len(m.streams) >= m.cfg.MaxStreams {
		m.enqueue(muxHeader(id, muxRst, rstShed, 0), nil)
		m.stats.Shed++
		m.tel.shed.Inc()
		return nil
	}
	st := &MuxStream{m: m, id: id, remote: true, state: stSynRecv, cond: sync.NewCond(&m.mu)}
	st.sw.open(int(window))
	m.streams[id] = st
	m.tel.streams.Inc()
	accept := m.cfg.AcceptStream
	return []func(){func() { accept(st) }}
}

// handleData appends one DATA frame. TCP under the WebSocket neither
// reorders nor truncates, so a frame off the next offset, short of its
// declared length, past the FIN, or past the granted credit is a
// broken peer. Lock held.
func (m *Mux) handleData(st *MuxStream, seq, dlen uint32, payload []byte) []func() {
	n := uint32(len(payload))
	end := uint64(seq) + uint64(n)
	if dlen != n || seq != st.recvNext || !st.rw.admits(end) ||
		(st.finRecv && end > uint64(st.finRecvAt)) {
		return m.resetLocked(st, vfs.EPROTO, true)
	}
	st.recvBuf = append(st.recvBuf, payload...)
	st.recvNext += n
	m.stats.DataIn++
	m.stats.BytesIn += int64(n)
	m.tel.dataIn.Inc()
	return m.receivedLocked(st)
}

// handleFin records where the peer's byte stream ends. Lock held.
func (m *Mux) handleFin(st *MuxStream, finAt uint32) []func() {
	if finAt < st.recvNext {
		return m.resetLocked(st, vfs.EPROTO, true)
	}
	st.finRecv = true
	st.finRecvAt = finAt
	return m.receivedLocked(st)
}

// receivedLocked wakes the reader after new data or a FIN. Lock held.
func (m *Mux) receivedLocked(st *MuxStream) []func() {
	m.maybeReapLocked(st)
	st.cond.Broadcast()
	if st.readable != nil {
		return []func(){st.readable}
	}
	return nil
}

// handleCredit applies a consumed edge: the window extends past it.
// The peer cannot have consumed more than was sent. Lock held.
func (m *Mux) handleCredit(st *MuxStream, edge uint32) []func() {
	if edge > st.sendBase {
		return m.resetLocked(st, vfs.EPROTO, true)
	}
	st.sw.credit(edge)
	return m.pump(st)
}

// CloseSession ends the session — its transport died, or its owner is
// done: every stream fails with ECONNRESET and blocked I/O wakes.
// Idempotent.
func (m *Mux) CloseSession() {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return
	}
	m.dead = true
	var fns []func()
	for _, st := range m.streams {
		fns = append(fns, m.killLocked(st, vfs.ECONNRESET)...)
	}
	m.outQ = nil
	m.outCond.Broadcast()
	m.mu.Unlock()
	run(fns)
}

// StreamSnapshot is one stream's state for /debug/sock.
type StreamSnapshot struct {
	ID           uint32 `json:"id"`
	State        string `json:"state"`
	SendWindow   int    `json:"send_window"`   // unspent credit
	SendQueued   int    `json:"send_queued"`   // bytes awaiting window
	RecvBuffered int    `json:"recv_buffered"` // bytes awaiting the consumer
}

// MuxSnapshot is the session state for /debug/sock.
type MuxSnapshot struct {
	Dead    bool             `json:"dead"`
	Stats   MuxStats         `json:"stats"`
	Streams []StreamSnapshot `json:"streams"`
}

// Snapshot captures the session's streams and counters.
func (m *Mux) Snapshot() MuxSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := MuxSnapshot{Dead: m.dead, Stats: m.stats}
	for _, st := range m.streams {
		snap.Streams = append(snap.Streams, StreamSnapshot{
			ID:           st.id,
			State:        stateName(st.state),
			SendWindow:   st.sw.avail(st.sendBase),
			SendQueued:   len(st.sendBuf),
			RecvBuffered: len(st.recvBuf),
		})
	}
	return snap
}

// Stats snapshots the session counters.
func (m *Mux) Stats() MuxStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Add accumulates b into s (the gateway's live+retired aggregation).
func (s *MuxStats) Add(b MuxStats) {
	s.Opened += b.Opened
	s.Accepted += b.Accepted
	s.Shed += b.Shed
	s.Resets += b.Resets
	s.DataIn += b.DataIn
	s.DataOut += b.DataOut
	s.BytesIn += b.BytesIn
	s.BytesOut += b.BytesOut
	s.Credits += b.Credits
}

// StreamCount reports the number of live streams in the session.
func (m *Mux) StreamCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.streams)
}
