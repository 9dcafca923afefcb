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
// receiver's consumed edge (CREDIT), the bytes received through the
// peer's FIN (ACK), the stream's final length (FIN), a reset code
// (RST), or the highest stream id the sender has seen the peer open
// (RESUME). dlen is the declared payload length.
//
// The mux adds no reliability of its own. WebSocket rides TCP, so a
// frame is lost only when the whole connection dies, and a DATA frame
// gets no reply: its offset and length are an invariant check — a
// frame off the next expected offset or short of its dlen resets the
// stream with EPROTO. A receiver reports how far it has received at
// three points only: the CREDIT grants flow control already sends,
// the end-of-stream ACK, and the resume handshake. A sender keeps each
// byte until one of those reports covers it, about one window.
//
// Losing the connection loses whatever frames it carried. An owner
// that can redial parks the session (Park) and picks it up on the new
// transport (Resume): both ends send a RESUME frame listing each
// stream's received offset, each sender replays its tail from the
// peer's offset, and lost SYN, SYNACK, FIN, CREDIT and RST frames are
// reconciled by re-sending current state.
//
// Offsets are uint32 and do not wrap: a stream carries at most ~4 GiB
// and is reset with EPROTO past that — a documented limit, not a
// silent corruption.

// MuxHeaderLen is the fixed mux frame header size.
const MuxHeaderLen = 13

// MuxPath is the handshake request path that selects multiplexed mode
// on the gateway; any other path proxies one TCP stream per
// connection, the classic websockify behavior. A client that can
// resume its session adds a token: MuxPath + "?session=" + token.
const MuxPath = "/mux"

// The mux frame kinds.
const (
	muxData   byte = 0x0
	muxSyn    byte = 0x1
	muxSynAck byte = 0x2
	muxAck    byte = 0x3
	muxCredit byte = 0x4
	muxFin    byte = 0x5
	muxRst    byte = 0x6
	muxResume byte = 0x7
)

// The RST reason codes carried in arg, mapped to errnos so stream
// failures classify through vfs.Classify like every other error. An
// RST on stream id 0 (never a stream) answers a RESUME for a session
// this endpoint does not have.
const (
	rstShed    uint32 = 1 // receiver refused the stream under load
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

// IsShed reports whether err is a stream refused for load (the signal
// sockload's shed phase counts).
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

// A RESUME payload is one record per live stream:
//
//	[stream id u32][flags u8][received u32][consumed edge u32]
const resumeRecLen = 13

// RESUME record flags.
const (
	resumeOpen    byte = 1 << 0 // the handshake completed on the sender's side
	resumeFinRecv byte = 1 << 1 // the sender holds every byte through the peer's FIN
)

// MuxConfig configures one mux session endpoint.
type MuxConfig struct {
	// Send transmits one mux frame (header + payload) on the
	// transport; it is called from the session's writer goroutine,
	// never with the session lock held. The two slices must be sent as
	// one WebSocket binary frame — WriteBinaryFrame does it with a
	// single writev and no copy. A Send error stops the session from
	// writing until Resume attaches a new transport.
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
	// OnClose fires once when the session dies (CloseSession, or a
	// malformed frame); err is nil for an orderly local close.
	OnClose func(err error)
	// Hub, when non-nil, mirrors session counters under "sockmux".
	Hub *telemetry.Hub
}

type muxFrame struct {
	hdr     []byte
	payload []byte
	gen     uint32 // the transport generation it was queued for
}

type muxTel struct {
	streams, shed, resets, resumes *telemetry.Counter
	dataIn, dataOut                *telemetry.Counter
}

func newMuxTel(h *telemetry.Hub) muxTel {
	if h == nil {
		return muxTel{
			streams: &telemetry.Counter{}, shed: &telemetry.Counter{},
			resets: &telemetry.Counter{}, resumes: &telemetry.Counter{},
			dataIn: &telemetry.Counter{}, dataOut: &telemetry.Counter{},
		}
	}
	reg := h.Registry
	return muxTel{
		streams: reg.Counter("sockmux", "streams"),
		shed:    reg.Counter("sockmux", "shed"),
		resets:  reg.Counter("sockmux", "resets"),
		resumes: reg.Counter("sockmux", "resumes"),
		dataIn:  reg.Counter("sockmux", "data_frames_in"),
		dataOut: reg.Counter("sockmux", "data_frames_out"),
	}
}

// MuxStats are the session counters surfaced by Snapshot and
// /debug/sock. All fields are guarded by the Mux lock.
type MuxStats struct {
	Opened   int64 // streams opened locally
	Accepted int64 // streams accepted from the peer
	Shed     int64 // SYNs refused for load (cap or handler reject)
	Resets   int64 // RST frames sent or received
	Resumes  int64 // resume handshakes completed on a new transport
	DataIn   int64 // DATA frames received
	DataOut  int64 // DATA frames sent (resume replays included)
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
	outCond *sync.Cond // signals the writer goroutine; Park waits on it
	outQ    []muxFrame
	send    func(hdr, payload []byte) error // the current transport
	gen     uint32                          // bumped whenever a transport is let go
	writing bool                            // the writer is sending a batch unlocked
	streams map[uint32]*MuxStream
	nextID  uint32
	peerMax uint32 // highest stream id the peer has opened (SYN seen)
	// parked: no transport — frames are dropped and writes wait, but
	// stream state is kept. resuming: a new transport carries our
	// RESUME; everything else waits for the peer's.
	parked   bool
	resuming bool
	dead     bool
	deadErr  error
	stats    MuxStats
}

// NewMux starts a session endpoint over the given transport send
// function. The caller feeds incoming WS binary payloads to
// HandleFrame and, when the transport dies, either parks the session
// for a Resume or ends it with CloseSession.
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
		send:    cfg.Send,
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

	// Sender: sendBuf holds written bytes the peer has not reported
	// received; sendBase is the stream offset of sendBuf[0]; the first
	// sentLen bytes of sendBuf have been transmitted on the current
	// transport (a resume rewinds it to the peer's offset); the rest
	// await window. DATA payloads alias sendBuf — the single copy of
	// user data is the append into sendBuf, everything downstream
	// (resume replays included) is a re-slice.
	sw         sendWindow
	sendBuf    []byte
	sendBase   uint32
	sentLen    int
	finSent    bool
	finAt      uint32
	finAcked   bool // the peer holds every byte through finAt
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

// online reports whether frames may be queued: a live transport whose
// resume handshake, if any, has completed. Lock held.
func (m *Mux) online() bool { return !m.dead && !m.parked && !m.resuming }

// enqueue appends a frame for the writer goroutine; offline, the frame
// is dropped and a resume re-sends whatever state it carried. Lock
// held.
func (m *Mux) enqueue(hdr, payload []byte) {
	if m.online() {
		m.push(hdr, payload)
	}
}

func (m *Mux) push(hdr, payload []byte) {
	m.outQ = append(m.outQ, muxFrame{hdr: hdr, payload: payload, gen: m.gen})
	m.outCond.Signal()
}

// writeLoop is the session's single writer: it drains outQ in order,
// calling the transport's send without the lock so a backpressured
// transport never wedges frame processing.
func (m *Mux) writeLoop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for len(m.outQ) == 0 && !m.dead {
			m.outCond.Wait()
		}
		if m.dead {
			return
		}
		batch := m.outQ
		m.outQ = nil
		send, gen := m.send, m.gen
		m.writing = true
		for _, f := range batch {
			// Re-check per frame: once the transport is let go, an
			// already-dequeued batch must stop — its frames belong to
			// the old transport, and the owner may already be dialing
			// the new one.
			if m.dead || f.gen != m.gen {
				break
			}
			m.mu.Unlock()
			err := send(f.hdr, f.payload)
			m.mu.Lock()
			if err != nil {
				if f.gen == m.gen {
					m.detachLocked()
				}
				break
			}
		}
		m.writing = false
		if gen != m.gen {
			m.outCond.Broadcast() // Park waits for this batch
		}
	}
}

// detachLocked lets go of the current transport: queued frames are
// dropped and nothing more is queued until Resume. Lock held.
func (m *Mux) detachLocked() {
	m.parked = true
	m.resuming = false
	m.gen++
	m.outQ = nil
}

// Park detaches the session from a transport that died abruptly.
// Streams keep their state and their unreported tail; writes stop
// being admitted and reads wait until Resume attaches a new transport
// or CloseSession ends the session. Park returns once no frame meant
// for the old transport can still be written. Idempotent.
func (m *Mux) Park() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return
	}
	if !m.parked {
		m.detachLocked()
	}
	for m.writing {
		m.outCond.Wait()
	}
}

// Resume attaches a parked session to a new transport and starts the
// resume handshake: it sends a RESUME frame describing every stream,
// and holds all other traffic until the peer's RESUME arrives (see
// handleResume). A peer that started a fresh session instead, or no
// longer has this one, makes the session drop its streams with
// ECONNRESET and carry on empty.
func (m *Mux) Resume(send func(hdr, payload []byte) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead || !m.parked {
		return
	}
	m.send = send
	m.parked = false
	m.resuming = true
	payload := make([]byte, 0, len(m.streams)*resumeRecLen)
	for id, st := range m.streams {
		var flags byte
		if st.state == stOpen {
			flags |= resumeOpen
		}
		if st.recvDone() {
			flags |= resumeFinRecv
		}
		payload = binary.BigEndian.AppendUint32(payload, id)
		payload = append(payload, flags)
		payload = binary.BigEndian.AppendUint32(payload, st.recvNext)
		payload = binary.BigEndian.AppendUint32(payload, st.rw.granted)
	}
	m.push(muxHeader(0, muxResume, m.peerMax, uint32(len(payload))), payload)
}

// pump transmits whatever the window permits and fires Write
// completions whose bytes are fully admitted. Lock held; returns
// callbacks to run after unlock.
func (m *Mux) pump(st *MuxStream) []func() {
	if !m.online() || (st.state != stOpen && st.state != stSynSent) {
		return nil
	}
	moved := false
	for st.sentLen < len(st.sendBuf) {
		next := st.sendBase + uint32(st.sentLen)
		n := st.sw.avail(next)
		if n == 0 {
			break
		}
		if want := len(st.sendBuf) - st.sentLen; n > want {
			n = want
		}
		if n > maxDataChunk {
			n = maxDataChunk
		}
		chunk := st.sendBuf[st.sentLen : st.sentLen+n]
		m.enqueue(muxHeader(st.id, muxData, next, uint32(n)), chunk)
		st.sentLen += n
		m.stats.DataOut++
		m.stats.BytesOut += int64(n)
		m.tel.dataOut.Inc()
		moved = true
	}
	admitted := st.sendBase + uint32(st.sentLen)
	var fire []func()
	kept := st.writeWaits[:0]
	for _, w := range st.writeWaits {
		if w.at <= admitted {
			done := w.done
			fire = append(fire, func() { done(nil) })
		} else {
			kept = append(kept, w)
		}
	}
	st.writeWaits = kept
	if moved && st.admitWait > 0 {
		st.cond.Broadcast()
	}
	return fire
}

// release drops the sent bytes below offset upTo, which the peer has
// reported received. Lock held; the caller has checked
// sendBase <= upTo <= sendBase+sentLen.
func (st *MuxStream) release(upTo uint32) {
	drop := int(upTo - st.sendBase)
	st.sendBuf = st.sendBuf[drop:]
	st.sentLen -= drop
	st.sendBase = upTo
}

// reported checks an offset the peer says it has received: it cannot
// be below what it reported before or beyond what was sent.
func (st *MuxStream) reported(off uint32) bool {
	return off >= st.sendBase && off <= st.sendBase+uint32(st.sentLen)
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
// role). vfs.EAGAIN is the shed code.
func (st *MuxStream) Reject(code vfs.Errno) {
	m := st.m
	m.mu.Lock()
	if st.state != stSynRecv {
		m.mu.Unlock()
		return
	}
	if code == vfs.EAGAIN {
		m.stats.Shed++
		m.tel.shed.Inc()
	}
	fns := m.resetLocked(st, code, true)
	m.mu.Unlock()
	run(fns)
}

// Write queues p for transmission and calls done(nil) once every byte
// has been admitted to the flow-control window (queued for the
// transport). A zero-window stream holds the completion until the
// peer grants credit — the backpressure the tests pin down — and a
// parked session holds it until the session resumes. done(err)
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
		if st.state == stClosed {
			return ErrSocketClosed
		}
		if st.sendBase+uint32(st.sentLen) >= target || target <= st.sendBase {
			return nil
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
// drained. Offline, the grant waits: the RESUME frame carries the edge
// last granted and the handshake re-evaluates. Lock held.
func (m *Mux) grantLocked(st *MuxStream) {
	if !m.online() || st.state != stOpen || !st.rw.due() {
		return
	}
	st.rw.granted = st.rw.consumed
	m.enqueue(muxHeader(st.id, muxCredit, st.rw.granted, 0), nil)
	m.stats.Credits++
}

// PauseCredit withholds future credit grants from the stream's peer —
// the gateway's per-stream backpressure lever when the owning
// tenant's loop falls behind.
func (st *MuxStream) PauseCredit() {
	st.m.mu.Lock()
	st.rw.paused = true
	st.m.mu.Unlock()
}

// ResumeCredit lifts a pause and releases any credit that accumulated
// while paused.
func (st *MuxStream) ResumeCredit() {
	m := st.m
	m.mu.Lock()
	st.rw.paused = false
	m.grantLocked(st)
	m.mu.Unlock()
}

// Close half-closes the stream for writing: a FIN carrying the final
// offset tells the peer where the byte stream ends. Reads continue
// until the peer's own FIN.
func (st *MuxStream) Close() error {
	m := st.m
	m.mu.Lock()
	if st.err != nil || st.finSent || st.state == stClosed {
		m.mu.Unlock()
		return nil
	}
	st.finSent = true
	st.finAt = st.sendBase + uint32(len(st.sendBuf))
	m.enqueue(muxHeader(st.id, muxFin, st.finAt, 0), nil)
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
// — the peer holds everything through our FIN, and we hold everything
// through theirs — so the session map does not grow without bound.
// Bytes the consumer has not drained stay readable from the stream.
func (m *Mux) maybeReapLocked(st *MuxStream) {
	if st.finAcked && st.recvDone() && st.state != stClosed {
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
		m.fail(&StreamError{Code: vfs.EPROTO})
		return
	}
	id := binary.BigEndian.Uint32(b[0:4])
	kind := b[4]
	arg := binary.BigEndian.Uint32(b[5:9])
	dlen := binary.BigEndian.Uint32(b[9:13])
	payload := b[MuxHeaderLen:]

	m.mu.Lock()
	if m.dead || m.parked {
		m.mu.Unlock()
		return
	}
	var fns []func()
	if m.resuming {
		if kind == muxResume {
			if len(payload)%resumeRecLen != 0 {
				m.mu.Unlock()
				m.fail(&StreamError{Code: vfs.EPROTO})
				return
			}
			fns = m.handleResume(arg, payload)
			m.mu.Unlock()
			run(fns)
			return
		}
		// The first frame on a resumed transport is the peer's RESUME
		// unless the peer no longer has the session (RST on stream 0,
		// which names no stream) or started a fresh one: either way,
		// what we kept is gone.
		fns = m.forgetLocked()
	}
	st := m.streams[id]
	switch kind {
	case muxResume:
		// The peer is resuming a session this endpoint does not have.
		m.enqueue(muxHeader(0, muxRst, rstReset, 0), nil)
	case muxSyn:
		fns = append(fns, m.handleSyn(id, arg)...)
	case muxSynAck:
		if st != nil && st.state == stSynSent {
			st.state = stOpen
			st.sw.open(int(arg))
			fns = append(fns, st.settleOpen(nil)...)
			fns = append(fns, m.pump(st)...)
		}
	case muxData:
		if st == nil {
			// A stale stream: tell the peer to stop sending.
			m.enqueue(muxHeader(id, muxRst, rstReset, 0), nil)
			break
		}
		fns = append(fns, m.handleData(st, arg, dlen, payload)...)
	case muxAck:
		if st != nil {
			fns = append(fns, m.handleAck(st, arg)...)
		}
	case muxCredit:
		if st != nil {
			fns = append(fns, m.handleCredit(st, arg)...)
		}
	case muxFin:
		if st != nil && !st.finRecv {
			fns = append(fns, m.handleFin(st, arg)...)
		}
	case muxRst:
		if st != nil {
			m.stats.Resets++
			m.tel.resets.Inc()
			fns = append(fns, m.killLocked(st, rstErrno(arg))...)
		}
	default:
		m.mu.Unlock()
		run(fns)
		m.fail(&StreamError{StreamID: id, Code: vfs.EPROTO})
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
	if id > m.peerMax {
		m.peerMax = id
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

// receivedLocked wakes the reader after new data or a FIN; once
// everything through the peer's FIN is here it sends the end-of-stream
// ACK, the only receive report outside CREDIT and RESUME. Lock held.
func (m *Mux) receivedLocked(st *MuxStream) []func() {
	if st.recvDone() {
		m.enqueue(muxHeader(st.id, muxAck, st.recvNext, 0), nil)
		m.maybeReapLocked(st)
	}
	st.cond.Broadcast()
	if st.readable != nil {
		return []func(){st.readable}
	}
	return nil
}

// handleCredit applies a consumed edge: bytes below it are released
// and the window extends past it. Lock held.
func (m *Mux) handleCredit(st *MuxStream, edge uint32) []func() {
	if edge > st.sendBase {
		if !st.reported(edge) {
			return m.resetLocked(st, vfs.EPROTO, true)
		}
		st.release(edge)
	}
	st.sw.credit(edge)
	return m.pump(st)
}

// handleAck takes the peer's end-of-stream report: it holds every byte
// through our FIN. Lock held.
func (m *Mux) handleAck(st *MuxStream, recv uint32) []func() {
	if !st.finSent || recv != st.finAt || !st.reported(recv) {
		return m.resetLocked(st, vfs.EPROTO, true)
	}
	st.release(recv)
	st.finAcked = true
	m.maybeReapLocked(st)
	return nil
}

// handleResume completes the resume handshake from the peer's RESUME:
// peerMax is the highest stream id it has seen us open, and the
// records give each stream it still holds. Every stream is brought up
// to date by re-sending current state. Lock held.
func (m *Mux) handleResume(peerMax uint32, recs []byte) []func() {
	m.resuming = false
	m.stats.Resumes++
	m.tel.resumes.Inc()
	type rec struct {
		flags      byte
		recv, edge uint32
	}
	peer := make(map[uint32]rec, len(recs)/resumeRecLen)
	for ; len(recs) > 0; recs = recs[resumeRecLen:] {
		peer[binary.BigEndian.Uint32(recs[0:4])] = rec{
			flags: recs[4],
			recv:  binary.BigEndian.Uint32(recs[5:9]),
			edge:  binary.BigEndian.Uint32(recs[9:13]),
		}
	}
	var fns []func()
	for id, st := range m.streams {
		r, ok := peer[id]
		if !ok {
			switch {
			case !st.remote && id > peerMax:
				// Our SYN died with the old transport.
				m.enqueue(muxHeader(id, muxSyn, uint32(st.rw.window), 0), nil)
			case st.finSent && st.recvDone():
				// Both directions were done and the peer reaped the
				// stream; only its end-of-stream ACK was lost.
				st.finAcked = true
				m.maybeReapLocked(st)
			default:
				// The peer reset the stream and the RST was lost.
				fns = append(fns, m.killLocked(st, vfs.ECONNRESET)...)
			}
			continue
		}
		// The peer holds everything below r.recv: replay the rest.
		if !st.reported(r.recv) {
			fns = append(fns, m.resetLocked(st, vfs.EPROTO, true)...)
			continue
		}
		st.release(r.recv)
		st.sentLen = 0
		if st.state != stSynSent {
			st.sw.credit(r.edge)
		}
		if st.finSent && r.flags&resumeFinRecv != 0 {
			st.finAcked = true
		}
		if st.remote && st.state == stOpen && r.flags&resumeOpen == 0 {
			m.enqueue(muxHeader(id, muxSynAck, uint32(st.rw.window), 0), nil)
		}
		if st.finSent && r.flags&resumeFinRecv == 0 {
			m.enqueue(muxHeader(id, muxFin, st.finAt, 0), nil)
		}
		fns = append(fns, m.pump(st)...)
		m.grantLocked(st)
		m.maybeReapLocked(st)
	}
	return fns
}

// forgetLocked drops every stream of a session the peer no longer
// has; the session carries on empty. Lock held.
func (m *Mux) forgetLocked() []func() {
	m.resuming = false
	m.peerMax = 0
	var fns []func()
	for _, st := range m.streams {
		fns = append(fns, m.killLocked(st, vfs.ECONNRESET)...)
	}
	return fns
}

// fail kills the whole session: every stream errors with ECONNRESET
// (transient — redial-worthy), blocked I/O wakes, OnClose fires once.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return
	}
	m.dead = true
	m.deadErr = err
	var fns []func()
	for _, st := range m.streams {
		fns = append(fns, m.killLocked(st, vfs.ECONNRESET)...)
	}
	m.outQ = nil
	m.outCond.Broadcast()
	m.mu.Unlock()
	run(fns)
	if m.cfg.OnClose != nil {
		m.cfg.OnClose(err)
	}
}

// CloseSession shuts the endpoint down (transport died or owner is
// done). Idempotent.
func (m *Mux) CloseSession(err error) { m.fail(err) }

// Dead reports whether the session has failed/closed.
func (m *Mux) Dead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead
}

// StreamSnapshot is one stream's state for /debug/sock.
type StreamSnapshot struct {
	ID           uint32 `json:"id"`
	State        string `json:"state"`
	SendWindow   int    `json:"send_window"`   // unspent credit
	SendQueued   int    `json:"send_queued"`   // bytes unreported or awaiting window
	RecvBuffered int    `json:"recv_buffered"` // bytes awaiting the consumer
	Paused       bool   `json:"paused"`        // credit withheld (shedding)
}

// MuxSnapshot is the session state for /debug/sock.
type MuxSnapshot struct {
	Dead    bool             `json:"dead"`
	Parked  bool             `json:"parked"` // no transport, waiting to resume
	Stats   MuxStats         `json:"stats"`
	Streams []StreamSnapshot `json:"streams"`
}

// Snapshot captures the session's streams and counters.
func (m *Mux) Snapshot() MuxSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := MuxSnapshot{Dead: m.dead, Parked: m.parked, Stats: m.stats}
	for _, st := range m.streams {
		snap.Streams = append(snap.Streams, StreamSnapshot{
			ID:           st.id,
			State:        stateName(st.state),
			SendWindow:   st.sw.avail(st.sendBase + uint32(st.sentLen)),
			SendQueued:   len(st.sendBuf),
			RecvBuffered: len(st.recvBuf),
			Paused:       st.rw.paused,
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
	s.Resumes += b.Resumes
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

// ForEachStream calls fn for every live stream, outside the session
// lock — the gateway's pause/resume sweep.
func (m *Mux) ForEachStream(fn func(st *MuxStream)) {
	m.mu.Lock()
	streams := make([]*MuxStream, 0, len(m.streams))
	for _, st := range m.streams {
		streams = append(streams, st)
	}
	m.mu.Unlock()
	for _, st := range streams {
		fn(st)
	}
}
