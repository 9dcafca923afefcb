package sockets

// Per-stream flow control is credit-based, the scheme the mux frames
// carry in their arg field (§15 of DESIGN.md). Every quantity is an
// absolute stream offset, so a stale or repeated grant changes
// nothing:
//
//   - At stream open, SYN/SYNACK advertise each side's receive window:
//     the number of payload bytes the peer may send beyond what the
//     consumer has drained.
//   - A receiver grants credit by advertising its consumed edge — the
//     offset through which its consumer has drained the stream. CREDIT
//     frames carry that edge, batched until a quarter of the window
//     has drained, so a byte-at-a-time consumer does not generate a
//     credit frame per byte.
//   - A sender may transmit up to the last edge it heard plus the
//     window.
//
// A writer that exhausts the window parks (its Write completion stays
// pending) until credit arrives — the "zero-window writer blocks,
// credit resumes" behavior the equivalence tests pin down. The gateway
// sheds load by withholding credit (pausing) or refusing streams
// (RST), both expressed in this same currency.

// sendWindow is the sender half of one stream direction. Callers hold
// the owning Mux's lock.
type sendWindow struct {
	window int    // the peer's advertised receive window
	limit  uint64 // stream offset the sender may transmit up to
}

// open records the window a SYN or SYNACK advertised: nothing is
// consumed yet, so the limit is the window itself.
func (w *sendWindow) open(window int) {
	w.window = window
	w.limit = uint64(window)
}

// credit applies a consumed edge the peer advertised. Edges only move
// forward, so a stale or repeated grant changes nothing.
func (w *sendWindow) credit(edge uint32) {
	if l := uint64(edge) + uint64(w.window); l > w.limit {
		w.limit = l
	}
}

// avail reports how many bytes past offset next the window admits; 0
// means the window is closed and the writer must park.
func (w *sendWindow) avail(next uint32) int {
	if w.limit <= uint64(next) {
		return 0
	}
	return int(w.limit - uint64(next))
}

// recvWindow is the receiver half: the advertised window, how far the
// consumer has drained, and the edge last granted to the peer. Callers
// hold the owning Mux's lock.
type recvWindow struct {
	window   int    // bytes advertised to the peer at open
	consumed uint32 // stream offset the consumer has drained through
	granted  uint32 // consumed edge last advertised to the peer
	paused   bool
}

// creditThreshold is the fraction of the window that must drain before
// a CREDIT frame is emitted: window/4 batches grants without letting
// the sender's view of the window go stale enough to stall it.
func (w *recvWindow) creditThreshold() int {
	t := w.window / 4
	if t < 1 {
		t = 1
	}
	return t
}

// due reports whether a grant is worth sending now: a quarter window
// has drained since the last one and the stream is not paused for
// shedding (a paused stream keeps accumulating; resume releases it).
func (w *recvWindow) due() bool {
	return !w.paused && int(w.consumed-w.granted) >= w.creditThreshold()
}

// admits reports whether bytes through offset end fit the credit this
// receiver has granted; a sender past it is violating the protocol.
func (w *recvWindow) admits(end uint64) bool {
	return end <= uint64(w.granted)+uint64(w.window)
}
