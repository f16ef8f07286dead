package ipc

import "sync/atomic"

// WireStats counts transport frames by codec and direction, codec
// negotiations, frames that failed to decode and accept back-offs: plain
// atomics, one add per frame written and per read, rendered by obs.BindWire.
// One WireStats may be shared across servers, clients and redials — the
// counters are totals for whatever it is attached to.
type WireStats struct {
	frames       [2][2]atomic.Uint64 // [binary][out]
	negotiations atomic.Uint64
	frameErrors  atomic.Uint64
	backoffs     atomic.Uint64
}

// Frames reports the number of frames seen for one codec/direction. A
// server counts a read's frames when it has handled them, before their
// replies leave on a UNIX socket.
func (w *WireStats) Frames(binary, out bool) uint64 { return w.frames[b2i(binary)][b2i(out)].Load() }

// Negotiations reports completed binary-codec handshakes (counted on
// the side that answered or initiated them).
func (w *WireStats) Negotiations() uint64 { return w.negotiations.Load() }

// FrameErrors reports frames that arrived but could not be served:
// those that failed to decode, and one-way frames refused with nobody
// to tell (see CountFrameError).
func (w *WireStats) FrameErrors() uint64 { return w.frameErrors.Load() }

// AcceptBackoffs reports how often a server's accept failed (EMFILE and
// the like) and waited before trying again.
func (w *WireStats) AcceptBackoffs() uint64 { return w.backoffs.Load() }

// countFrames adds n frames of one codec/direction; nil-safe so call
// sites can use the loaded pointer unconditionally.
func (w *WireStats) countFrames(binary, out bool, n uint64) {
	if w != nil && n != 0 {
		w.frames[b2i(binary)][b2i(out)].Add(n)
	}
}

func (w *WireStats) countNegotiation() {
	if w != nil {
		w.negotiations.Add(1)
	}
}

// CountFrameError records one frame that could not be served. The
// transport counts undecodable frames itself; a handler calls it for a
// one-way request it refuses without sending the refusal back. Nil-safe.
func (w *WireStats) CountFrameError() {
	if w != nil {
		w.frameErrors.Add(1)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
