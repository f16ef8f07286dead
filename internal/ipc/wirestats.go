package ipc

import "sync/atomic"

// WireStats counts transport frames by codec and direction, plus codec
// negotiations and frames that failed to decode. It is a plain bundle
// of atomics so the hot path pays one predicated add per frame; the
// observability layer renders it through gauges without this package
// importing it (see obs.BindWire). One WireStats may be shared across
// servers, clients and redials — the counters are totals for whatever
// it is attached to.
type WireStats struct {
	binaryIn     atomic.Uint64
	binaryOut    atomic.Uint64
	jsonIn       atomic.Uint64
	jsonOut      atomic.Uint64
	negotiations atomic.Uint64
	frameErrors  atomic.Uint64
}

// Frames reports the number of frames seen for one codec/direction.
func (w *WireStats) Frames(binary, out bool) uint64 {
	switch {
	case binary && out:
		return w.binaryOut.Load()
	case binary:
		return w.binaryIn.Load()
	case out:
		return w.jsonOut.Load()
	default:
		return w.jsonIn.Load()
	}
}

// Negotiations reports completed binary-codec handshakes (counted on
// the side that answered or initiated them).
func (w *WireStats) Negotiations() uint64 { return w.negotiations.Load() }

// FrameErrors reports frames that arrived but could not be served:
// those that failed to decode, and one-way frames refused with nobody
// to tell (see CountFrameError).
func (w *WireStats) FrameErrors() uint64 { return w.frameErrors.Load() }

// countFrame bumps one codec/direction counter; nil-safe so call sites
// can use the loaded pointer unconditionally.
func (w *WireStats) countFrame(binary, out bool) {
	if w == nil {
		return
	}
	switch {
	case binary && out:
		w.binaryOut.Add(1)
	case binary:
		w.binaryIn.Add(1)
	case out:
		w.jsonOut.Add(1)
	default:
		w.jsonIn.Add(1)
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
