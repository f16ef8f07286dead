package fault

import (
	"net"
	"sync"

	"convgpu/internal/protocol"
)

// Tap is the harness's pass-through: a net.Conn that injects nothing and
// records what its owner writes — how many Writes it issued, one per
// socket write, and the binary frames they held, in order. The peer
// reads a connection in order, so that is the order it decodes them in.
// Tests put it where ipc.NewClient takes its connection.
type Tap struct {
	net.Conn

	mu     sync.Mutex
	writes int
	frames []protocol.Type
}

// NewTap records the writes on c.
func NewTap(c net.Conn) *Tap { return &Tap{Conn: c} }

// Write records b and passes it on.
func (t *Tap) Write(b []byte) (int, error) {
	t.mu.Lock()
	t.writes++
	for _, m := range Frames(b) {
		t.frames = append(t.frames, m.Type)
	}
	t.mu.Unlock()
	return t.Conn.Write(b)
}

// Writes reports the number of Write calls so far.
func (t *Tap) Writes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.writes
}

// FrameTypes returns the types of the binary frames written so far.
func (t *Tap) FrameTypes() []protocol.Type {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]protocol.Type(nil), t.frames...)
}

// Frames decodes the binary frames one write's bytes begin with, up to
// the first thing that is not one (a JSON line, a cut frame). A client's
// coalesced write holds whole frames, so that is all of them.
func Frames(b []byte) []protocol.Message {
	var out []protocol.Message
	for len(b) >= protocol.BinaryHeaderSize && b[0] == protocol.BinaryMagic {
		op, n, seq, err := protocol.ParseBinaryHeader(b[:protocol.BinaryHeaderSize])
		if err != nil || len(b) < protocol.BinaryHeaderSize+n {
			break
		}
		var m protocol.Message
		if protocol.DecodeBinaryInto(&m, op, seq, b[protocol.BinaryHeaderSize:protocol.BinaryHeaderSize+n]) != nil {
			break
		}
		out = append(out, m)
		b = b[protocol.BinaryHeaderSize+n:]
	}
	return out
}
